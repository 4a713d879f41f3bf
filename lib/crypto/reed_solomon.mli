(** Systematic Reed–Solomon erasure coding over GF(2^8).

    A byte string is split into [k] data fragments; [n - k] parity
    fragments are derived so that {e any} [k] of the [n] fragments
    reconstruct the original data. Fragment [i] holds, at byte position
    [j], the evaluation at field point [i] of the degree-[< k] polynomial
    interpolating the [k] data bytes at positions [0 .. k-1].

    In the AVID broadcast the parameters are [k = f + 1], [n = 3f + 1],
    which tolerates [2f] missing fragments; Byzantine (corrupted)
    fragments are rejected upstream by Merkle proofs, so this module only
    handles {e erasures}, as in the Cachin–Tessaro protocol.

    Constraint: [0 < k <= n <= 256] (field size).

    Both kernels run over one 256 x 256 product table (64 KiB, built once
    by the first {!encode} or {!decode}, not by {!make}): every output
    byte is an XOR of [table.(c).(x)] loads. Decoding is systematic: it
    copies every data fragment it holds and interpolates only the
    missing data fragments.

    A coder owns two buffers that every call on it reuses: the
    {e codeword buffer}, which holds the data fragments of the last
    codeword encoded or reconstructed, and a {e row buffer} for one
    fragment. Both grow to the largest codeword the coder has seen.
    {!reconstruct}, {!row} and {!payload} let a caller check a codeword
    against fragments it holds without allocating the fragments, as
    AVID's delivery check does. The codeword buffer holds until the
    next {!encode}, {!decode} or {!reconstruct} on the same coder, the
    row buffer until the next {!row}. *)

type coder
(** Precomputed encoding matrix for a fixed [(k, n)], and its buffers. *)

val make : k:int -> n:int -> coder
(** @raise Invalid_argument if the constraint on [k], [n] is violated. *)

val fragment_length : coder -> data_len:int -> int
(** Length of each fragment for input of [data_len] bytes:
    [ceil (data_len / k)], at least 1 so empty payloads still disperse. *)

val encode : coder -> string -> string array
(** [encode c data] returns the [n] fragments. Fragments [0 .. k-1] are
    the (padded) data itself — the code is systematic. *)

val decode : coder -> data_len:int -> (int * string) list -> string
(** [decode c ~data_len fragments] reconstructs the original data from at
    least [k] fragments given as [(index, bytes)] pairs. Extra fragments
    beyond [k] are ignored: the [k] smallest distinct indices are used,
    the first occurrence of each. An empty fragment counts as absent
    (no fragment is empty). It is {!reconstruct} then {!payload}.
    @raise Invalid_argument if fewer than [k] distinct valid indices are
    supplied, if an index is out of range, or if fragment lengths are
    inconsistent with [data_len]. *)

val reconstruct : coder -> data_len:int -> string array -> unit
(** [reconstruct c ~data_len frags] decodes into the codeword buffer:
    [frags.(i)] is fragment [i], or [""] if it is missing. The data
    fragments are those {!encode} would produce for the decoded data,
    zero padding included, whatever padding the held fragments carry.
    Allocates nothing once the buffer is large enough.
    @raise Invalid_argument if [frags] does not have [n] slots, or as
    {!decode} does. *)

val row : coder -> int -> bytes
(** [row c i] derives fragment [i] of the codeword in the codeword
    buffer (the last {!encode}, {!decode} or {!reconstruct}) into the
    row buffer and returns that buffer: the fragment is its first
    [fragment_length] bytes, byte-equal to [(encode c data).(i)].
    Allocates nothing once the buffer is large enough.
    @raise Invalid_argument if [i] is not in [[0, n)]. *)

val payload : coder -> string
(** The data of the codeword in the codeword buffer, copied out. *)
