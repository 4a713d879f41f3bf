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
    byte is an XOR of [table.(c).(x)] loads. {!decode} is systematic: it copies
    every data fragment it holds and interpolates only the missing data
    fragments. *)

type coder
(** Precomputed encoding matrix for a fixed [(k, n)]. *)

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
    the first occurrence of each.
    @raise Invalid_argument if fewer than [k] distinct valid indices are
    supplied, if an index is out of range, or if fragment lengths are
    inconsistent with [data_len]. *)
