(** SHA-256 (FIPS 180-4), implemented from scratch on native [int]
    words masked to 32 bits.

    Used for vertex digests, Merkle trees, and hashing threshold-coin
    outputs to leader indices. The implementation is the straightforward
    64-round compression function, run on unboxed words: a rotation
    shifts a copy of its word duplicated into the high half of the
    63-bit [int], so each sigma is three shifts, and whole blocks are
    compressed straight from the input. A long input costs about 11
    microseconds per KiB (0.7 per 64-byte block on a 2-core x86-64
    VM); perfbench's [crypto.sha256_us_per_kb] row reads more on short
    inputs, where the per-digest cost shows. Correctness is checked
    against the official test vectors and [sha256sum] digests across
    the block and padding boundaries in the test suite.

    The one-shot functions ({!digest_string}, {!digest_sub},
    {!digest_concat3}, {!hmac}) share one module-level hashing state,
    so a digest allocates only its 32-byte result; an {!init} context
    owns its own state and may stay live across any number of one-shot
    digests. The module is therefore not safe to call from two domains
    at once; the library runs on one. *)

type digest = string
(** 32-byte raw digest. *)

val digest_string : string -> digest
(** Hash a byte string. *)

val digest_sub : prefix:string -> bytes -> pos:int -> len:int -> digest
(** [digest_sub ~prefix b ~pos ~len] hashes [prefix] followed by the
    [len] bytes of [b] from [pos]:
    [digest_string (prefix ^ Bytes.sub_string b pos len)], without the
    copy. A buffer reused across digests is hashed in place.
    @raise Invalid_argument if the slice is not within [b]. *)

val digest_concat3 : string -> string -> string -> digest
(** [digest_concat3 a b c = digest_string (a ^ b ^ c)], without building
    the concatenation. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering (64 chars). *)

val hmac : key:string -> string -> digest
(** HMAC-SHA256 (FIPS 198-1); used by the modeled signature scheme in
    {!Auth} and by the threshold-coin PRF. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val finalize : ctx -> digest
(** [finalize] consumes the context; feeding it afterwards raises. *)
