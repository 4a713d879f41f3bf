(** SHA-256 (FIPS 180-4), implemented from scratch on native [int]
    words masked to 32 bits.

    Used for vertex digests, Merkle trees, and hashing threshold-coin
    outputs to leader indices. The implementation is the straightforward
    64-round compression function, run on unboxed words: each hashing
    state owns one reusable 64-word message schedule and compresses
    whole blocks straight from the input, so a digest allocates only
    that state and its 32-byte result. It costs some 10-25 microseconds
    per KiB (perfbench's [crypto.sha256_us_per_kb] row); correctness is checked against the official
    test vectors and [sha256sum] digests across the block and padding
    boundaries in the test suite. *)

type digest = string
(** 32-byte raw digest. *)

val digest_string : string -> digest
(** Hash a byte string. *)

val digest_bytes : bytes -> digest

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
