(** SHA-256 (FIPS 180-4).

    Used for vertex digests, Merkle trees, and hashing threshold-coin
    outputs to leader indices.

    Every block goes through one of two compression kernels, chosen once
    when the module initialises and named by {!kernel}:
    - ["sha-ni"]: a C stub on the x86-64 SHA extensions, used when cpuid
      reports SHA, SSSE3 and SSE4.1. About 50 ns per 64-byte block on
      a long input, and 0.9 microseconds for a 1 KiB digest (a 2-core
      x86-64 VM).
    - ["portable"]: everywhere else, the 64-round compression function
      written in OCaml on native [int] words masked to 32 bits. A
      rotation shifts a copy of its word duplicated into the high half
      of the 63-bit [int], so each sigma is three shifts. About 0.5
      microseconds per block, 9 to 11 per KiB, on the same VM.
    Nothing but the CPU picks the kernel: there is no flag, variable or
    setting. Both compute the same function, so every digest is the same
    on every machine; the portable kernel is the oracle the test suite
    checks the SHA-NI one against, and both are checked against the
    official vectors and [sha256sum] digests across the block and padding
    boundaries. Whole blocks are compressed straight from the input, all
    of one input's in one kernel call; perfbench's
    [crypto.sha256_us_per_kb] row reads more on short inputs, where the
    per-digest cost shows.

    The one-shot functions ({!digest_string}, {!digest_sub},
    {!digest_concat3}, {!hmac}) share one module-level hashing state,
    so a digest allocates only its 32-byte result: the C kernel is
    noalloc and its block range is checked in OCaml before each call.
    An {!init} context owns its own state and may stay live across any
    number of one-shot digests. The module is therefore single-domain:
    it is not safe to call from two domains at once, and the library
    runs on one. *)

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

(** {1 Kernels} *)

val kernel : string
(** The compression kernel this process hashes with: ["sha-ni"] or
    ["portable"]. [dagrider_run profile] prints it in its header line, so
    a span table says which kernel its crypto rows come from. *)

val compress_blocks : int array -> bytes -> int -> int -> unit
(** [compress_blocks h src off nblocks] compresses the [nblocks] 64-byte
    blocks of [src] from [off] into the chaining state [h] (8 words, each
    in \[0, 2{^32})), with the kernel named by {!kernel}. Exposed for the
    differential test; hashing goes through the digest functions.
    @raise Invalid_argument if [h] is not 8 words or the blocks are not
    within [src]. *)

val compress_blocks_portable : int array -> bytes -> int -> int -> unit
(** {!compress_blocks} with the portable kernel whatever the CPU: the
    test oracle for the SHA-NI kernel. *)
