type digest = string

(* Words are native ints holding 32-bit values (OCaml 5 ints are 63 bits
   wide). Intermediate sums and rotations may carry junk above bit 31;
   every word is truncated with [mask] where it is stored. *)
let mask = 0xFFFF_FFFF

(* Round constants: first 32 bits of the fractional parts of the cube
   roots of the first 64 primes (FIPS 180-4 §4.2.2). *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type state = {
  h : int array; (* 8 chaining words *)
  w : int array; (* 64-word message schedule, reused by every block *)
  buf : Bytes.t; (* 64-byte partial-block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

type ctx = { mutable st : state option }

(* The portable kernel, used where the CPU lacks the SHA extensions and
   the oracle the SHA-NI kernel is tested against.

   Compress the 64-byte block at [off] of [block] into [st.h]. Callers
   hashing a string pass it through [Bytes.unsafe_of_string]: the block
   is only read.

   Each rotation reads a word [x] duplicated into the high half,
   [xx = x lor (x lsl 32)]: bits [n..n+31] of [xx] are [x] rotated right
   by [n] for every [n < 32] (OCaml ints hold 63 bits), so [xx lsr n]
   rotates in one shift. A sigma is then three shifts and two xors; the
   junk above bit 31 is masked where the word is stored. *)
let compress st block off =
  let w = st.w and h = st.h in
  for t = 0 to 15 do
    let p = off + (t * 4) in
    w.(t) <-
      (Char.code (Bytes.unsafe_get block p) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (p + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (p + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (p + 3))
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a and g' = !g in
    let ee = e' lor (e' lsl 32) and aa = a' lor (a' lsl 32) in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = g' lxor (e' land (!f lxor g')) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (a' land !b) lor (!c land (a' lor !b)) in
    hh := g';
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* The SHA-NI kernel (sha256_stubs.c) and the probe that says whether
   this CPU can run it. Both are noalloc: the kernel reads [nblocks]
   64-byte blocks of [src] from [off] and writes the chaining words back
   into [h], so its range is checked before every call. *)
external sha_ni_available : unit -> bool = "dagrider_sha256_ni_available"
[@@noalloc]

external sha_ni_compress_blocks : int array -> bytes -> int -> int -> unit
  = "dagrider_sha256_ni_compress_blocks"
[@@noalloc]

(* Chosen once, from what cpuid reports; nothing else can change it. *)
let sha_ni = sha_ni_available ()
let kernel = if sha_ni then "sha-ni" else "portable"

let check_blocks src off nblocks =
  let len = Bytes.length src in
  if off < 0 || off > len || nblocks < 0 || nblocks > (len - off) lsr 6 then
    invalid_arg "Sha256.compress_blocks: blocks out of bounds"

let portable_blocks st src off nblocks =
  for i = 0 to nblocks - 1 do
    compress st src (off + (64 * i))
  done

(* Compress [nblocks] whole blocks of [src] from [off] into [st.h]. *)
let blocks st src off nblocks =
  check_blocks src off nblocks;
  if sha_ni then sha_ni_compress_blocks st.h src off nblocks
  else portable_blocks st src off nblocks

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let fresh_state () =
  { h = Array.copy iv;
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0 }

(* The state behind every one-shot digest. Each one runs start to finish
   before the next begins (the library is single-domain), so they can
   all share it; [init] contexts keep their own. *)
let scratch = fresh_state ()

let reset_scratch () =
  Array.blit iv 0 scratch.h 0 8;
  scratch.buf_len <- 0;
  scratch.total <- 0;
  scratch

(* Feed [len] bytes of [src] from [pos]. Strings come through
   [Bytes.unsafe_of_string]: the input is only read. *)
let feed_sub st src pos len =
  st.total <- st.total + len;
  let pos = ref pos and stop = pos + len in
  (* fill the partial block first *)
  if st.buf_len > 0 then begin
    let take = min (64 - st.buf_len) len in
    Bytes.blit src !pos st.buf st.buf_len take;
    st.buf_len <- st.buf_len + take;
    pos := !pos + take;
    if st.buf_len = 64 then begin
      blocks st st.buf 0 1;
      st.buf_len <- 0
    end
  end;
  (* whole blocks straight from the input, in one kernel call *)
  let nblocks = (stop - !pos) / 64 in
  if nblocks > 0 then begin
    blocks st src !pos nblocks;
    pos := !pos + (64 * nblocks)
  end;
  if !pos < stop then begin
    Bytes.blit src !pos st.buf 0 (stop - !pos);
    st.buf_len <- stop - !pos
  end

let feed_state st s =
  feed_sub st (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize_state st =
  (* padding: 0x80, zeros up to byte 56 of a block, then the 8-byte
     big-endian bit length *)
  let buf = st.buf in
  Bytes.set buf st.buf_len '\x80';
  Bytes.fill buf (st.buf_len + 1) (63 - st.buf_len) '\000';
  if st.buf_len >= 56 then begin
    (* no room left for the length: it goes in one more block *)
    blocks st buf 0 1;
    Bytes.fill buf 0 56 '\000'
  end;
  let bit_len = st.total * 8 in
  for i = 0 to 7 do
    Bytes.set buf (56 + i) (Char.unsafe_chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  blocks st buf 0 1;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) st.h;
  Bytes.unsafe_to_string out

let init () = { st = Some (fresh_state ()) }

let feed ctx s =
  match ctx.st with
  | None -> invalid_arg "Sha256.feed: context already finalized"
  | Some st -> feed_state st s

let finalize ctx =
  match ctx.st with
  | None -> invalid_arg "Sha256.finalize: context already finalized"
  | Some st ->
    ctx.st <- None;
    finalize_state st

let digest_string s =
  let st = reset_scratch () in
  feed_state st s;
  finalize_state st

let digest_concat3 a b c =
  let st = reset_scratch () in
  feed_state st a;
  feed_state st b;
  feed_state st c;
  finalize_state st

let digest_sub ~prefix b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Sha256.digest_sub: slice out of bounds";
  let st = reset_scratch () in
  feed_state st prefix;
  feed_sub st b pos len;
  finalize_state st

(* The kernels on a bare chaining state, for the differential test. *)
let chain_state h =
  if Array.length h <> 8 then invalid_arg "Sha256.compress_blocks: 8 words";
  { h; w = Array.make 64 0; buf = Bytes.empty; buf_len = 0; total = 0 }

let compress_blocks h src off nblocks = blocks (chain_state h) src off nblocks

let compress_blocks_portable h src off nblocks =
  let st = chain_state h in
  check_blocks src off nblocks;
  portable_blocks st src off nblocks

let hex_digits = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create (2 * String.length d) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.unsafe_set out (2 * i) hex_digits.[v lsr 4];
      Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[v land 15])
    d;
  Bytes.unsafe_to_string out

let hmac ~key msg =
  let block = 64 in
  let key = if String.length key > block then digest_string key else key in
  let pad c =
    String.init block (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.unsafe_chr (k lxor c))
  in
  let inner = digest_concat3 (pad 0x36) msg "" in
  digest_concat3 (pad 0x5c) inner ""
