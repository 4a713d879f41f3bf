type coder = {
  k : int;
  n : int;
  (* parity.(r).(i): Lagrange coefficient of data point i when evaluating
     at field point k + r, so that parity fragments are linear in data. *)
  parity : int array array;
  (* The codeword buffer: the k data fragments, [flen] bytes each and
     zero-padded past [data_len], of the last codeword encoded or
     reconstructed. It and the row buffer are reused by every call on
     this coder and grow to the largest codeword it has seen. *)
  mutable data : Bytes.t;
  mutable row : Bytes.t;
  mutable flen : int;
  mutable data_len : int;
  chosen : int array; (* the k indices a reconstruction interpolates from *)
}

(* The full GF(2^8) multiplication table, 64 KiB: byte (c lsl 8) lor x is
   c * x, so the kernel below does one unchecked table load per byte
   instead of two range-checked log/antilog lookups. Built once, on the
   first encode or decode rather than in [make] or at start-up: a
   program that never codes never allocates it. *)
let product =
  lazy
    (let t = Bytes.create 65536 in
     for c = 0 to 255 do
       for x = 0 to 255 do
         Bytes.unsafe_set t ((c lsl 8) lor x) (Char.unsafe_chr (Gf256.mul c x))
       done
     done;
     t)

(* dst.[dst_off + j] ^= c * src.[src_off + j] for j < len; callers
   guarantee the ranges are in bounds. *)
let mul_add_into ~c src src_off dst dst_off len =
  if c <> 0 then begin
    let product = Lazy.force product in
    let row = c lsl 8 in
    for j = 0 to len - 1 do
      let x = Char.code (Bytes.unsafe_get src (src_off + j)) in
      let p = Char.code (Bytes.unsafe_get product (row lor x)) in
      let acc = Char.code (Bytes.unsafe_get dst (dst_off + j)) in
      Bytes.unsafe_set dst (dst_off + j) (Char.unsafe_chr (acc lxor p))
    done
  end

(* Lagrange basis coefficient L_i(x) over sample points xs. *)
let lagrange_coeff xs i x =
  let xi = xs.(i) in
  let num = ref 1 and den = ref 1 in
  for m = 0 to Array.length xs - 1 do
    if m <> i then begin
      num := Gf256.mul !num (Gf256.sub x xs.(m));
      den := Gf256.mul !den (Gf256.sub xi xs.(m))
    end
  done;
  Gf256.div !num !den

let make ~k ~n =
  if k <= 0 || k > n || n > 256 then
    invalid_arg "Reed_solomon.make: need 0 < k <= n <= 256";
  let data_points = Array.init k (fun i -> i) in
  let parity =
    Array.init (n - k) (fun r ->
        let x = k + r in
        Array.init k (fun i -> lagrange_coeff data_points i x))
  in
  { k;
    n;
    parity;
    data = Bytes.empty;
    row = Bytes.empty;
    flen = 0;
    data_len = 0;
    chosen = Array.make k 0 }

let fragment_length c ~data_len =
  if data_len <= 0 then 1 else (data_len + c.k - 1) / c.k

(* Make the buffer hold a [data_len]-byte codeword of [flen]-byte
   fragments, growing it by doubling so a run of growing payloads
   reallocates it rarely. *)
let reserve c ~data_len ~flen =
  let size = flen * c.k in
  if Bytes.length c.data < size then
    c.data <- Bytes.create (max size (2 * Bytes.length c.data));
  c.flen <- flen;
  c.data_len <- data_len

(* Zero the buffer past [data_len], as [encode] pads its input. *)
let pad c = Bytes.fill c.data c.data_len ((c.flen * c.k) - c.data_len) '\000'

(* Parity fragment [k + r] of the codeword in the buffer, into the
   first [flen] bytes of [dst]. *)
let parity_into c r dst =
  let flen = c.flen and coeffs = c.parity.(r) in
  Bytes.fill dst 0 flen '\000';
  for d = 0 to c.k - 1 do
    mul_add_into ~c:coeffs.(d) c.data (d * flen) dst 0 flen
  done

let encode c data =
  let data_len = String.length data in
  let flen = fragment_length c ~data_len in
  reserve c ~data_len ~flen;
  Bytes.blit_string data 0 c.data 0 data_len;
  pad c;
  Array.init c.n (fun i ->
      if i < c.k then Bytes.sub_string c.data (i * flen) flen
      else begin
        let out = Bytes.create flen in
        parity_into c (i - c.k) out;
        Bytes.unsafe_to_string out
      end)

let reconstruct c ~data_len frags =
  if Array.length frags <> c.n then
    invalid_arg "Reed_solomon.reconstruct: need one slot per fragment";
  (* the k smallest held indices *)
  let taken = ref 0 and i = ref 0 in
  while !taken < c.k && !i < c.n do
    if String.length frags.(!i) > 0 then begin
      c.chosen.(!taken) <- !i;
      incr taken
    end;
    incr i
  done;
  if !taken < c.k then
    invalid_arg "Reed_solomon.decode: not enough fragments";
  let flen = fragment_length c ~data_len in
  for m = 0 to c.k - 1 do
    if String.length frags.(c.chosen.(m)) <> flen then
      invalid_arg "Reed_solomon.decode: inconsistent fragment length"
  done;
  reserve c ~data_len ~flen;
  (* The k smallest indices include every held data index, and the
     Lagrange row for a held point is a unit vector: copy those rows and
     interpolate only the missing ones. *)
  for target = 0 to c.k - 1 do
    let off = target * flen in
    if String.length frags.(target) > 0 then
      Bytes.blit_string frags.(target) 0 c.data off flen
    else begin
      Bytes.fill c.data off flen '\000';
      for m = 0 to c.k - 1 do
        mul_add_into
          ~c:(lagrange_coeff c.chosen m target)
          (Bytes.unsafe_of_string frags.(c.chosen.(m)))
          0 c.data off flen
      done
    end
  done;
  pad c

let row c i =
  if i < 0 || i >= c.n then invalid_arg "Reed_solomon.row: index out of range";
  let flen = c.flen in
  if Bytes.length c.row < flen then
    c.row <- Bytes.create (max flen (2 * Bytes.length c.row));
  if i < c.k then Bytes.blit c.data (i * flen) c.row 0 flen
  else parity_into c (i - c.k) c.row;
  c.row

let payload c = Bytes.sub_string c.data 0 c.data_len

let decode c ~data_len fragments =
  (* keep the first occurrence of each index *)
  let frags = Array.make c.n "" in
  List.iter
    (fun (i, frag) ->
      if i < 0 || i >= c.n then
        invalid_arg "Reed_solomon.decode: fragment index out of range";
      if String.length frags.(i) = 0 then frags.(i) <- frag)
    fragments;
  reconstruct c ~data_len frags;
  payload c
