type coder = {
  k : int;
  n : int;
  (* parity.(r).(i): Lagrange coefficient of data point i when evaluating
     at field point k + r, so that parity fragments are linear in data. *)
  parity : int array array;
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
  Array.iteri
    (fun m xm ->
      if m <> i then begin
        num := Gf256.mul !num (Gf256.sub x xm);
        den := Gf256.mul !den (Gf256.sub xi xm)
      end)
    xs;
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
  { k; n; parity }

let fragment_length c ~data_len =
  if data_len <= 0 then 1 else (data_len + c.k - 1) / c.k

let encode c data =
  let flen = fragment_length c ~data_len:(String.length data) in
  let padded = Bytes.make (flen * c.k) '\000' in
  Bytes.blit_string data 0 padded 0 (String.length data);
  let fragment i =
    if i < c.k then Bytes.sub_string padded (i * flen) flen
    else begin
      let coeffs = c.parity.(i - c.k) in
      let out = Bytes.make flen '\000' in
      for d = 0 to c.k - 1 do
        mul_add_into ~c:coeffs.(d) padded (d * flen) out 0 flen
      done;
      Bytes.unsafe_to_string out
    end
  in
  Array.init c.n fragment

let decode c ~data_len fragments =
  (* keep the first occurrence of each index, in index order, take k *)
  let seen = Array.make c.n None and distinct = ref 0 in
  List.iter
    (fun (i, frag) ->
      if i < 0 || i >= c.n then
        invalid_arg "Reed_solomon.decode: fragment index out of range";
      if seen.(i) = None then begin
        seen.(i) <- Some frag;
        incr distinct
      end)
    fragments;
  if !distinct < c.k then
    invalid_arg "Reed_solomon.decode: not enough fragments";
  let flen = fragment_length c ~data_len in
  let chosen = Array.make c.k (0, "") in
  let taken = ref 0 in
  Array.iteri
    (fun i slot ->
      match slot with
      | Some frag when !taken < c.k ->
        if String.length frag <> flen then
          invalid_arg "Reed_solomon.decode: inconsistent fragment length";
        chosen.(!taken) <- (i, frag);
        incr taken
      | _ -> ())
    seen;
  let xs = Array.map fst chosen in
  let padded = Bytes.make (flen * c.k) '\000' in
  (* The k smallest indices include every held data index, and the
     Lagrange row for a held point is a unit vector: copy those rows and
     interpolate only the missing ones. *)
  for target = 0 to c.k - 1 do
    match seen.(target) with
    | Some frag -> Bytes.blit_string frag 0 padded (target * flen) flen
    | None ->
      Array.iteri
        (fun i (_, frag) ->
          mul_add_into
            ~c:(lagrange_coeff xs i target)
            (Bytes.unsafe_of_string frag) 0 padded (target * flen) flen)
        chosen
  done;
  Bytes.sub_string padded 0 data_len
