(* Test-only reference for Crypto.Reed_solomon: the per-byte Lagrange
   encoder and decoder the library ran before its table-driven kernels.
   Every output byte is a sum of Gf256.mul products, and decode
   interpolates every data row, held or not. test_rs_diff.ml compares
   the library against these. *)

module Gf256 = Crypto.Gf256

type coder = {
  k : int;
  n : int;
  (* parity.(r).(i): Lagrange coefficient of data point i when evaluating
     at field point k + r *)
  parity : int array array;
}

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
      String.init flen (fun j ->
          let acc = ref 0 in
          for d = 0 to c.k - 1 do
            let byte = Char.code (Bytes.get padded ((d * flen) + j)) in
            acc := Gf256.add !acc (Gf256.mul coeffs.(d) byte)
          done;
          Char.chr !acc)
    end
  in
  Array.init c.n fragment

let decode c ~data_len fragments =
  (* keep the first occurrence of each index, in index order, take k *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (i, frag) ->
      if i < 0 || i >= c.n then
        invalid_arg "Reed_solomon.decode: fragment index out of range";
      if not (Hashtbl.mem seen i) then Hashtbl.add seen i frag)
    fragments;
  if Hashtbl.length seen < c.k then
    invalid_arg "Reed_solomon.decode: not enough fragments";
  let flen = fragment_length c ~data_len in
  let chosen =
    let all = Hashtbl.fold (fun i frag acc -> (i, frag) :: acc) seen [] in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) all in
    Array.of_list (List.filteri (fun idx _ -> idx < c.k) sorted)
  in
  Array.iter
    (fun (_, frag) ->
      if String.length frag <> flen then
        invalid_arg "Reed_solomon.decode: inconsistent fragment length")
    chosen;
  let xs = Array.map fst chosen in
  (* coefficients to re-evaluate the interpolating polynomial at the data
     points 0 .. k-1 *)
  let coeff_rows =
    Array.init c.k (fun target ->
        Array.init c.k (fun i -> lagrange_coeff xs i target))
  in
  let padded = Bytes.create (flen * c.k) in
  for target = 0 to c.k - 1 do
    let coeffs = coeff_rows.(target) in
    for j = 0 to flen - 1 do
      let acc = ref 0 in
      for i = 0 to c.k - 1 do
        let _, frag = chosen.(i) in
        acc := Gf256.add !acc (Gf256.mul coeffs.(i) (Char.code frag.[j]))
      done;
      Bytes.set padded ((target * flen) + j) (Char.chr !acc)
    done
  done;
  Bytes.sub_string padded 0 data_len
