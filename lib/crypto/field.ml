let p = 2147483647 (* 2^31 - 1 *)

let of_int x =
  let r = x mod p in
  if r < 0 then r + p else r

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b = if a >= b then a - b else a - b + p

let mul a b = a * b mod p

let neg a = if a = 0 then 0 else p - a

let pow x k =
  if k < 0 then invalid_arg "Field.pow: negative exponent";
  let rec go base k acc =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc base else acc in
      go (mul base base) (k lsr 1) acc
    end
  in
  go (of_int x) k 1

let inv a =
  if a mod p = 0 then raise Division_by_zero;
  pow a (p - 2)

let div a b = mul a (inv b)

let eval_poly coeffs x =
  let acc = ref 0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := add (mul !acc x) coeffs.(i)
  done;
  !acc

let lagrange_at_zero points =
  let xs = List.map fst points in
  let distinct =
    List.length (List.sort_uniq compare xs) = List.length xs
  in
  if (not distinct) || List.exists (fun x -> of_int x = 0) xs then
    invalid_arg "Field.lagrange_at_zero: x-coordinates must be distinct and non-zero";
  List.fold_left
    (fun acc (xi, yi) ->
      let coeff =
        List.fold_left
          (fun c (xj, _) ->
            if xj = xi then c
            else mul c (div (neg (of_int xj)) (sub (of_int xi) (of_int xj))))
          1 points
      in
      add acc (mul (of_int yi) coeff))
    0 points

let interpolate_at points ~x =
  let xs = List.map fst points in
  if List.length (List.sort_uniq compare xs) <> List.length xs then
    invalid_arg "Field.interpolate_at: duplicate x-coordinates";
  let x = of_int x in
  List.fold_left
    (fun acc (xi, yi) ->
      let coeff =
        List.fold_left
          (fun c (xj, _) ->
            if xj = xi then c
            else mul c (div (sub x (of_int xj)) (sub (of_int xi) (of_int xj))))
          1 points
      in
      add acc (mul (of_int yi) coeff))
    0 points

(* fold the digest into 60 bits then reduce; bias is ~2^-29, negligible *)
let rec fold_digest digest i acc =
  if i >= String.length digest then acc
  else
    fold_digest digest (i + 1)
      (((acc lsl 8) lor Char.code (String.unsafe_get digest i))
      land 0xFFFFFFFFFFFFFFF)

let element_of_digest digest = of_int (fold_digest digest 0 0)
