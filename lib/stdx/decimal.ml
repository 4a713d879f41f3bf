(* Digits are taken from [-|v|], which exists for every int; [x mod 10]
   of a nonpositive [x] is in [-9, 0]. *)

let rec digits x n = if x > -10 then n else digits (x / 10) (n + 1)

let length v = if v < 0 then digits v 2 else digits (-v) 1

(* the digits of [x <= 0], right to left from [i] *)
let rec put b x i =
  Bytes.set b i (Char.unsafe_chr (48 - (x mod 10)));
  if x <= -10 then put b (x / 10) (i - 1)

let write b ~pos v =
  let len = length v in
  if pos < 0 || pos > Bytes.length b - len then
    invalid_arg "Decimal.write: no room";
  if v < 0 then begin
    Bytes.set b pos '-';
    put b v (pos + len - 1)
  end
  else put b (-v) (pos + len - 1);
  pos + len
