type t = {
  n : int;
  f : int;
  keys : int array; (* keys.(i) = P(i + 1); dealer state, see .mli note *)
  scratch : Bytes.t; (* the decimals of the message being hashed *)
}

type share = { holder : int; instance : int; value : int }

let setup ~rng ~n ~f =
  if f < 0 || n < f + 1 then
    invalid_arg "Threshold_coin.setup: need 0 <= f and n >= f + 1";
  let coeffs = Array.init (f + 1) (fun _ -> Stdx.Rng.int rng Field.p) in
  { n;
    f;
    keys = Array.init n (fun i -> Field.eval_poly coeffs (i + 1));
    scratch = Bytes.create 48 }

let of_keys ~n ~f ~keys =
  if Array.length keys <> n then
    invalid_arg "Threshold_coin.of_keys: need one key per process";
  if f < 0 || n < f + 1 then
    invalid_arg "Threshold_coin.of_keys: need 0 <= f and n >= f + 1";
  { n; f; keys = Array.map Field.of_int keys; scratch = Bytes.create 48 }

let key_of t ~holder =
  if holder < 0 || holder >= t.n then
    invalid_arg "Threshold_coin.key_of: bad holder";
  t.keys.(holder)

let n t = t.n
let threshold t = t.f + 1

(* Writes [Printf.sprintf "%d" v] into [buf] to end just before [stop]
   and returns where it starts. *)
let put_decimal buf ~stop v =
  let start = stop - Stdx.Decimal.length v in
  ignore (Stdx.Decimal.write buf ~pos:start v : int);
  start

(* the digests of "coin-instance:%d" and "coin-out:%d:%d", formatted at
   the end of the context's scratch buffer *)
let instance_digest t instance =
  let stop = Bytes.length t.scratch in
  let pos = put_decimal t.scratch ~stop instance in
  Sha256.digest_sub ~prefix:"coin-instance:" t.scratch ~pos ~len:(stop - pos)

let output_digest t ~secret ~instance =
  let stop = Bytes.length t.scratch in
  let colon = put_decimal t.scratch ~stop instance - 1 in
  Bytes.set t.scratch colon ':';
  let pos = put_decimal t.scratch ~stop:colon secret in
  Sha256.digest_sub ~prefix:"coin-out:" t.scratch ~pos ~len:(stop - pos)

let hash_instance t instance =
  Field.element_of_digest (instance_digest t instance)

let make_share t ~holder ~instance =
  if holder < 0 || holder >= t.n then
    invalid_arg "Threshold_coin.make_share: bad holder";
  { holder;
    instance;
    value = Field.mul t.keys.(holder) (hash_instance t instance) }

(* [h] is [hash_instance t share.instance], passed in so a caller checking
   many shares of one instance hashes it once *)
let valid_share t ~h share =
  share.holder >= 0 && share.holder < t.n
  && share.value = Field.mul t.keys.(share.holder) h

let verify_share t share =
  valid_share t ~h:(hash_instance t share.instance) share

let combine t ~instance shares =
  let h = hash_instance t instance in
  let valid =
    List.filter (fun s -> s.instance = instance && valid_share t ~h s) shares
  in
  let dedup = List.sort_uniq (fun a b -> compare a.holder b.holder) valid in
  if List.length dedup < t.f + 1 then None
  else begin
    let chosen = List.filteri (fun i _ -> i <= t.f) dedup in
    let points = List.map (fun s -> (s.holder + 1, s.value)) chosen in
    let secret_value = Field.lagrange_at_zero points in
    let digest = output_digest t ~secret:secret_value ~instance in
    Some (Field.element_of_digest digest mod t.n)
  end

let share_size_bits = 96 (* holder id + instance + 31-bit field element *)
