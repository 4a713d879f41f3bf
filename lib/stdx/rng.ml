(* The 64-bit SplitMix64 state is held as two 32-bit halves in
   immediate ints, so a draw reads, advances and writes it back in
   registers: a mutable [int64] field would allocate a box per draw.
   (An 8-byte [Bytes] state, read with [Bytes.get_int64_le], also
   allocates nothing per draw, but each [create]/[split] is then a C
   allocation, which made [Runner.build] measurably slower.) *)
type t = { mutable hi : int; mutable lo : int }

(* SplitMix64 constants; see Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] set t state =
  t.hi <- Int64.to_int (Int64.shift_right_logical state 32);
  t.lo <- Int64.to_int (Int64.logand state 0xFFFF_FFFFL)

let of_state state =
  let t = { hi = 0; lo = 0 } in
  set t state;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] next t =
  let state = Int64.(logor (shift_left (of_int t.hi) 32) (of_int t.lo)) in
  let state = Int64.add state golden_gamma in
  set t state;
  mix state

let split t =
  let seed = next t in
  (* mix with a different finalizer so parent/child streams differ even for
     pathological seeds *)
  of_state (Int64.mul seed 0xFF51AFD7ED558CCDL)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next t) mask) in
  v mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 random bits into the mantissa *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t ~k ~n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  Array.to_list (Array.sub a 0 k)

let[@inline] exponential t ~mean =
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of (0,1]";
  let rec loop k = if float t 1.0 < p then k else loop (k + 1) in
  loop 1
