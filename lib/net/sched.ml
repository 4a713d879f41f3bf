(* A decision reads [now] from and writes [delay] to the caller's
   float-only record, whose fields are stored unboxed, so no float
   crosses the indirect call boxed and nothing is allocated per
   message. *)
type io = { mutable now : float; mutable delay : float }

type t = {
  name : string;
  decide : io -> src:int -> dst:int -> kind:string -> unit;
}

let synchronous () =
  { name = "synchronous";
    decide = (fun io ~src:_ ~dst:_ ~kind:_ -> io.delay <- 1.0) }

let uniform_random ~rng =
  { name = "uniform-random";
    decide =
      (fun io ~src:_ ~dst:_ ~kind:_ ->
        (* (0, 1]: avoid 0 so causality chains keep strictly increasing time *)
        io.delay <- 1.0 -. Stdx.Rng.float rng 0.999) }

let skewed_random ~rng =
  { name = "skewed-random";
    decide =
      (fun io ~src:_ ~dst:_ ~kind:_ ->
        let d = Stdx.Rng.exponential rng ~mean:0.3 in
        io.delay <- Float.max 0.001 (Float.min 1.0 d)) }

(* bimodal: this share of messages is slowed by this factor *)
let slow_fraction = 0.25
let slow_factor = 5.0

let bimodal ~rng =
  { name = "bimodal";
    decide =
      (fun io ~src:_ ~dst:_ ~kind:_ ->
        let base = 1.0 -. Stdx.Rng.float rng 0.999 in
        io.delay <-
          (if Stdx.Rng.float rng 1.0 < slow_fraction then base *. slow_factor
           else base)) }

let heavy_tailed ~rng =
  { name = "heavy-tailed";
    decide =
      (fun io ~src:_ ~dst:_ ~kind:_ ->
        io.delay <- Float.max 0.001 (Stdx.Rng.exponential rng ~mean:1.0)) }

let mobile_sluggish ~inner ~n ~f ~period ~factor =
  { name = Printf.sprintf "%s+mobile-sluggish(f=%d)" inner.name f;
    decide =
      (fun io ~src ~dst ~kind ->
        let epoch = int_of_float (Float.max 0.0 io.now /. period) in
        inner.decide io ~src ~dst ~kind;
        if (((src - (epoch * f)) mod n) + n) mod n < f then
          io.delay <- io.delay *. factor) }

let delay_process ~inner ~victim ~factor =
  { name = Printf.sprintf "%s+delay(p%d,x%.0f)" inner.name victim factor;
    decide =
      (fun io ~src ~dst ~kind ->
        inner.decide io ~src ~dst ~kind;
        if src = victim then io.delay <- io.delay *. factor) }

let delay_matching ~inner ~pred ~factor =
  { name = inner.name ^ "+targeted";
    decide =
      (fun io ~src ~dst ~kind ->
        inner.decide io ~src ~dst ~kind;
        if pred ~src ~dst ~kind then io.delay <- io.delay *. factor) }

let rush_process ~inner ~favored =
  { name = Printf.sprintf "%s+rush(p%d)" inner.name favored;
    decide =
      (fun io ~src ~dst ~kind ->
        if src = favored then io.delay <- 0.001
        else inner.decide io ~src ~dst ~kind) }

let partition ~inner ~left ~factor =
  { name = Printf.sprintf "%s+partition(x%.0f)" inner.name factor;
    decide =
      (fun io ~src ~dst ~kind ->
        inner.decide io ~src ~dst ~kind;
        if left src <> left dst then io.delay <- io.delay *. factor) }

(* does [kind] start with [prefix] from byte [i] on? Top-level and
   first-order, so the storm's test allocates nothing per message *)
let rec prefix_from prefix kind i =
  i >= String.length prefix
  || (prefix.[i] = kind.[i] && prefix_from prefix kind (i + 1))

let rec starts_with_any prefixes kind =
  match prefixes with
  | [] -> false
  | prefix :: rest ->
    (String.length kind >= String.length prefix && prefix_from prefix kind 0)
    || starts_with_any rest kind

let kind_storm ~inner ~kinds ~factor =
  { name = Printf.sprintf "%s+storm[%s](x%.0f)" inner.name
      (String.concat "," kinds) factor;
    decide =
      (fun io ~src ~dst ~kind ->
        inner.decide io ~src ~dst ~kind;
        if starts_with_any kinds kind then io.delay <- io.delay *. factor) }

let with_window ~inner ~from_time ~until_time ~during =
  { name = Printf.sprintf "%s+window[%s]" inner.name during.name;
    decide =
      (fun io ~src ~dst ~kind ->
        if io.now >= from_time && io.now < until_time then
          during.decide io ~src ~dst ~kind
        else inner.decide io ~src ~dst ~kind) }
