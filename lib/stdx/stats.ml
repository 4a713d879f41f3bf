type t = {
  mutable values : float list;
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable min_v : float;
  mutable max_v : float;
  (* sorted snapshot of [values], rebuilt lazily by [percentile] and
     invalidated by [add] — repeated percentile queries between
     additions (summary, registry snapshots) cost one sort total *)
  mutable sorted : float array option;
}

let create () =
  { values = []; n = 0; sum = 0.0; sum_sq = 0.0;
    min_v = infinity; max_v = neg_infinity; sorted = None }

let add t x =
  t.values <- x :: t.values;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.sorted <- None

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let m = mean t in
    let var = (t.sum_sq /. float_of_int t.n) -. (m *. m) in
    let var = var *. float_of_int t.n /. float_of_int (t.n - 1) in
    if var <= 0.0 then 0.0 else sqrt var

let min_value t = if t.n = 0 then 0.0 else t.min_v
let max_value t = if t.n = 0 then 0.0 else t.max_v

let sorted_values t =
  match t.sorted with
  | Some arr -> arr
  | None ->
    let arr = Array.of_list t.values in
    Array.sort compare arr;
    t.sorted <- Some arr;
    arr

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let arr = sorted_values t in
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) - 1
    in
    let rank = max 0 (min (t.n - 1) rank) in
    arr.(rank)
  end

let summary t =
  Printf.sprintf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f"
    t.n (mean t) (percentile t 50.0) (percentile t 99.0) (max_value t)

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p99 : float;
  s_max : float;
}

let empty_summary =
  { s_count = 0; s_mean = 0.0; s_p50 = 0.0; s_p99 = 0.0; s_max = 0.0 }

let to_summary t =
  if t.n = 0 then empty_summary
  else
    { s_count = t.n;
      s_mean = mean t;
      s_p50 = percentile t 50.0;
      s_p99 = percentile t 99.0;
      s_max = max_value t }

let summary_to_json s =
  Json.Obj
    [ ("count", Json.Int s.s_count);
      ("mean", Json.Float s.s_mean);
      ("p50", Json.Float s.s_p50);
      ("p99", Json.Float s.s_p99);
      ("max", Json.Float s.s_max) ]

let fmt_summary ?(width = 8) ?(max_width = 0) s =
  if s.s_count = 0 then "(no samples)"
  else
    Printf.sprintf "n=%-6d mean=%-*.3f p50=%-*.3f p99=%-*.3f max=%-*.3f"
      s.s_count width s.s_mean width s.s_p50 width s.s_p99 max_width s.s_max

let linear_fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let fn = float_of_int n in
  let sx = List.fold_left (fun acc (x, _) -> acc +. x) 0.0 points in
  let sy = List.fold_left (fun acc (_, y) -> acc +. y) 0.0 points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 points in
  let denom = (fn *. sxx) -. (sx *. sx) in
  if denom = 0.0 then invalid_arg "Stats.linear_fit: degenerate x values";
  let b = ((fn *. sxy) -. (sx *. sy)) /. denom in
  let a = (sy -. (b *. sx)) /. fn in
  (a, b)

let growth_exponent points =
  let logs =
    List.filter_map
      (fun (x, y) ->
        if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
      points
  in
  let _, b = linear_fit logs in
  b
