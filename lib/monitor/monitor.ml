type probe_kind = Gauge | Counter

(* Every series shares the owner's time ring, so retained index [i]
   (0 = oldest) lives at [(start + i) mod capacity] in every array —
   one bookkeeping pass per tick keeps all exports row-aligned. *)
type series = {
  s_name : string;
  s_label : string; (* "gauge" | "counter" | "rate" | "latency" *)
  s_values : float array;
}

type probe = {
  p_name : string;
  p_kind : probe_kind;
  p_read : unit -> float;
  p_series : series;
  p_rate : series option; (* counters only *)
}

type slo =
  | Min_rate of { series : string; min_per_unit : float; after : float }
  | Max_p99 of { max_units : float; after : float }
  | Max_stall of { series : string; max_gap : float }
  | Max_slope of { series : string; max_per_unit : float; after : float }

type health = {
  h_name : string;
  h_ok : bool;
  h_value : float;
  h_threshold : float;
}

type check = {
  c_name : string;
  c_slo : slo;
  c_threshold : float;
  mutable c_ok : bool;
  mutable c_value : float;
}

type t = {
  capacity : int;
  m_interval : float;
  m_window : float;
  times : float array;
  mutable start : int;
  mutable len : int;
  mutable total : int;
  mutable probes : probe list; (* reverse registration order *)
  mutable series : series list; (* reverse registration order *)
  mutable checks : check list; (* reverse declaration order *)
  mutable tracer : Trace.t option;
  mutable ever_unhealthy : bool;
  (* latency observations inside the sliding window, (time, latency),
     time-sorted because virtual time is monotone *)
  lat_obs : (float * float) Queue.t;
  mutable lat_p50 : series option;
  mutable lat_p99 : series option;
}

let create ?(capacity = 4096) ?(interval = 1.0) ?(window = 10.0) () =
  if capacity <= 0 then invalid_arg "Monitor.create: capacity must be positive";
  if interval <= 0.0 then invalid_arg "Monitor.create: interval must be positive";
  if window <= 0.0 then invalid_arg "Monitor.create: window must be positive";
  { capacity;
    m_interval = interval;
    m_window = window;
    times = Array.make capacity 0.0;
    start = 0;
    len = 0;
    total = 0;
    probes = [];
    series = [];
    checks = [];
    tracer = None;
    ever_unhealthy = false;
    lat_obs = Queue.create ();
    lat_p50 = None;
    lat_p99 = None }

let interval t = t.m_interval

let window t = t.m_window

let set_trace t tr = t.tracer <- Some tr

let samples t = t.len

let total_samples t = t.total

let find_series t name =
  List.find_opt (fun s -> s.s_name = name) t.series

let new_series t ~name ~label =
  if find_series t name <> None then
    invalid_arg (Printf.sprintf "Monitor: duplicate series %S" name);
  let s = { s_name = name; s_label = label; s_values = Array.make t.capacity 0.0 } in
  t.series <- s :: t.series;
  s

let add_probe t ~name ~kind read =
  if t.total > 0 then
    invalid_arg "Monitor.add_probe: probes must be registered before sampling";
  let label = match kind with Gauge -> "gauge" | Counter -> "counter" in
  let s = new_series t ~name ~label in
  let r =
    match kind with
    | Gauge -> None
    | Counter -> Some (new_series t ~name:(name ^ "/rate") ~label:"rate")
  in
  t.probes <- { p_name = name; p_kind = kind; p_read = read; p_series = s; p_rate = r }
              :: t.probes

let series_names t =
  List.rev_map (fun s -> s.s_name) t.series

(* retained index (0 = oldest) -> array slot *)
let slot t i = (t.start + i) mod t.capacity

let get_time t i = t.times.(slot t i)

let get s t i = s.s_values.(slot t i)

let push_time t now =
  if t.len < t.capacity then begin
    t.times.(slot t t.len) <- now;
    t.len <- t.len + 1
  end
  else begin
    t.times.(t.start) <- now;
    t.start <- (t.start + 1) mod t.capacity
  end;
  t.total <- t.total + 1

(* write this tick's value for [s] (after push_time) *)
let put t s v = s.s_values.(slot t (t.len - 1)) <- v

let current t name =
  match find_series t name with
  | Some s when t.len > 0 -> get s t (t.len - 1)
  | _ -> 0.0

let rate t name =
  match find_series t name with
  | Some s when t.len >= 2 ->
    let last = t.len - 1 in
    let now = get_time t last in
    (* newest tick at least [window] old; oldest retained as fallback *)
    let j = ref 0 in
    (try
       for i = last - 1 downto 0 do
         if get_time t i <= now -. t.m_window then begin
           j := i;
           raise Exit
         end
       done
     with Exit -> ());
    let dt = now -. get_time t !j in
    if dt <= 0.0 then 0.0 else (get s t last -. get s t !j) /. dt
  | _ -> 0.0

let window_points t s =
  let last = t.len - 1 in
  let now = get_time t last in
  let acc = ref [] in
  for i = last downto 0 do
    let ti = get_time t i in
    if ti >= now -. t.m_window then acc := (ti, get s t i) :: !acc
  done;
  !acc

let slope t name =
  match find_series t name with
  | Some s when t.len >= 2 -> (
    match window_points t s with
    | _ :: _ :: _ as pts ->
      let _, b = Stdx.Stats.linear_fit pts in
      b
    | _ -> 0.0)
  | _ -> 0.0

let stall_gap t name =
  match find_series t name with
  | Some s when t.len >= 2 ->
    let last = t.len - 1 in
    let max_gap = ref 0.0 in
    let last_increase = ref (get_time t 0) in
    for i = 1 to last do
      if get s t i > get s t (i - 1) then begin
        let gap = get_time t i -. !last_increase in
        if gap > !max_gap then max_gap := gap;
        last_increase := get_time t i
      end
    done;
    (* the still-open gap at the tail *)
    let tail = get_time t last -. !last_increase in
    if tail > !max_gap then max_gap := tail;
    !max_gap
  | _ -> 0.0

let observe_latency t ~now lat =
  Queue.add (now, lat) t.lat_obs;
  while
    (not (Queue.is_empty t.lat_obs))
    && fst (Queue.peek t.lat_obs) < now -. t.m_window
  do
    ignore (Queue.pop t.lat_obs)
  done

let latency_percentile t p =
  if Queue.is_empty t.lat_obs then 0.0
  else begin
    let st = Stdx.Stats.create () in
    Queue.iter (fun (_, lat) -> Stdx.Stats.add st lat) t.lat_obs;
    Stdx.Stats.percentile st p
  end

(* ---- SLO health checks ---- *)

let default_name = function
  | Min_rate { series; _ } -> Printf.sprintf "min-rate(%s)" series
  | Max_p99 _ -> "max-p99"
  | Max_stall { series; _ } -> Printf.sprintf "max-stall(%s)" series
  | Max_slope { series; _ } -> Printf.sprintf "max-slope(%s)" series

let threshold_of = function
  | Min_rate { min_per_unit; _ } -> min_per_unit
  | Max_p99 { max_units; _ } -> max_units
  | Max_stall { max_gap; _ } -> max_gap
  | Max_slope { max_per_unit; _ } -> max_per_unit

let add_slo t ?name slo =
  let name = match name with Some n -> n | None -> default_name slo in
  if List.exists (fun c -> c.c_name = name) t.checks then
    invalid_arg (Printf.sprintf "Monitor.add_slo: duplicate check %S" name);
  t.checks <-
    { c_name = name; c_slo = slo; c_threshold = threshold_of slo;
      c_ok = true; c_value = 0.0 }
    :: t.checks

let eval_check t now c =
  match c.c_slo with
  | Min_rate { series; min_per_unit; after } ->
    let v = rate t series in
    (v, now < after || v >= min_per_unit)
  | Max_p99 { max_units; after } ->
    let v = latency_percentile t 99.0 in
    (v, now < after || v <= max_units)
  | Max_stall { series; max_gap } ->
    let v = stall_gap t series in
    (v, v <= max_gap)
  | Max_slope { series; max_per_unit; after } ->
    let v = slope t series in
    (v, now < after || v <= max_per_unit)

let health t =
  List.rev_map
    (fun c ->
      { h_name = c.c_name; h_ok = c.c_ok; h_value = c.c_value;
        h_threshold = c.c_threshold })
    t.checks

let healthy t = List.for_all (fun c -> c.c_ok) t.checks

let ever_unhealthy t = t.ever_unhealthy

let verdict t =
  let failing = List.rev (List.filter (fun c -> not c.c_ok) t.checks) in
  match failing with
  | [] ->
    if t.ever_unhealthy then "healthy (recovered from earlier failures)"
    else "healthy"
  | cs ->
    "FAILING: " ^ String.concat ", " (List.map (fun c -> c.c_name) cs)

(* ---- sampling ---- *)

let sample t ~now =
  if t.total = 0 then begin
    (* latency series register lazily so they land after every probe
       series in registration order *)
    t.lat_p50 <- Some (new_series t ~name:"latency.p50" ~label:"latency");
    t.lat_p99 <- Some (new_series t ~name:"latency.p99" ~label:"latency")
  end;
  push_time t now;
  List.iter
    (fun p ->
      put t p.p_series (p.p_read ());
      match p.p_rate with
      | Some r -> put t r (rate t p.p_name)
      | None -> ())
    (List.rev t.probes);
  (* evict observations that slid out of the window even if none arrived
     since the last tick *)
  while
    (not (Queue.is_empty t.lat_obs))
    && fst (Queue.peek t.lat_obs) < now -. t.m_window
  do
    ignore (Queue.pop t.lat_obs)
  done;
  (match t.lat_p50 with Some s -> put t s (latency_percentile t 50.0) | None -> ());
  (match t.lat_p99 with Some s -> put t s (latency_percentile t 99.0) | None -> ());
  List.iter
    (fun c ->
      let value, ok = eval_check t now c in
      let changed = ok <> c.c_ok in
      c.c_value <- value;
      c.c_ok <- ok;
      if not ok then t.ever_unhealthy <- true;
      if changed then
        match t.tracer with
        | Some tr ->
          Trace.emit tr
            (Trace.Health
               { check = c.c_name; ok; value; threshold = c.c_threshold })
        | None -> ())
    (List.rev t.checks)

(* ---- export ---- *)

let to_csv t =
  let buf = Buffer.create 4096 in
  let series = List.rev t.series in
  Buffer.add_string buf "time";
  List.iter (fun s -> Buffer.add_char buf ','; Buffer.add_string buf s.s_name) series;
  Buffer.add_char buf '\n';
  for i = 0 to t.len - 1 do
    Buffer.add_string buf (Printf.sprintf "%.6g" (get_time t i));
    List.iter
      (fun s ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "%.6g" (get s t i)))
      series;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let to_json t =
  let open Stdx.Json in
  let series_json =
    List.rev_map
      (fun s ->
        let points = ref [] in
        for i = t.len - 1 downto 0 do
          points := List [ Float (get_time t i); Float (get s t i) ] :: !points
        done;
        (s.s_name, Obj [ ("kind", String s.s_label); ("points", List !points) ]))
      t.series
  in
  let health_json =
    List.map
      (fun h ->
        Obj
          [ ("check", String h.h_name);
            ("ok", Bool h.h_ok);
            ("value", Float h.h_value);
            ("threshold", Float h.h_threshold) ])
      (health t)
  in
  Obj
    [ ("interval", Float t.m_interval);
      ("window", Float t.m_window);
      ("samples", Int t.total);
      ("retained", Int t.len);
      ("series", Obj series_json);
      ("health", List health_json);
      ("healthy", Bool (healthy t));
      ("ever_unhealthy", Bool t.ever_unhealthy);
      ("verdict", String (verdict t)) ]

let spark_levels = " .:-=+*#%@"

let sparkline t s width =
  let count = min width t.len in
  if count = 0 then ""
  else begin
    let first = t.len - count in
    let lo = ref infinity and hi = ref neg_infinity in
    for i = first to t.len - 1 do
      let v = get s t i in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done;
    let levels = String.length spark_levels in
    String.init count (fun k ->
        let v = get s t (first + k) in
        if !hi <= !lo then '-'
        else
          let norm = (v -. !lo) /. (!hi -. !lo) in
          spark_levels.[min (levels - 1) (int_of_float (norm *. float_of_int levels))])
  end

(* dashboard sparklines span the newest this many ticks *)
let spark_width = 48

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "monitor: %d samples (%d retained) @ %gu interval, %gu window\n"
       t.total t.len t.m_interval t.m_window);
  let series = List.rev t.series in
  let name_w =
    List.fold_left (fun w s -> max w (String.length s.s_name)) 8 series
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-*s %12s %12s  %s\n" name_w "series" "current"
       "rate/slope" "spark");
  List.iter
    (fun s ->
      let deriv =
        match s.s_label with
        | "gauge" | "latency" -> slope t s.s_name
        | _ -> rate t s.s_name
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s %12.6g %12.6g  %s\n" name_w s.s_name
           (current t s.s_name) deriv (sparkline t s spark_width)))
    series;
  Buffer.add_string buf
    (Printf.sprintf "latency (window): p50 %.3f  p99 %.3f  (%d observations)\n"
       (latency_percentile t 50.0)
       (latency_percentile t 99.0)
       (Queue.length t.lat_obs));
  (match health t with
  | [] -> ()
  | hs ->
    Buffer.add_string buf "health:\n";
    List.iter
      (fun h ->
        Buffer.add_string buf
          (Printf.sprintf "  [%s] %s: %.6g vs %.6g\n"
             (if h.h_ok then " ok " else "FAIL")
             h.h_name h.h_value h.h_threshold))
      hs);
  Buffer.add_string buf (Printf.sprintf "verdict: %s\n" (verdict t));
  Buffer.contents buf
