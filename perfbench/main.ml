(* The repository benchmark; README.md in this directory explains the
   workloads and metrics.

     main.exe --workload W --seed S --seconds T --trace 0|1
         one measured run: repeats of W for about T seconds; prints every
         end-to-end metric (--trace 0) or every per-layer metric
         (--trace 1), and as its last line one JSON object
     main.exe suite [--rounds R] [--seed S] [--layers] --out FILE
         R interleaved rounds of every workload, written to FILE
     main.exe compare A.json B.json
         one verdict per (metric, workload) of two suite files, judged by
         the bounds in BENCHMARK.json
     main.exe smoke [--spec BENCHMARK.json]
         one short run of every workload per pass, checked against the spec
     main.exe child VARIANT WORKLOAD SEED
         one repeat in this process; the commands above spawn these *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* ---- statistics ---- *)

let median = Rep.median

(* Python's statistics.quantiles(xs, n=4) with its default "exclusive"
   method, so the spreads printed here are the ones the bounds are
   judged by *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* ---- JSON access ---- *)

let member name j =
  match Stdx.Json.member name j with
  | Some v -> v
  | None -> failwith ("missing field " ^ name)

let num name j =
  match Stdx.Json.to_float_opt (member name j) with
  | Some f -> f
  | None -> failwith ("field " ^ name ^ " is not a number")

let str name j =
  match member name j with
  | Stdx.Json.String s -> s
  | _ -> failwith ("field " ^ name ^ " is not a string")

let obj = function
  | Stdx.Json.Obj kvs -> kvs
  | _ -> failwith "expected an object"

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> fail "%s" e
  | s -> (
    match Stdx.Json.of_string s with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e)

(* ---- repeats, each in its own process ---- *)

(* the repeat now running: a SIGTERM or SIGINT that stops this process
   stops it too, and waits for it to end *)
let running = ref None

let () =
  let stop _ =
    Option.iter
      (fun ic ->
        try
          Unix.kill (Unix.process_in_pid ic) Sys.sigterm;
          ignore (Unix.close_process_in ic)
        with _ -> ())
      !running;
    exit 2
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle stop))
    [ Sys.sigterm; Sys.sigint ]

(* run this executable with [args]; its last output line, parsed *)
let spawn args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  running := Some ic;
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  running := None;
  match status with
  | Unix.WEXITED 0 -> (
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | last :: _ -> Stdx.Json.of_string last
    | [] -> Error "no output")
  | _ -> Error "exited with an error"

(* a repeat's duration as seen from here, process start to exit, is
   what decides whether another one fits in the run *)
let repeat variant (w : Spec.workload) seed =
  let args =
    [ "child"; Rep.variant_name variant; w.name; string_of_int seed ]
  in
  let t0 = Unix.gettimeofday () in
  match spawn args with
  | Ok j -> (j, Unix.gettimeofday () -. t0)
  | Error e -> fail "%s: %s" (String.concat " " args) e

(* Each run cycles through [inputs] seeds derived from --seed. The
   protocol, allocation and heap metrics come from the first repeat of
   each input, so they are a pure function of the seed. An input's CPU
   time sums, over the slices of its run (Rep.timed_run), the fastest of
   its repeats; the inputs are pooled. Set-up time is the median over
   every repeat. Every input runs at least [min_rounds] times, so each
   slice has a repeat to fall back on. *)
let inputs = 3

let min_rounds = 2

let input_seed seed k = seed + (k * 7919)

(* BENCHMARK.json's run_seconds *)
let default_seconds = 30

(* CPU seconds of one input's run: each slice at its fastest repeat *)
let fastest_slices reps =
  let slices j =
    List.filter_map Stdx.Json.to_float_opt
      (Option.value ~default:[] (Stdx.Json.to_list_opt (member "slices_s" j)))
  in
  match List.map slices reps with
  | [] -> nan
  | first :: rest ->
    List.fold_left (List.map2 Float.min) first rest
    |> List.fold_left ( +. ) 0.0

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

let print_metric ?(note = "") (name, unit, value) =
  Printf.printf "  %-32s %14.6g %-14s%s\n" name value unit note

(* every repeat passed the order checks, and the repeats of one input
   reproduced its delivery log and bit count exactly *)
let check_reps reps =
  List.for_all (fun (_, j) -> member "error" j = Stdx.Json.Null) reps
  && List.for_all
       (fun (k, j) ->
         let first = List.assoc k reps in
         str "fingerprint" j = str "fingerprint" first
         && num "honest_bits" j = num "honest_bits" first)
       reps

let behaviour (w : Spec.workload) ~seed first =
  let sha = str "fingerprint" first in
  let bits = int_of_float (num "honest_bits" first) in
  let verdict =
    if seed <> Spec.pinned_seed then
      Printf.sprintf "not pinned for seed %d" seed
    else
      match List.assoc_opt w.name Spec.pins with
      | Some (s, b) when s = sha && b = bits -> "identical"
      | Some _ -> "CHANGED"
      | None -> "not pinned"
  in
  Printf.printf "  behaviour: %s (observer log sha256 %s, honest_bits %d)\n"
    verdict sha bits

let end_to_end (w : Spec.workload) ~seed ~seconds =
  let start = Unix.gettimeofday () in
  let reps = ref [] and took = ref [] and k = ref 0 in
  while
    !k < min_rounds * inputs
    || Unix.gettimeofday () -. start +. median !took <= seconds
  do
    let j, dt = repeat Rep.Plain w (input_seed seed (!k mod inputs)) in
    reps := (!k mod inputs, j) :: !reps;
    took := dt :: !took;
    incr k
  done;
  let reps = List.rev !reps in
  let firsts = List.filteri (fun i _ -> i < inputs) reps |> List.map snd in
  let sum name = List.fold_left (fun acc j -> acc +. num name j) 0.0 firsts in
  let median_of name = median (List.map (num name) firsts) in
  let delivered = sum "delivered" in
  let cpu_of k =
    fastest_slices
      (List.filter_map (fun (k', j) -> if k' = k then Some j else None) reps)
  in
  let cpus = List.init inputs cpu_of in
  let setup = List.map (fun (_, j) -> num "setup_s" j) reps in
  let value = function
    | "cpu_us_per_vertex" ->
      List.fold_left ( +. ) 0.0 cpus *. 1e6 /. delivered
    | "alloc_kb_per_vertex" -> sum "alloc_bytes" /. 1024.0 /. delivered
    | "peak_heap_mb" -> median_of "heap_bytes" /. 1e6
    | "setup_s" -> median setup
    | "latency_p50_tu" -> median_of "latency_p50"
    | "latency_p99_tu" -> median_of "latency_p99"
    | "waves_per_commit" -> sum "decided_wave" /. sum "direct_commits"
    | "honest_bits_per_vertex" -> sum "honest_bits" /. delivered
    | "ops_per_tu" -> sum "ordered_ops" /. (float_of_int inputs *. w.horizon)
    | m -> failwith ("no definition for " ^ m)
  in
  let metrics = List.map (fun (m, u) -> (m, u, value m)) Spec.end_to_end in
  let correct = check_reps reps in
  let attempted = int_of_float (sum "attempted") in
  let failed = int_of_float (sum "failed") in
  Printf.printf "workload %s, seed %d: %d repeats over %d inputs in %.1f s\n"
    w.name seed (List.length reps) inputs
    (Unix.gettimeofday () -. start);
  let spread xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "median of %d repeats, quartiles %.6g..%.6g"
      (List.length xs) q1 q3
  in
  List.iter
    (fun ((m, _, _) as row) ->
      let note =
        match m with
        | "cpu_us_per_vertex" ->
          Printf.sprintf "per input, fastest repeat per slice: %s us/vertex"
            (String.concat ", "
               (List.map2
                  (fun c j ->
                    Printf.sprintf "%.6g" (c *. 1e6 /. num "delivered" j))
                  cpus firsts))
        | "setup_s" -> spread setup
        | "latency_p50_tu" | "latency_p99_tu" ->
          Printf.sprintf "median over %d inputs, %.0f samples" inputs
            (sum "latency_n")
        | _ -> Printf.sprintf "%d inputs" inputs
      in
      print_metric ~note row)
    metrics;
  Printf.printf "  operations: %d attempted, %d failed (ratio %.4f)\n" attempted
    failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  Printf.printf "  output checks: %s\n"
    (if correct then "total order, integrity and reproducibility OK"
     else "FAILED");
  behaviour w ~seed (List.hd firsts);
  { correct; attempted; failed; metrics }

(* One profiled repeat gives the span table, the counts and the replays;
   one traced repeat the observability costs. The rest of the run
   alternates untraced and traced repeats for the overhead ratios. *)
let per_layer (w : Spec.workload) ~seed ~seconds =
  let start = Unix.gettimeofday () in
  let cpus = Hashtbl.create 4 and took = Hashtbl.create 4 in
  let add tbl v x =
    let before = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
    Hashtbl.replace tbl v (x :: before)
  in
  let run variant =
    let j, dt = repeat variant w seed in
    add cpus variant (num "cpu_s" j);
    add took variant dt;
    j
  in
  let plain = run Rep.Plain in
  let profiled = run Rep.Profiled in
  let traced = run Rep.Traced in
  let cycle = [ Rep.Plain; Rep.Traced ] in
  let cycle_s () =
    List.fold_left (fun acc v -> acc +. median (Hashtbl.find took v)) 0.0 cycle
  in
  while Unix.gettimeofday () -. start +. cycle_s () <= seconds do
    List.iter (fun v -> ignore (run v)) cycle
  done;
  let cpu v = median (Hashtbl.find cpus v) in
  let layers j =
    List.map
      (fun (k, v) -> (k, Option.value ~default:nan (Stdx.Json.to_float_opt v)))
      (obj (member "layers" j))
  in
  let measured =
    layers profiled @ layers traced
    @ [ ("gc.minor", num "gc_minor" plain);
        ("gc.major", num "gc_major" plain);
        ("gc.promoted_mb", num "gc_promoted_bytes" plain /. 1e6);
        ("prof.overhead_ratio", num "cpu_s" profiled /. cpu Rep.Plain);
        ("obs.overhead_ratio", cpu Rep.Traced /. cpu Rep.Plain) ]
  in
  let metrics =
    List.map
      (fun (m, u) ->
        (m, u, Option.value ~default:nan (List.assoc_opt m measured)))
      Layers.metrics
  in
  Printf.printf
    "workload %s, seed %d, per-layer pass in %.1f s; CPU per run: untraced \
     %.3f s (%d), profiled %.3f s, traced %.3f s (%d)\n"
    w.name seed
    (Unix.gettimeofday () -. start)
    (cpu Rep.Plain)
    (List.length (Hashtbl.find cpus Rep.Plain))
    (num "cpu_s" profiled) (cpu Rep.Traced)
    (List.length (Hashtbl.find cpus Rep.Traced));
  List.iter print_metric metrics;
  { correct = member "error" plain = Stdx.Json.Null;
    attempted = int_of_float (num "attempted" plain);
    failed = int_of_float (num "failed" plain);
    metrics }

let result_line o =
  let open Stdx.Json in
  Obj
    [ ("correct", Bool o.correct);
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ( "metrics",
        Obj
          (List.map
             (fun (m, u, v) ->
               (m, Obj [ ("value", Float v); ("unit", String u) ]))
             o.metrics) ) ]

let workload name =
  match Spec.find name with
  | Some w -> w
  | None ->
    fail "unknown workload %S (have: %s)" name
      (String.concat ", "
         (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads))

let int_arg flag v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> fail "%s expects an integer, got %S" flag v

let run_one args =
  let wl = ref None and seed = ref Spec.pinned_seed in
  let seconds = ref default_seconds and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      wl := Some (workload v);
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := int_arg "--seconds" v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
    | a :: _ -> fail "unknown argument %S" a
  in
  parse args;
  let w = match !wl with Some w -> w | None -> fail "--workload is required" in
  let measure = if !trace then per_layer else end_to_end in
  let o = measure w ~seed:!seed ~seconds:(float_of_int !seconds) in
  if List.exists (fun (_, _, v) -> not (Float.is_finite v)) o.metrics then
    fail "a metric is not finite; see the table above";
  print_endline (Stdx.Json.to_string (result_line o))

(* ---- suite files ---- *)

let suite args =
  let rounds = ref 5 and seed = ref Spec.pinned_seed in
  let layers = ref false and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--rounds" :: v :: rest ->
      rounds := int_arg "--rounds" v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--layers" :: rest ->
      layers := true;
      parse rest
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | a :: _ -> fail "unknown argument %S" a
  in
  parse args;
  let out = match !out with Some f -> f | None -> fail "--out is required" in
  let seconds = float_of_int default_seconds in
  (* rounds are interleaved, so slow drift of the machine lands on every
     workload alike *)
  let runs = Hashtbl.create 8 in
  for round = 1 to !rounds do
    Printf.printf "== round %d of %d\n%!" round !rounds;
    List.iter
      (fun (w : Spec.workload) ->
        let o = end_to_end w ~seed:!seed ~seconds in
        let before = Option.value ~default:[] (Hashtbl.find_opt runs w.name) in
        Hashtbl.replace runs w.name (o :: before);
        print_newline ())
      Spec.workloads
  done;
  let open Stdx.Json in
  let per_workload (w : Spec.workload) =
    let os = List.rev (Hashtbl.find runs w.name) in
    let e2e (m, u) =
      let xs =
        List.map
          (fun o ->
            let _, _, v = List.find (fun (n, _, _) -> n = m) o.metrics in
            v)
          os
      in
      let q1, q3 = quartiles xs in
      ( m,
        Obj
          [ ("unit", String u);
            ("median", Float (median xs));
            ("q1", Float q1);
            ("q3", Float q3);
            ("samples", List (List.map (fun x -> Float x) xs)) ] )
    in
    let per_layer_json =
      if not !layers then []
      else begin
        let o = per_layer w ~seed:!seed ~seconds in
        print_newline ();
        [ ( "per_layer",
            Obj
              (List.map
                 (fun (m, u, v) ->
                   (m, Obj [ ("unit", String u); ("value", Float v) ]))
                 o.metrics) ) ]
      end
    in
    let total f = List.fold_left (fun a o -> a + f o) 0 os in
    ( w.name,
      Obj
        ([ ("correct", Bool (List.for_all (fun o -> o.correct) os));
           ("attempted", Int (total (fun o -> o.attempted)));
           ("failed", Int (total (fun o -> o.failed)));
           ("end_to_end", Obj (List.map e2e Spec.end_to_end)) ]
        @ per_layer_json) )
  in
  let json =
    Obj
      [ ("seed", Int !seed);
        ("seconds", Float seconds);
        ("rounds", Int !rounds);
        ("workloads", Obj (List.map per_workload Spec.workloads)) ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Stdx.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" out

(* ---- BENCHMARK.json ---- *)

type declared = {
  d_name : string;
  d_unit : string;
  d_lower : bool;  (** lower is better *)
  d_bound : float;  (** nan for per-layer metrics *)
}

let declared spec key =
  match Stdx.Json.to_list_opt (member key spec) with
  | None -> fail "%s is not a list" key
  | Some ms ->
    List.map
      (fun m ->
        { d_name = str "name" m;
          d_unit = str "unit" m;
          d_lower = str "better" m = "lower";
          d_bound =
            (match Stdx.Json.member "bound" m with
            | Some _ -> num "bound" m
            | None -> nan) })
      ms

(* ---- compare ---- *)

(* A metric is unresolved when either side's quartile spread is wider
   than its bound, unless every B round beats every A round. *)
let verdict d a b =
  let side s = (num "median" s, num "q1" s, num "q3" s) in
  let ma, q1a, q3a = side a and mb, q1b, q3b = side b in
  let samples s =
    List.filter_map Stdx.Json.to_float_opt
      (Option.value ~default:[] (Stdx.Json.to_list_opt (member "samples" s)))
  in
  let better x y = if d.d_lower then x < y else x > y in
  let spread = Float.max ((q3a -. q1a) /. ma) ((q3b -. q1b) /. mb) in
  let worse = (if d.d_lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let b_wins =
    List.for_all
      (fun xb -> List.for_all (fun xa -> better xb xa) (samples a))
      (samples b)
  in
  if spread > d.d_bound then if b_wins then "improved" else "unresolved"
  else if worse > d.d_bound then "regressed"
  else if worse < -.d.d_bound then "improved"
  else "unchanged"

(* the per-layer metrics that moved most between A and B on a workload:
   the layers behind a regression *)
let layer_moves wa wb =
  let layer w =
    match Stdx.Json.member "per_layer" w with
    | Some l -> List.map (fun (k, v) -> (k, num "value" v)) (obj l)
    | None -> []
  in
  let lb = layer wb in
  List.filter_map
    (fun (k, va) ->
      match List.assoc_opt k lb with
      | Some vb when va <> 0.0 -> Some (k, va, vb, (vb -. va) /. Float.abs va)
      | _ -> None)
    (layer wa)
  |> List.sort (fun (_, _, _, x) (_, _, _, y) ->
         Float.compare (Float.abs y) (Float.abs x))
  |> List.filteri (fun i _ -> i < 5)

let compare_files args =
  let a, b =
    match args with
    | [ a; b ] -> (read_json a, read_json b)
    | _ -> fail "usage: compare A.json B.json"
  in
  let metrics = declared (read_json "BENCHMARK.json") "end_to_end" in
  let regressed = ref 0 in
  Printf.printf "%-16s %-24s %12s %12s %8s  %s\n" "workload" "metric"
    "A median" "B median" "change" "verdict";
  List.iter
    (fun (name, wa) ->
      match Stdx.Json.member name (member "workloads" b) with
      | None -> Printf.printf "%-16s missing from B\n" name
      | Some wb ->
        List.iter
          (fun d ->
            let side w = member d.d_name (member "end_to_end" w) in
            let ma = num "median" (side wa) and mb = num "median" (side wb) in
            let v = verdict d (side wa) (side wb) in
            Printf.printf "%-16s %-24s %12.6g %12.6g %+7.2f%%  %s\n" name
              d.d_name ma mb
              (100.0 *. (mb -. ma) /. Float.abs ma)
              v;
            if v = "regressed" then begin
              incr regressed;
              List.iter
                (fun (k, va, vb, rel) ->
                  Printf.printf "%16s   layer %-32s %12.6g -> %-12.6g %+.1f%%\n"
                    "" k va vb (100.0 *. rel))
                (layer_moves wa wb)
            end)
          metrics)
    (obj (member "workloads" a));
  if !regressed > 0 then exit 1

(* ---- smoke ---- *)

let smoke args =
  let spec =
    match args with
    | [ "--spec"; f ] -> read_json f
    | [] -> read_json "BENCHMARK.json"
    | _ -> fail "usage: smoke [--spec BENCHMARK.json]"
  in
  let problems = ref 0 in
  let problem fmt =
    Printf.ksprintf
      (fun s ->
        incr problems;
        print_endline ("  " ^ s))
      fmt
  in
  let names =
    Stdx.Json.to_list_opt (member "workloads" spec)
    |> Option.value ~default:[]
    |> List.map (str "name")
  in
  if names <> List.map (fun (w : Spec.workload) -> w.name) Spec.workloads then
    problem "BENCHMARK.json names workloads %s" (String.concat ", " names);
  let check (w : Spec.workload) (trace, key) =
    Printf.printf "smoke: %s --trace %d\n%!" w.name trace;
    match
      spawn
        [ "--workload"; w.name; "--seed"; string_of_int Spec.pinned_seed;
          "--seconds"; "1"; "--trace"; string_of_int trace ]
    with
    | Error e -> problem "%s --trace %d: %s" w.name trace e
    | Ok j ->
      let keys = List.sort compare (List.map fst (obj j)) in
      if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
        problem "%s: result keys %s" w.name (String.concat "," keys);
      if member "correct" j <> Stdx.Json.Bool true then
        problem "%s: correct is not true" w.name;
      let got = obj (member "metrics" j) in
      List.iter
        (fun d ->
          match List.assoc_opt d.d_name got with
          | None -> problem "%s: %s missing" w.name d.d_name
          | Some m ->
            (match Stdx.Json.member "value" m with
            | Some (Stdx.Json.Float v) when Float.is_finite v -> ()
            | _ -> problem "%s: %s is not a finite number" w.name d.d_name);
            if Stdx.Json.member "unit" m <> Some (Stdx.Json.String d.d_unit)
            then
              problem "%s: %s is not printed with its unit %s" w.name d.d_name
                d.d_unit)
        (declared spec key)
  in
  List.iter
    (fun w -> List.iter (check w) [ (0, "end_to_end"); (1, "per_layer") ])
    Spec.workloads;
  if !problems > 0 then begin
    Printf.printf "smoke: %d problem(s)\n" !problems;
    exit 1
  end;
  print_endline "smoke: every metric present, finite and with its unit"

let child = function
  | [ variant; name; seed ] ->
    let w = workload name and seed = int_arg "seed" seed in
    let json =
      match List.assoc_opt variant Rep.variant_names with
      | Some Rep.Plain -> Rep.plain w ~seed
      | Some Rep.Traced -> Layers.traced w ~seed
      | Some Rep.Profiled -> Layers.profiled w ~seed
      | None -> fail "unknown variant %S" variant
    in
    print_endline (Stdx.Json.to_string json)
  | _ -> fail "usage: child VARIANT WORKLOAD SEED"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: rest -> child rest
  | "suite" :: rest -> suite rest
  | "compare" :: rest -> compare_files rest
  | "smoke" :: rest -> smoke rest
  | args -> run_one args
