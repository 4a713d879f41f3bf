(* Tests for the span profiler: the no-perturbation guarantee when no
   profiler is installed (same proof style as the tracer's), exact
   self/total accounting against injected clock and allocation counters,
   nesting balance across a whole fleet run, folded-stacks output, and
   the prof.*/gc.* export through Runner.metrics_snapshot. Also the
   metrics-registry edge cases the export leans on: empty-histogram
   summaries, JSON round-trips, and deterministic ordering. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* ---- exact accounting with injected counters ---- *)

(* a profiler whose clock and allocation counter we drive by hand, so
   every self/total/alloc number is checked exactly *)
let with_fake_prof f =
  let now = ref 0.0 in
  let alloc = ref 0.0 in
  let t =
    Prof.create ~clock:(fun () -> !now) ~alloc_bytes:(fun () -> !alloc) ()
  in
  Prof.install t;
  Fun.protect ~finally:Prof.uninstall (fun () -> f t now alloc)

let row name t =
  match List.find_opt (fun r -> r.Prof.r_name = name) (Prof.rows t) with
  | Some r -> r
  | None -> Alcotest.fail ("no row for span " ^ name)

let test_exact_accounting () =
  with_fake_prof (fun t now alloc ->
      let outer = Prof.enter "outer" in
      now := 1.0;
      alloc := 100.0;
      let inner = Prof.enter "inner" in
      now := 3.0;
      alloc := 300.0;
      Prof.leave inner;
      now := 6.0;
      alloc := 600.0;
      Prof.leave outer;
      checki "depth back to 0" 0 (Prof.depth t);
      checki "balanced" 0 (Prof.unbalanced t);
      let o = row "outer" t and i = row "inner" t in
      checki "outer count" 1 o.Prof.r_count;
      checkf "outer total" 6.0 o.Prof.r_total_s;
      checkf "outer self = total - inner" 4.0 o.Prof.r_self_s;
      checkf "outer alloc" 600.0 o.Prof.r_alloc_bytes;
      checkf "outer self alloc" 400.0 o.Prof.r_self_alloc_bytes;
      checkf "inner total" 2.0 i.Prof.r_total_s;
      checkf "inner self" 2.0 i.Prof.r_self_s;
      checkf "inner alloc" 200.0 i.Prof.r_alloc_bytes;
      (* self times partition the observed window *)
      checkf "observed" 6.0 (Prof.observed_s t);
      checkf "coverage = inner share" (2.0 /. 6.0) (Prof.coverage t);
      match o.Prof.r_samples with
      | [ dt ] -> checkf "sampled duration" 6.0 dt
      | _ -> Alcotest.fail "expected one outer sample")

let test_folded_output () =
  with_fake_prof (fun t now _alloc ->
      let outer = Prof.enter "outer" in
      now := 1.0;
      let inner = Prof.enter "inner" in
      now := 3.0;
      Prof.leave inner;
      now := 6.0;
      Prof.leave outer;
      (* one line per call path, self time in microseconds *)
      checks "folded stacks" "outer 4000000\nouter;inner 2000000\n"
        (Prof.folded t))

let test_same_name_merges_across_paths () =
  with_fake_prof (fun t now _alloc ->
      let a = Prof.enter "a" in
      let x1 = Prof.enter "x" in
      now := 1.0;
      Prof.leave x1;
      Prof.leave a;
      let b = Prof.enter "b" in
      let x2 = Prof.enter "x" in
      now := 3.0;
      Prof.leave x2;
      Prof.leave b;
      (* "x" under two parents: rows merge, folded keeps paths apart *)
      let x = row "x" t in
      checki "x count" 2 x.Prof.r_count;
      checkf "x total" 3.0 x.Prof.r_total_s;
      checkb "folded keeps both paths" true
        (let f = Prof.folded t in
         let has s =
           let re = s ^ " " in
           let rec go i =
             i + String.length re <= String.length f
             && (String.sub f i (String.length re) = re || go (i + 1))
           in
           go 0
         in
         has "a;x" && has "b;x"))

let test_unbalanced_leave_counted () =
  with_fake_prof (fun t _now _alloc ->
      let a = Prof.enter "a" in
      let b = Prof.enter "b" in
      (* wrong order: leaving [a] while [b] is innermost *)
      Prof.leave a;
      checki "unbalanced counted" 1 (Prof.unbalanced t);
      checki "stack untouched" 2 (Prof.depth t);
      Prof.leave b;
      Prof.leave a;
      checki "recovers" 0 (Prof.depth t);
      let b_row = row "b" t in
      checki "b closed once" 1 b_row.Prof.r_count)

let test_time_exception_safety () =
  with_fake_prof (fun t _now _alloc ->
      (try Prof.time "boom" (fun () -> raise Exit)
       with Exit -> ());
      checki "span closed on raise" 0 (Prof.depth t);
      checki "still balanced" 0 (Prof.unbalanced t);
      checki "boom recorded" 1 (row "boom" t).Prof.r_count)

let test_leave_reraise () =
  (* the exception path of an open-coded span site: the span must close
     (so later spans don't mis-nest under a stale frame) and the
     original exception must propagate *)
  with_fake_prof (fun t now _alloc ->
      (try
         let sp = Prof.enter "boom" in
         try
           now := 2.0;
           raise Exit
         with e -> Prof.leave_reraise sp e
       with Exit -> ());
      checki "span closed on raise" 0 (Prof.depth t);
      checki "still balanced" 0 (Prof.unbalanced t);
      let r = row "boom" t in
      checki "recorded once" 1 r.Prof.r_count;
      checkf "duration up to the raise" 2.0 r.Prof.r_total_s)

let test_sample_reservoir_covers_tail () =
  with_fake_prof (fun t now _alloc ->
      (* call i has duration i, so the sample's contents say which
         calls were retained *)
      for i = 1 to 5000 do
        let sp = Prof.enter "s" in
        now := !now +. float_of_int i;
        Prof.leave sp
      done;
      let r = row "s" t in
      checki "capped at 2048" 2048 (List.length r.Prof.r_samples);
      (* a keep-first-N sample could only hold durations <= 2048; the
         reservoir must retain part of the post-warmup tail *)
      checkb "tail represented" true
        (List.exists (fun d -> d > 2048.0) r.Prof.r_samples))

let test_disabled_spans_are_inert () =
  (* nothing installed: enter/leave/time must be no-ops *)
  Alcotest.(check (option unit))
    "nothing installed" None
    (Option.map ignore (Prof.installed ()));
  let sp = Prof.enter "ghost" in
  Prof.leave sp;
  checki "time passes through" 7 (Prof.time "ghost" (fun () -> 7))

(* ---- a profiled fleet run ---- *)

let run_fleet () =
  let h = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  Harness.Runner.run h ~until:50.0;
  Harness.Runner.delivered_refs h

let profiled_run =
  lazy
    (let prof = Prof.create () in
     Prof.install prof;
     let refs = Prof.time "run" run_fleet in
     Prof.uninstall ();
     (prof, refs))

let test_disabled_prof_identical_run () =
  let _, profiled_refs = Lazy.force profiled_run in
  let a = run_fleet () and b = run_fleet () in
  checkb "unprofiled runs replay" true (a = b);
  (* instrumentation only reads clocks and counters: a profiled run
     must deliver byte-identical logs *)
  checkb "profiled delivers the same logs" true (a = profiled_refs)

let test_fleet_spans_balanced () =
  let prof, _ = Lazy.force profiled_run in
  checki "no span left open" 0 (Prof.depth prof);
  checki "no unbalanced leaves" 0 (Prof.unbalanced prof)

let test_fleet_expected_spans () =
  let prof, _ = Lazy.force profiled_run in
  let rows = Prof.rows prof in
  List.iter
    (fun name ->
      match List.find_opt (fun r -> r.Prof.r_name = name) rows with
      | Some r ->
        checkb (name ^ " called") true (r.Prof.r_count > 0);
        checkb (name ^ " nonnegative total") true (r.Prof.r_total_s >= 0.0)
      | None -> Alcotest.fail ("missing span " ^ name))
    [ "run"; "engine.dispatch"; "rbc.bracha.recv"; "rbc.bracha.bcast";
      "dag.add"; "dag.path"; "dag.causal_history"; "order.wave.dagrider";
      "node.r_deliver"; "node.coin" ]

(* [Runner.run] of a fresh fleet over [until] time units under its own
   profiler, as [dagrider_run profile] and perfbench's prof.coverage
   read it *)
let profiled_fleet ~until =
  let fleet = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  let prof = Prof.create () in
  Prof.install prof;
  Prof.time "run" (fun () -> Harness.Runner.run fleet ~until);
  Prof.uninstall ();
  prof

let test_fleet_coverage () =
  (* the acceptance bar: instrumented spans explain >= 90% of the run.
     Each reading lasts 1000 time units, about 0.1 s against the few
     milliseconds of [profiled_run]. A burst of load from other
     processes slows the profiler's own bookkeeping, which no span
     covers, more than the spans, so the reading is the best of three
     runs, as perfbench keeps the fastest repeat of each slice *)
  let readings = List.init 3 (fun _ -> profiled_fleet ~until:1000.0) in
  let best =
    List.fold_left (fun acc p -> Float.max acc (Prof.coverage p)) 0.0 readings
  in
  checkb
    (Printf.sprintf "coverage %.3f >= 0.9 (best of %s)" best
       (String.concat ", "
          (List.map (fun p -> Printf.sprintf "%.3f" (Prof.coverage p)) readings)))
    true (best >= 0.9);
  checkb "observed time positive" true
    (List.for_all (fun p -> Prof.observed_s p > 0.0) readings)

let test_fleet_alloc_monotone () =
  let prof, _ = Lazy.force profiled_run in
  List.iter
    (fun r ->
      (* allocation counters are monotone and child windows nest inside
         the parent's, so both deltas must come out nonnegative *)
      checkb (r.Prof.r_name ^ " alloc >= 0") true (r.Prof.r_alloc_bytes >= 0.0);
      checkb
        (r.Prof.r_name ^ " self alloc <= alloc")
        true
        (r.Prof.r_self_alloc_bytes <= r.Prof.r_alloc_bytes +. 1e-6);
      checkb
        (r.Prof.r_name ^ " self time <= total")
        true
        (r.Prof.r_self_s <= r.Prof.r_total_s +. 1e-9);
      checkb
        (r.Prof.r_name ^ " samples bounded")
        true
        (List.length r.Prof.r_samples <= min r.Prof.r_count 2048))
    (Prof.rows prof)

let test_fleet_render_and_gc () =
  let prof, _ = Lazy.force profiled_run in
  let table = Prof.render_table ~top:5 prof in
  checkb "table mentions a hot span" true
    (String.length table > 0
    && (let has s =
          let rec go i =
            i + String.length s <= String.length table
            && (String.sub table i (String.length s) = s || go (i + 1))
          in
          go 0
        in
        has "engine.dispatch" || has "rbc.bracha.recv"));
  let gc = Prof.gc_summary prof in
  checkb "gc allocated > 0" true (gc.Prof.gc_allocated_bytes > 0.0);
  checkb "gc top heap > 0" true (gc.Prof.gc_top_heap_words > 0);
  checkb "gc render nonempty" true (String.length (Prof.render_gc gc) > 0)

(* ---- runner metrics export ---- *)

let test_runner_snapshot_gc_and_prof () =
  let prof = Prof.create () in
  Prof.install prof;
  let h = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  Harness.Runner.run h ~until:20.0;
  let snap = Harness.Runner.metrics_snapshot h in
  Prof.uninstall ();
  let gauge name = List.assoc_opt name snap.Metrics.Registry.gauges in
  List.iter
    (fun name -> checkb ("gauge " ^ name) true (gauge name <> None))
    [ "gc.minor_collections"; "gc.major_collections"; "gc.promoted_words";
      "gc.top_heap_words"; "prof.engine.dispatch.self_s";
      "prof.engine.dispatch.total_s"; "prof.engine.dispatch.alloc_bytes" ];
  checkb "prof calls counter" true
    (List.assoc_opt "prof.engine.dispatch.calls" snap.Metrics.Registry.counters
    <> None);
  checkb "prof histogram" true
    (List.assoc_opt "prof.engine.dispatch" snap.Metrics.Registry.histograms
    <> None)

let test_runner_snapshot_without_prof () =
  let h = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  Harness.Runner.run h ~until:20.0;
  let snap = Harness.Runner.metrics_snapshot h in
  checkb "gc gauges always present" true
    (List.assoc_opt "gc.minor_collections" snap.Metrics.Registry.gauges
    <> None);
  checkb "no prof keys when uninstalled" true
    (List.for_all
       (fun (k, _) -> not (String.length k >= 5 && String.sub k 0 5 = "prof."))
       (snap.Metrics.Registry.counters
       |> List.map (fun (k, v) -> (k, float_of_int v)))
    && List.for_all
         (fun (k, _) ->
           not (String.length k >= 5 && String.sub k 0 5 = "prof."))
         snap.Metrics.Registry.gauges)

(* Two fleets run one after the other in one process: the second
   fleet's collection and promotion gauges count from its own start, so
   they leave out the first fleet's, while the top heap stays the
   process-wide high-water mark. *)
let test_runner_snapshot_gc_per_fleet () =
  let run () =
    let h = Harness.Runner.build (Harness.Runner.default_options ~n:7) in
    Harness.Runner.run h ~until:100.0;
    h
  in
  let gauge h name =
    match
      List.assoc_opt name
        (Harness.Runner.metrics_snapshot h).Metrics.Registry.gauges
    with
    | Some v -> v
    | None -> Alcotest.failf "no gauge %s" name
  in
  let start = Gc.quick_stat () in
  let first = run () in
  let first_minor = gauge first "gc.minor_collections" in
  checkb "the first fleet collected" true (first_minor > 0.0);
  let between = Gc.quick_stat () in
  let second = run () in
  let minor = gauge second "gc.minor_collections" in
  let promoted = gauge second "gc.promoted_words" in
  let top = gauge second "gc.top_heap_words" in
  (* read before [stop]: a snapshot allocates, and a major cycle that
     ends inside one read after [stop] would count past it *)
  let major = gauge second "gc.major_collections" in
  let stop = Gc.quick_stat () in
  checkb "the second fleet collected" true (minor > 0.0);
  checkb "second fleet: only collections since it started" true
    (minor
    <= float_of_int (stop.Gc.minor_collections - between.Gc.minor_collections));
  checkb "second fleet: the first fleet's collections left out" true
    (minor
    < float_of_int (stop.Gc.minor_collections - start.Gc.minor_collections));
  checkb "second fleet: only promotion since it started" true
    (promoted >= 0.0
    && promoted <= stop.Gc.promoted_words -. between.Gc.promoted_words);
  checkb "major collections counted from the start" true
    (major
    <= float_of_int (stop.Gc.major_collections - between.Gc.major_collections));
  checkb "top heap is process-wide" true
    (top >= float_of_int between.Gc.top_heap_words);
  let idle = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  checkb "a fleet never started counts no collection" true
    (gauge idle "gc.minor_collections" = 0.0)

(* ---- registry edge cases ---- *)

let test_registry_empty_histogram () =
  let reg = Metrics.Registry.create () in
  ignore (Metrics.Registry.histogram reg "empty");
  let snap = Metrics.Registry.snapshot reg in
  match snap.Metrics.Registry.histograms with
  | [ ("empty", h) ] ->
    checki "count 0" 0 h.Stdx.Stats.s_count;
    checkf "mean 0" 0.0 h.Stdx.Stats.s_mean;
    checkf "max 0" 0.0 h.Stdx.Stats.s_max;
    checkf "p99 0" 0.0 h.Stdx.Stats.s_p99
  | _ -> Alcotest.fail "expected exactly the empty histogram"

let test_registry_snapshot_json_round_trip () =
  let reg = Metrics.Registry.create () in
  Metrics.Registry.incr reg "c.two" ~by:2 ();
  Metrics.Registry.incr reg "c.one" ();
  Metrics.Registry.set_gauge reg "g.x" 1.5;
  Metrics.Registry.observe reg "h.lat" 0.25;
  Metrics.Registry.observe reg "h.lat" 0.75;
  ignore (Metrics.Registry.histogram reg "h.empty");
  let snap = Metrics.Registry.snapshot reg in
  let json = Metrics.Registry.snapshot_to_json snap in
  let text = Stdx.Json.to_string json in
  match Stdx.Json.of_string text with
  | Error e -> Alcotest.fail ("snapshot JSON does not parse back: " ^ e)
  | Ok parsed ->
    let section name =
      match Stdx.Json.member name parsed with
      | Some (Stdx.Json.Obj fields) -> fields
      | _ -> Alcotest.fail ("missing section " ^ name)
    in
    (match List.assoc_opt "c.two" (section "counters") with
    | Some j -> checki "counter survives" 2 (Option.get (Stdx.Json.to_int_opt j))
    | None -> Alcotest.fail "c.two lost");
    (match List.assoc_opt "g.x" (section "gauges") with
    | Some j ->
      checkf "gauge survives" 1.5 (Option.get (Stdx.Json.to_float_opt j))
    | None -> Alcotest.fail "g.x lost");
    (match List.assoc_opt "h.lat" (section "histograms") with
    | Some h ->
      checki "histogram count survives" 2
        (Option.get
           (Option.bind (Stdx.Json.member "count" h) Stdx.Json.to_int_opt));
      checkf "histogram p50 survives" 0.25
        (Option.get
           (Option.bind (Stdx.Json.member "p50" h) Stdx.Json.to_float_opt))
    | None -> Alcotest.fail "h.lat lost");
    checkb "empty histogram serialized too" true
      (List.assoc_opt "h.empty" (section "histograms") <> None)

let test_registry_deterministic_order () =
  (* same metrics, opposite insertion orders: snapshots and their JSON
     must be identical (sections are sorted by name) *)
  let build names =
    let reg = Metrics.Registry.create () in
    List.iter
      (fun n ->
        Metrics.Registry.incr reg ("c." ^ n) ();
        Metrics.Registry.set_gauge reg ("g." ^ n) 1.0;
        Metrics.Registry.observe reg ("h." ^ n) 1.0)
      names;
    Metrics.Registry.snapshot reg
  in
  let fwd = build [ "alpha"; "beta"; "gamma" ] in
  let rev = build [ "gamma"; "beta"; "alpha" ] in
  checkb "snapshots equal" true (fwd = rev);
  checks "json equal"
    (Stdx.Json.to_string (Metrics.Registry.snapshot_to_json fwd))
    (Stdx.Json.to_string (Metrics.Registry.snapshot_to_json rev));
  checkb "counters sorted" true
    (let keys = List.map fst fwd.Metrics.Registry.counters in
     keys = List.sort compare keys)

let () =
  Alcotest.run "prof"
    [ ( "accounting",
        [ Alcotest.test_case "exact self/total/alloc" `Quick
            test_exact_accounting;
          Alcotest.test_case "folded stacks" `Quick test_folded_output;
          Alcotest.test_case "same name merges across paths" `Quick
            test_same_name_merges_across_paths;
          Alcotest.test_case "unbalanced leave counted" `Quick
            test_unbalanced_leave_counted;
          Alcotest.test_case "time is exception-safe" `Quick
            test_time_exception_safety;
          Alcotest.test_case "leave_reraise closes the span" `Quick
            test_leave_reraise;
          Alcotest.test_case "duration reservoir covers the tail" `Quick
            test_sample_reservoir_covers_tail;
          Alcotest.test_case "disabled spans are inert" `Quick
            test_disabled_spans_are_inert ] );
      ( "fleet",
        [ Alcotest.test_case "disabled profiler leaves run identical" `Quick
            test_disabled_prof_identical_run;
          Alcotest.test_case "spans balanced" `Quick test_fleet_spans_balanced;
          Alcotest.test_case "expected spans present" `Quick
            test_fleet_expected_spans;
          Alcotest.test_case "coverage >= 90%" `Quick test_fleet_coverage;
          Alcotest.test_case "allocation deltas monotone" `Quick
            test_fleet_alloc_monotone;
          Alcotest.test_case "table and gc render" `Quick
            test_fleet_render_and_gc ] );
      ( "runner-export",
        [ Alcotest.test_case "gc.* and prof.* in snapshot" `Quick
            test_runner_snapshot_gc_and_prof;
          Alcotest.test_case "gc gauges count from the fleet's start" `Quick
            test_runner_snapshot_gc_per_fleet;
          Alcotest.test_case "no prof.* when uninstalled" `Quick
            test_runner_snapshot_without_prof ] );
      ( "registry",
        [ Alcotest.test_case "empty histogram summary" `Quick
            test_registry_empty_histogram;
          Alcotest.test_case "snapshot JSON round trip" `Quick
            test_registry_snapshot_json_round_trip;
          Alcotest.test_case "deterministic ordering" `Quick
            test_registry_deterministic_order ] );
    ]
