(* Tests for the time-series flight recorder: ring/rate/percentile/
   stall-gap arithmetic driven by hand, SLO transitions emitting typed
   Health trace events (and surviving the JSONL round-trip), the
   monitor-attached-runs-are-byte-identical guarantee (same proof style
   as trace and prof), a sustained-load run producing the acceptance
   series, an injected partition flipping the stall check, the mempool
   gauges in Runner.metrics_snapshot, and the Latency determinism fix
   (reports independent of hashtable insertion order). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---- windowed arithmetic, driven by hand ---- *)

let test_series_rate_slope () =
  let m = Monitor.create ~capacity:16 ~interval:1.0 ~window:4.0 () in
  let counter = ref 0.0 and gauge = ref 0.0 in
  Monitor.add_probe m ~name:"c" ~kind:Monitor.Counter (fun () -> !counter);
  Monitor.add_probe m ~name:"g" ~kind:Monitor.Gauge (fun () -> !gauge);
  Monitor.sample m ~now:1.0;
  checkf "rate needs two ticks" 0.0 (Monitor.rate m "c");
  for i = 2 to 6 do
    counter := float_of_int (10 * i);
    gauge := float_of_int i;
    Monitor.sample m ~now:(float_of_int i)
  done;
  checki "samples" 6 (Monitor.samples m);
  checkf "current counter" 60.0 (Monitor.current m "c");
  (* at now=6 with window 4 the reference tick is t=2 (v=20):
     (60-20)/(6-2) = 10 per unit *)
  checkf "windowed rate" 10.0 (Monitor.rate m "c");
  checkf "derived rate series" 10.0 (Monitor.current m "c/rate");
  checkf "gauge slope" 1.0 (Monitor.slope m "g");
  checkf "unknown series" 0.0 (Monitor.current m "nope")

let test_ring_wrap () =
  let m = Monitor.create ~capacity:4 ~interval:1.0 ~window:2.0 () in
  let v = ref 0.0 in
  Monitor.add_probe m ~name:"v" ~kind:Monitor.Gauge (fun () -> !v);
  for i = 1 to 10 do
    v := float_of_int i;
    Monitor.sample m ~now:(float_of_int i)
  done;
  checki "retained capped" 4 (Monitor.samples m);
  checki "total keeps counting" 10 (Monitor.total_samples m);
  checkf "newest survives wrap" 10.0 (Monitor.current m "v");
  (* CSV shows exactly the retained window *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Monitor.to_csv m))
  in
  checki "csv rows = header + retained" 5 (List.length lines);
  checkb "csv header" true
    (String.length (List.hd lines) >= 5
    && String.sub (List.hd lines) 0 5 = "time,")

let test_stall_gap () =
  let m = Monitor.create ~interval:1.0 ~window:4.0 () in
  let v = ref 1.0 in
  Monitor.add_probe m ~name:"c" ~kind:Monitor.Counter (fun () -> !v);
  (* increases at t=1 (first tick baseline), stays flat through t=5,
     increases at t=6, flat to t=8: biggest gap is 1 -> 6 *)
  for i = 1 to 8 do
    if i = 6 then v := 2.0;
    Monitor.sample m ~now:(float_of_int i)
  done;
  checkf "max gap between increases" 5.0 (Monitor.stall_gap m "c");
  (* tail gap: flat-forever series keeps growing the open gap *)
  let m2 = Monitor.create ~interval:1.0 ~window:4.0 () in
  let w = ref 1.0 in
  Monitor.add_probe m2 ~name:"c" ~kind:Monitor.Counter (fun () -> !w);
  for i = 1 to 9 do
    Monitor.sample m2 ~now:(float_of_int i)
  done;
  checkf "open tail gap" 8.0 (Monitor.stall_gap m2 "c")

let test_latency_window () =
  let m = Monitor.create ~interval:1.0 ~window:5.0 () in
  checkf "empty window" 0.0 (Monitor.latency_percentile m 99.0);
  Monitor.observe_latency m ~now:1.0 10.0;
  Monitor.observe_latency m ~now:2.0 20.0;
  Monitor.sample m ~now:2.0;
  checkb "p99 sees both" true (Monitor.latency_percentile m 99.0 >= 19.0);
  (* slide the window far past both observations *)
  Monitor.sample m ~now:10.0;
  checkf "old observations evicted" 0.0 (Monitor.latency_percentile m 99.0);
  checkf "p99 series recorded" 0.0 (Monitor.current m "latency.p99")

let test_probe_registration_guard () =
  let m = Monitor.create () in
  Monitor.add_probe m ~name:"a" ~kind:Monitor.Gauge (fun () -> 0.0);
  checkb "duplicate rejected" true
    (try
       Monitor.add_probe m ~name:"a" ~kind:Monitor.Gauge (fun () -> 0.0);
       false
     with Invalid_argument _ -> true);
  Monitor.sample m ~now:1.0;
  checkb "late registration rejected" true
    (try
       Monitor.add_probe m ~name:"b" ~kind:Monitor.Gauge (fun () -> 0.0);
       false
     with Invalid_argument _ -> true)

(* ---- SLO transitions and Health trace events ---- *)

let health_events tr =
  List.filter_map
    (fun e ->
      match e.Trace.kind with
      | Trace.Health { check; ok; _ } -> Some (check, ok)
      | _ -> None)
    (Trace.events tr)

let test_slo_transitions_emit_health () =
  let m = Monitor.create ~interval:1.0 ~window:5.0 () in
  let c = ref 0.0 in
  Monitor.add_probe m ~name:"c" ~kind:Monitor.Counter (fun () -> !c);
  Monitor.add_slo m
    (Monitor.Min_rate { series = "c"; min_per_unit = 0.5; after = 2.0 });
  let tr = Trace.create () in
  Monitor.set_trace m tr;
  for i = 1 to 5 do
    c := float_of_int i;
    Monitor.sample m ~now:(float_of_int i)
  done;
  checkb "healthy while flowing" true (Monitor.healthy m);
  checkb "no transition yet" true (health_events tr = []);
  (* counter stalls: the windowed rate decays to zero *)
  for i = 6 to 12 do
    Monitor.sample m ~now:(float_of_int i)
  done;
  checkb "failing during stall" false (Monitor.healthy m);
  checkb "failure latched" true (Monitor.ever_unhealthy m);
  checkb "verdict names the check" true
    (let v = Monitor.verdict m in
     String.length v >= 7 && String.sub v 0 7 = "FAILING");
  (* traffic resumes: the check recovers, the latch does not *)
  for i = 13 to 22 do
    c := !c +. 1.0;
    Monitor.sample m ~now:(float_of_int i)
  done;
  checkb "recovered" true (Monitor.healthy m);
  checkb "still latched" true (Monitor.ever_unhealthy m);
  Alcotest.(check (list (pair string bool)))
    "exactly the two transitions, in order"
    [ ("min-rate(c)", false); ("min-rate(c)", true) ]
    (health_events tr);
  (* the typed event survives the JSONL round-trip *)
  match Trace.events_of_jsonl (Trace.to_jsonl tr) with
  | Error e -> Alcotest.fail e
  | Ok events ->
    Alcotest.(check (list (pair string bool)))
      "JSONL round-trip" [ ("min-rate(c)", false); ("min-rate(c)", true) ]
      (List.filter_map
         (fun e ->
           match e.Trace.kind with
           | Trace.Health { check; ok; _ } -> Some (check, ok)
           | _ -> None)
         events)

let test_warmup_grace () =
  let m = Monitor.create ~interval:1.0 ~window:5.0 () in
  Monitor.add_probe m ~name:"c" ~kind:Monitor.Counter (fun () -> 0.0);
  Monitor.add_slo m
    (Monitor.Min_rate { series = "c"; min_per_unit = 1.0; after = 100.0 });
  for i = 1 to 20 do
    Monitor.sample m ~now:(float_of_int i)
  done;
  checkb "inside grace everything is ok" true (Monitor.healthy m);
  checkb "no latch inside grace" false (Monitor.ever_unhealthy m)

(* ---- byte-identical delivery logs with a monitor attached ---- *)

let workload_refs ~monitored =
  let mon = if monitored then Some (Monitor.create ()) else None in
  let opts =
    { (Harness.Runner.default_options ~n:4) with
      workload = Some Harness.Runner.default_workload;
      monitor = mon }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:40.0;
  Harness.Runner.delivered_refs h

let test_monitor_byte_identical () =
  let plain = workload_refs ~monitored:false in
  let monitored = workload_refs ~monitored:true in
  checkb "delivery logs byte-identical with monitor attached" true
    (plain = monitored);
  (* same guarantee without a workload: probes only read state *)
  let bare monitored =
    let mon = if monitored then Some (Monitor.create ()) else None in
    let opts = { (Harness.Runner.default_options ~n:4) with monitor = mon } in
    let h = Harness.Runner.build opts in
    Harness.Runner.run h ~until:40.0;
    Harness.Runner.delivered_refs h
  in
  checkb "synthetic-block runs too" true (bare false = bare true)

let test_workload_replays () =
  checkb "workload-driven runs are seed-deterministic" true
    (workload_refs ~monitored:false = workload_refs ~monitored:false)

(* ---- sustained load: the acceptance series ---- *)

let sustained =
  lazy
    (let mon = Monitor.create () in
     Monitor.add_slo mon
       (Monitor.Min_rate
          { series = "tx.ordered"; min_per_unit = 1.0; after = 20.0 });
     Monitor.add_slo mon
       (Monitor.Max_stall { series = "commits"; max_gap = 30.0 });
     let opts =
       { (Harness.Runner.default_options ~n:4) with
         workload = Some Harness.Runner.default_workload;
         monitor = Some mon }
     in
     let h = Harness.Runner.build opts in
     Harness.Runner.run h ~until:60.0;
     (h, mon))

let test_sustained_load_series () =
  let _, mon = Lazy.force sustained in
  checkb ">= 50 sample points" true (Monitor.total_samples mon >= 50);
  let names = Monitor.series_names mon in
  List.iter
    (fun s -> checkb ("series " ^ s) true (List.mem s names))
    [ "node.delivered"; "commits"; "commits/rate"; "dag.vertices"; "net.bits";
      "net.messages"; "engine.events"; "gc.heap_words"; "tx.submitted";
      "tx.ordered"; "tx.ordered/rate"; "mempool.pending"; "mempool.in_flight";
      "mempool.rejected"; "latency.p50"; "latency.p99" ];
  checkb "transactions ordered" true (Monitor.current mon "tx.ordered" > 0.0);
  checkb "commit rate positive" true (Monitor.rate mon "commits" > 0.0);
  checkb "sliding p99 positive" true (Monitor.current mon "latency.p99" > 0.0);
  checkb "DAG grows" true (Monitor.current mon "dag.vertices" > 20.0);
  checkb "DAG growth slope positive (no GC)" true
    (Monitor.slope mon "dag.vertices" > 0.0);
  checkb "healthy under sustained load" true (not (Monitor.ever_unhealthy mon))

let test_sustained_load_exports () =
  let _, mon = Lazy.force sustained in
  let csv = Monitor.to_csv mon in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  checki "csv rows = header + samples" (Monitor.samples mon + 1)
    (List.length lines);
  let cols = List.length (String.split_on_char ',' (List.hd lines)) in
  checki "csv columns = time + series" (1 + List.length (Monitor.series_names mon)) cols;
  List.iter
    (fun line -> checki "aligned row" cols (List.length (String.split_on_char ',' line)))
    lines;
  (* the JSON export round-trips through the parser and carries the
     acceptance series *)
  match Stdx.Json.of_string (Stdx.Json.to_string (Monitor.to_json mon)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let member name = Stdx.Json.member name j in
    checkb "samples field" true
      (Stdx.Json.to_int_opt (Option.get (member "samples"))
      = Some (Monitor.total_samples mon));
    let series = Option.get (member "series") in
    List.iter
      (fun s ->
        match Stdx.Json.member s series with
        | Some sj ->
          let points =
            Option.get (Stdx.Json.to_list_opt (Option.get (Stdx.Json.member "points" sj)))
          in
          checki ("points for " ^ s) (Monitor.samples mon) (List.length points)
        | None -> Alcotest.fail ("missing series " ^ s))
      [ "tx.ordered/rate"; "commits/rate"; "latency.p99"; "dag.vertices" ];
    checkb "verdict field" true (member "verdict" <> None);
    checkb "healthy field" true
      (Stdx.Json.to_bool_opt (Option.get (member "healthy")) = Some true)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_dashboard_renders () =
  let _, mon = Lazy.force sustained in
  let dash = Monitor.render mon in
  List.iter
    (fun needle ->
      checkb ("dashboard mentions " ^ needle) true (contains dash needle))
    [ "tx.ordered"; "latency"; "verdict:"; "dag.vertices" ]

(* ---- injected stall flips the health check ---- *)

let test_stall_flips_health () =
  let stall_run ~stalled =
    let mon = Monitor.create () in
    Monitor.add_slo mon
      (Monitor.Max_stall { series = "commits"; max_gap = 30.0 });
    let tr = Trace.create () in
    let schedule =
      if not stalled then Harness.Runner.Uniform_random
      else
        Harness.Runner.Custom
          (fun rng ->
            let inner = Net.Sched.uniform_random ~rng in
            let during =
              Net.Sched.partition ~inner ~left:(fun i -> i < 2) ~factor:200.0
            in
            Net.Sched.with_window ~inner ~from_time:20.0 ~until_time:60.0
              ~during)
    in
    let opts =
      { (Harness.Runner.default_options ~n:4) with
        schedule;
        trace = Some tr;
        workload = Some Harness.Runner.default_workload;
        monitor = Some mon }
    in
    let h = Harness.Runner.build opts in
    Harness.Runner.run h ~until:80.0;
    (mon, tr)
  in
  let mon, tr = stall_run ~stalled:true in
  checkb "partition trips the stall check" true (Monitor.ever_unhealthy mon);
  checkb "trace carries the failing transition" true
    (List.mem ("max-stall(commits)", false) (health_events tr));
  let control, _ = stall_run ~stalled:false in
  checkb "control run stays healthy" true (not (Monitor.ever_unhealthy control))

(* ---- mempool gauges in the runner snapshot ---- *)

let test_snapshot_mempool_gauges () =
  let h, _ = Lazy.force sustained in
  let snap = Harness.Runner.metrics_snapshot h in
  let gauge name = List.assoc_opt name snap.Metrics.Registry.gauges in
  List.iter
    (fun name -> checkb ("gauge " ^ name) true (gauge name <> None))
    [ "mempool.pending"; "mempool.in_flight"; "mempool.retained";
      "mempool.submitted"; "mempool.retired"; "mempool.rejected" ];
  checkb "submitted counts the fleet's traffic" true
    (match gauge "mempool.submitted" with Some v -> v > 0.0 | None -> false);
  checkb "retired counts ordered transactions" true
    (match gauge "mempool.retired" with Some v -> v > 0.0 | None -> false);
  (* the dedup state stays flat while thousands of transactions retire:
     clients number densely, so each of the n pools holds n owners'
     watermarks plus the seqnos of vertices delivered ahead of their
     owner's earlier ones — a batch or so per owner, not a set per
     transaction. This run ends at 331; run on to 300 tu, the gauge
     reads 16 between such bursts and at most 331, sampled every 5 tu *)
  let n = 4 and max_batch = Harness.Runner.default_workload.wl_max_batch in
  checkb "thousands retired" true
    (match gauge "mempool.retired" with Some v -> v >= 2000.0 | None -> false);
  checkb "retained under n * n * max_batch" true
    (match gauge "mempool.retained" with
    | Some v -> v <= float_of_int (n * n * max_batch)
    | None -> false);
  (* a workload-free run exports none of them *)
  let bare = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  Harness.Runner.run bare ~until:10.0;
  let snap = Harness.Runner.metrics_snapshot bare in
  checkb "no mempool gauges without a workload" true
    (List.for_all
       (fun (k, _) ->
         not (String.length k >= 8 && String.sub k 0 8 = "mempool."))
       snap.Metrics.Registry.gauges)

(* ---- queue population gauges: snapshot and series ---- *)

let test_queue_population_gauges () =
  let h, mon = Lazy.force sustained in
  let snap = Harness.Runner.metrics_snapshot h in
  let gauge name =
    match List.assoc_opt name snap.Metrics.Registry.gauges with
    | Some v -> v
    | None -> Alcotest.fail ("no gauge " ^ name)
  in
  let names = Monitor.series_names mon in
  let engine = Harness.Runner.engine h in
  checkb "series engine.slot_capacity" true
    (List.mem "engine.slot_capacity" names);
  checkb "engine peak is the engine's" true
    (gauge "engine.slot_capacity"
     = float_of_int (Sim.Engine.slot_capacity engine));
  checkb "engine peak >= pending" true
    (gauge "engine.slot_capacity" >= gauge "engine.pending");
  checkb "series engine.buckets" true (List.mem "engine.buckets" names);
  checkb "bucket count is the engine's" true
    (gauge "engine.buckets" = float_of_int (Sim.Engine.buckets engine));
  (* a power of two of at least 16 once anything was queued *)
  let buckets = Sim.Engine.buckets engine in
  checkb "bucket count a power of two >= 16" true
    (buckets >= 16 && buckets land (buckets - 1) = 0);
  List.iter
    (fun stack ->
      let in_flight = "net.in_flight." ^ stack
      and capacity = "net.slot_capacity." ^ stack in
      checkb ("series " ^ in_flight) true (List.mem in_flight names);
      checkb ("series " ^ capacity) true (List.mem capacity names);
      checkb (capacity ^ " >= " ^ in_flight) true
        (gauge capacity >= gauge in_flight))
    [ "coin"; "sync"; "rbc" ];
  checkb "rbc traffic was in flight" true (gauge "net.slot_capacity.rbc" > 0.0);
  (* every message queued is one engine event *)
  checkb "engine peak covers the network's" true
    (gauge "engine.slot_capacity" >= gauge "net.slot_capacity.rbc")

(* ---- Latency reports are insertion-order independent ---- *)

let test_latency_determinism () =
  let records =
    [ ("blk-c", 1.0, [ (0, 5.0); (1, 6.0) ]);
      ("blk-a", 2.0, [ (1, 4.0) ]);
      ("blk-undelivered-2", 3.0, []);
      ("blk-b", 0.5, [ (0, 9.0); (2, 3.5) ]);
      ("blk-undelivered-1", 4.0, []) ]
  in
  let load order =
    let t = Metrics.Latency.create () in
    List.iter
      (fun (key, at, deliveries) ->
        Metrics.Latency.proposed t key ~now:at;
        List.iter
          (fun (p, d) -> Metrics.Latency.delivered t key ~process:p ~now:d)
          deliveries)
      order;
    t
  in
  let forward = load records and reverse = load (List.rev records) in
  Alcotest.(check (list (float 1e-9)))
    "first-delivery latencies sorted and order-independent"
    (Metrics.Latency.all_first_delivery_latencies forward)
    (Metrics.Latency.all_first_delivery_latencies reverse);
  Alcotest.(check (list (float 1e-9)))
    "per-process latencies sorted and order-independent"
    (Metrics.Latency.all_per_process_latencies forward)
    (Metrics.Latency.all_per_process_latencies reverse);
  Alcotest.(check (list string))
    "undelivered sorted by key"
    [ "blk-undelivered-1"; "blk-undelivered-2" ]
    (Metrics.Latency.undelivered forward);
  Alcotest.(check (list string))
    "undelivered order-independent"
    (Metrics.Latency.undelivered forward)
    (Metrics.Latency.undelivered reverse);
  checkb "ascending" true
    (let l = Metrics.Latency.all_first_delivery_latencies forward in
     List.sort compare l = l);
  Alcotest.(check (option (float 1e-9)))
    "proposed_at recalls the proposal time" (Some 0.5)
    (Metrics.Latency.proposed_at forward "blk-b");
  Alcotest.(check (option (float 1e-9)))
    "proposed_at on unknown key" None
    (Metrics.Latency.proposed_at forward "nope")

let () =
  Alcotest.run "monitor"
    [ ( "windowed-views",
        [ Alcotest.test_case "series, rates, slopes" `Quick
            test_series_rate_slope;
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "stall gap" `Quick test_stall_gap;
          Alcotest.test_case "latency sliding window" `Quick
            test_latency_window;
          Alcotest.test_case "probe registration guard" `Quick
            test_probe_registration_guard ] );
      ( "health",
        [ Alcotest.test_case "SLO transitions emit Health events" `Quick
            test_slo_transitions_emit_health;
          Alcotest.test_case "warmup grace" `Quick test_warmup_grace ] );
      ( "zero-cost",
        [ Alcotest.test_case "byte-identical delivery logs" `Quick
            test_monitor_byte_identical;
          Alcotest.test_case "workload runs replay" `Quick
            test_workload_replays ] );
      ( "sustained-load",
        [ Alcotest.test_case "acceptance series present" `Quick
            test_sustained_load_series;
          Alcotest.test_case "CSV/JSON exports well-formed" `Quick
            test_sustained_load_exports;
          Alcotest.test_case "dashboard renders" `Quick
            test_dashboard_renders;
          Alcotest.test_case "partition stall flips health" `Quick
            test_stall_flips_health ] );
      ( "runner-export",
        [ Alcotest.test_case "mempool gauges in snapshot" `Quick
            test_snapshot_mempool_gauges;
          Alcotest.test_case "queue population gauges" `Quick
            test_queue_population_gauges ] );
      ( "latency-determinism",
        [ Alcotest.test_case "reports independent of insertion order" `Quick
            test_latency_determinism ] );
    ]
