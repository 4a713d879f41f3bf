(* Tests for the structured tracer: ring-buffer semantics, JSONL
   round-trips, timeline rendering, the events a traced fleet emits,
   and the no-perturbation guarantee when tracing is off. Also covers
   the metrics registry and the per-process latency recorder the
   tracer shipped with. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---- ring buffer ---- *)

let test_ring_keeps_newest () =
  let tr = Trace.create ~capacity:8 () in
  for round = 1 to 20 do
    Trace.emit tr (Trace.Vertex_created { node = 0; round })
  done;
  checki "emitted" 20 (Trace.emitted tr);
  checki "dropped" 12 (Trace.dropped tr);
  checki "capacity" 8 (Trace.capacity tr);
  let events = Trace.events tr in
  checki "retained" 8 (List.length events);
  let rounds =
    List.map
      (fun e ->
        match e.Trace.kind with
        | Trace.Vertex_created { round; _ } -> round
        | _ -> Alcotest.fail "unexpected kind")
      events
  in
  (* the newest 8 survive, oldest first *)
  checkb "newest kept" true (rounds = [ 13; 14; 15; 16; 17; 18; 19; 20 ]);
  let seqs = List.map (fun e -> e.Trace.seq) events in
  checkb "seqs monotone" true (List.sort compare seqs = seqs);
  checkb "seqs distinct" true
    (List.length (List.sort_uniq compare seqs) = List.length seqs)

let test_ring_under_capacity () =
  let tr = Trace.create ~capacity:16 () in
  for round = 1 to 5 do
    Trace.emit tr (Trace.Vertex_created { node = 1; round })
  done;
  checki "retained" 5 (List.length (Trace.events tr));
  checki "dropped" 0 (Trace.dropped tr)

let test_ring_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let test_clock_stamps () =
  let tr = Trace.create () in
  let now = ref 0.0 in
  Trace.set_clock tr (fun () -> !now);
  Trace.emit tr (Trace.Round_advanced { node = 0; round = 1 });
  now := 4.5;
  Trace.emit tr (Trace.Round_advanced { node = 0; round = 2 });
  match Trace.events tr with
  | [ a; b ] ->
    checkf "first at 0" 0.0 a.Trace.time;
    checkf "second at 4.5" 4.5 b.Trace.time
  | _ -> Alcotest.fail "expected two events"

(* ---- a traced fleet ---- *)

(* one traced run shared by the event-content tests below; commits as
   reported by the on_commit hook are the ground truth the trace is
   checked against *)
let traced_run =
  lazy
    (let tr = Trace.create ~capacity:200_000 () in
     let commit_log = ref [] in
     let options =
       { (Harness.Runner.default_options ~n:4) with
         Harness.Runner.trace = Some tr;
         on_commit =
           Some
             (fun ~node (c : Dagrider.Ordering.commit) ->
               commit_log :=
                 (node, c.wave, c.direct, List.length c.delivered)
                 :: !commit_log)
       }
     in
     let h = Harness.Runner.build options in
     Harness.Runner.run h ~until:50.0;
     (tr, List.rev !commit_log, Harness.Runner.delivered_refs h))

let test_times_monotone () =
  let tr, _, _ = Lazy.force traced_run in
  let events = Trace.events tr in
  checkb "nonempty" true (events <> []);
  checki "nothing dropped at this capacity" 0 (Trace.dropped tr);
  let rec go = function
    | a :: (b :: _ as rest) ->
      checkb "time monotone nondecreasing" true
        (a.Trace.time <= b.Trace.time);
      checkb "seq strictly increasing" true (a.Trace.seq < b.Trace.seq);
      go rest
    | _ -> ()
  in
  go events

let kinds_present events =
  List.sort_uniq compare (List.map (fun e -> Trace.kind_label e.Trace.kind) events)

let test_event_coverage () =
  let tr, _, _ = Lazy.force traced_run in
  let present = kinds_present (Trace.events tr) in
  List.iter
    (fun k ->
      checkb (Printf.sprintf "emits %s" k) true (List.mem k present))
    [ "send"; "recv"; "rbc-phase"; "vertex-created"; "vertex-added";
      "round-advanced"; "coin-flip"; "leader-elected"; "commit-cert";
      "a-deliver"; "engine-sample" ]

let test_commit_events_cover_hook () =
  let tr, commit_log, _ = Lazy.force traced_run in
  checkb "fleet committed" true (commit_log <> []);
  let traced_commits =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Commit_cert { node; wave; direct; delivered; _ } ->
          Some (node, wave, direct, delivered)
        | _ -> None)
      (Trace.events tr)
  in
  (* exactly one certificate for every commit the hook reported, with
     its (node, wave, direct, delivered) *)
  checkb "certificates = hook commits" true
    (List.sort compare traced_commits = List.sort compare commit_log)

let test_disabled_trace_identical_run () =
  let _, _, traced_refs = Lazy.force traced_run in
  let run () =
    let h =
      Harness.Runner.build (Harness.Runner.default_options ~n:4)
    in
    Harness.Runner.run h ~until:50.0;
    Harness.Runner.delivered_refs h
  in
  let a = run () and b = run () in
  checkb "untraced runs replay" true (a = b);
  (* the tracer (including its engine sampler) must not change what the
     fleet delivers *)
  checkb "traced delivers the same logs" true (a = traced_refs)

(* ---- JSONL ---- *)

let test_jsonl_round_trip () =
  let tr, _, _ = Lazy.force traced_run in
  let events = Trace.events tr in
  match Trace.events_of_jsonl (Trace.to_jsonl tr) with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok parsed ->
    checki "count" (List.length events) (List.length parsed);
    checkb "events round-trip exactly" true (parsed = events)

let test_jsonl_rejects_garbage () =
  (match Trace.events_of_jsonl "{\"seq\":1}\nnot json\n" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e -> checkb "error names the line" true (String.length e > 0));
  (* a dump written before the certificates were the only decision
     record: its compact commit line is an unknown kind *)
  (match
     Trace.events_of_jsonl
       "{\"seq\":0,\"t\":0.0,\"ev\":\"round-advanced\",\"node\":0,\"round\":1}\n\
        {\"seq\":1,\"t\":1.0,\"ev\":\"commit\",\"node\":0,\"wave\":1,\
        \"leader_round\":1,\"leader_source\":2,\"direct\":true,\
        \"delivered\":1}\n"
   with
  | Ok _ -> Alcotest.fail "accepted a pre-certificate commit line"
  | Error e ->
    Alcotest.(check string) "error names the line"
      "line 2: unknown event kind \"commit\"" e);
  match Trace.events_of_jsonl "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "nonempty from empty input"
  | Error e -> Alcotest.fail e

(* ---- rendering ---- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_timeline_renders () =
  let tr, _, _ = Lazy.force traced_run in
  let out = Trace.render_timeline tr in
  List.iter
    (fun sub ->
      checkb (Printf.sprintf "timeline mentions %S" sub) true
        (contains ~sub out))
    [ "emitted"; "retained"; "dropped"; "send"; "recv"; "commit" ]

(* ---- metrics registry ---- *)

let test_registry_counters_gauges () =
  let r = Metrics.Registry.create () in
  Metrics.Registry.incr r "a" ();
  Metrics.Registry.incr r "a" ~by:4 ();
  Metrics.Registry.incr r "b" ~by:2 ();
  Metrics.Registry.set_gauge r "g" 1.5;
  Metrics.Registry.set_gauge r "g" 2.5;
  checki "a" 5 (Metrics.Registry.counter_value r "a");
  checki "b" 2 (Metrics.Registry.counter_value r "b");
  checki "missing counter" 0 (Metrics.Registry.counter_value r "zzz");
  checkb "gauge last-write-wins" true
    (Metrics.Registry.gauge_value r "g" = Some 2.5);
  checkb "missing gauge" true (Metrics.Registry.gauge_value r "zzz" = None)

let test_registry_histograms_and_snapshot () =
  let r = Metrics.Registry.create () in
  for i = 1 to 100 do
    Metrics.Registry.observe r "lat" (float_of_int i)
  done;
  Metrics.Registry.incr r "n" ~by:7 ();
  let snap = Metrics.Registry.snapshot r in
  checkb "counters sorted" true
    (snap.Metrics.Registry.counters = [ ("n", 7) ]);
  (match snap.Metrics.Registry.histograms with
  | [ ("lat", h) ] ->
    checki "count" 100 h.Stdx.Stats.s_count;
    checkf "mean" 50.5 h.Stdx.Stats.s_mean;
    checkf "p50" 50.0 h.Stdx.Stats.s_p50;
    checkf "p99" 99.0 h.Stdx.Stats.s_p99;
    checkf "max" 100.0 h.Stdx.Stats.s_max
  | _ -> Alcotest.fail "expected one histogram");
  (* the snapshot serializes to parseable JSON with all three sections *)
  let js = Stdx.Json.to_string (Metrics.Registry.snapshot_to_json snap) in
  match Stdx.Json.of_string js with
  | Ok v ->
    checkb "has counters" true (Stdx.Json.member "counters" v <> None);
    checkb "has gauges" true (Stdx.Json.member "gauges" v <> None);
    checkb "has histograms" true (Stdx.Json.member "histograms" v <> None)
  | Error e -> Alcotest.fail e

let test_runner_metrics_snapshot () =
  let h = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  Harness.Runner.run h ~until:40.0;
  let snap = Harness.Runner.metrics_snapshot h in
  let counter name =
    try List.assoc name snap.Metrics.Registry.counters
    with Not_found -> Alcotest.fail ("missing counter " ^ name)
  in
  checkb "bits flowed" true (counter "net.bits.total" > 0);
  checkb "honest <= total" true
    (counter "net.bits.honest" <= counter "net.bits.total");
  checkb "per-kind bracha counter present" true
    (List.mem_assoc "net.bits.bracha-echo" snap.Metrics.Registry.counters);
  checkb "delivered at p0" true (counter "node.0.delivered" > 0);
  checkb "latency histogram populated" true
    (match List.assoc_opt "latency.first_delivery"
             snap.Metrics.Registry.histograms with
    | Some hs -> hs.Stdx.Stats.s_count > 0
    | None -> false)

(* ---- per-process latency ---- *)

let test_per_process_latency () =
  let l = Metrics.Latency.create () in
  Metrics.Latency.proposed l "blk" ~now:10.0;
  Metrics.Latency.delivered l "blk" ~process:2 ~now:13.0;
  Metrics.Latency.delivered l "blk" ~process:0 ~now:11.5;
  (* a re-delivery at an already-recorded process must not count *)
  Metrics.Latency.delivered l "blk" ~process:2 ~now:99.0;
  checkb "sorted by process, first delivery only" true
    (Metrics.Latency.per_process_latency l "blk" = [ (0, 1.5); (2, 3.0) ]);
  checki "distinct deliverers" 2 (Metrics.Latency.delivery_count l "blk");
  checkb "unknown key" true (Metrics.Latency.per_process_latency l "?" = []);
  checkb "pooled distribution" true
    (List.sort compare (Metrics.Latency.all_per_process_latencies l)
    = [ 1.5; 3.0 ])

let test_runner_latency_recorder () =
  let h = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
  Harness.Runner.run h ~until:40.0;
  let l = Harness.Runner.latency h in
  let firsts = Metrics.Latency.all_first_delivery_latencies l in
  checkb "blocks measured" true (firsts <> []);
  List.iter (fun x -> checkb "positive latency" true (x > 0.0)) firsts;
  (* per-process latencies pool at least as many samples as payloads *)
  checkb "per-process >= first-delivery samples" true
    (List.length (Metrics.Latency.all_per_process_latencies l)
    >= List.length firsts)

let () =
  Alcotest.run "trace"
    [ ( "ring",
        [ Alcotest.test_case "keeps newest" `Quick test_ring_keeps_newest;
          Alcotest.test_case "under capacity" `Quick test_ring_under_capacity;
          Alcotest.test_case "bad capacity" `Quick test_ring_bad_capacity;
          Alcotest.test_case "clock stamps" `Quick test_clock_stamps ] );
      ( "fleet",
        [ Alcotest.test_case "times monotone" `Quick test_times_monotone;
          Alcotest.test_case "event coverage" `Quick test_event_coverage;
          Alcotest.test_case "commit events cover hook" `Quick
            test_commit_events_cover_hook;
          Alcotest.test_case "disabled trace leaves run identical" `Quick
            test_disabled_trace_identical_run ] );
      ( "jsonl",
        [ Alcotest.test_case "round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage ] );
      ( "render",
        [ Alcotest.test_case "timeline" `Quick test_timeline_renders ] );
      ( "metrics",
        [ Alcotest.test_case "counters and gauges" `Quick
            test_registry_counters_gauges;
          Alcotest.test_case "histograms and snapshot" `Quick
            test_registry_histograms_and_snapshot;
          Alcotest.test_case "runner snapshot" `Quick
            test_runner_metrics_snapshot ] );
      ( "latency",
        [ Alcotest.test_case "per-process" `Quick test_per_process_latency;
          Alcotest.test_case "runner recorder" `Quick
            test_runner_latency_recorder ] )
    ]
