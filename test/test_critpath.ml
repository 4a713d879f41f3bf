(* Tests for the causal critical-path tracer: on a 500+-wave traced
   honest run every commit's segment sum must reconcile with its
   end-to-end latency within one sim tick; every path's landmarks and
   landmark-derived segments must equal the reference lookup in
   critpath_reference.ml (live fleets under both rules and two RBC
   backends, a lossy run, a ring-truncated window, a stream with
   repeated landmark events); the correlation-id JSONL round-trip,
   backward compatibility with pre-correlation-id trace files,
   straggler attribution under a deliberately slowed node, and
   JSONL-replay parity with live collection. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let build_traced ?(n = 4) ?(seed = 42) ?(until = 60.0) ?(capacity = 4096)
    ?(schedule = Harness.Runner.Synchronous) ?(backend = Harness.Runner.Bracha)
    ?(rule = Dagrider.Ordering.dag_rider) ?link_faults ?gc_depth
    ?(block_bytes = 32) ?(faults = []) ?(workload = None) () =
  let tracer = Trace.create ~capacity () in
  let fleet =
    Harness.Runner.build
      { (Harness.Runner.default_options ~n) with
        seed;
        schedule;
        backend;
        rule;
        link_faults;
        gc_depth;
        block_bytes;
        faults;
        workload;
        trace = Some tracer }
  in
  Harness.Runner.run fleet ~until;
  (fleet, tracer)

let report_of fleet =
  match Harness.Runner.analyzer fleet with
  | Some analyzer -> Analyze.critpath_report analyzer
  | None -> Alcotest.fail "traced fleet has no analyzer"

(* the replay path: the events fed to a fresh analyzer *)
let replayed events = Analyze.critpath_report (Analyze.of_events events)

(* ---- acceptance: 500+-wave run reconciles within one tick ---- *)

let test_reconciles_500_waves () =
  let fleet, _ =
    build_traced ~schedule:Harness.Runner.Uniform_random ~block_bytes:0
      ~gc_depth:8 ~until:4000.0 ()
  in
  let ar = Option.get (Harness.Runner.analysis fleet) in
  checkb "500+ waves resolved" true (ar.Analyze.r_waves_resolved >= 500);
  let r = report_of fleet in
  checkb "500+ commits reconstructed" true (List.length r.Critpath.r_paths >= 500);
  checki "every commit has a complete causal chain"
    (List.length r.Critpath.r_paths)
    r.Critpath.r_complete;
  checki "every segment sum reconciles within one tick"
    r.Critpath.r_complete r.Critpath.r_reconciled;
  checkb "max residual within one tick" true (r.Critpath.r_max_residual <= 1.0);
  (* segment aggregates are populated and coherent *)
  let seg name =
    match List.assoc_opt name r.Critpath.r_segments with
    | Some s -> s
    | None -> Alcotest.fail ("missing segment " ^ name)
  in
  List.iter
    (fun name ->
      let s = seg name in
      checkb (name ^ " populated") true (s.Stdx.Stats.s_count > 0);
      checkb (name ^ " non-negative") true (s.Stdx.Stats.s_mean >= 0.0))
    [ "handler-hold"; "transit"; "quorum-wait"; "dag-wait"; "order-wait";
      "total" ]

(* ---- landmarks equal the reference lookup ---- *)

let landmark_reasons = [ "no-create"; "no-rbc-deliver"; "no-dag-insert" ]

(* the landmark runs use a random schedule: under the synchronous one
   every link has the same delay, so a deliver key with node and origin
   swapped, or the source's insert read for the observer's, would go
   unseen *)

(* every path against Critpath_reference, exactly: the four landmarks,
   the landmark-derived dag/order/total (also on broken chains), and the
   missing-landmark reason. Returns the number of paths that lack a
   landmark *)
let check_landmarks what (r : Critpath.report) events =
  let module R = Critpath_reference in
  let refs = R.landmarks ~observer:r.Critpath.r_observer events in
  checki (what ^ ": one path per observer a_deliver") (List.length refs)
    (List.length r.Critpath.r_paths);
  let mismatches = ref [] in
  let note at field want got =
    mismatches :=
      Printf.sprintf "%s %s: reference %s, critpath %s" at field want got
      :: !mismatches
  in
  List.iter2
    (fun (l : R.landmarks) (p : Critpath.path) ->
      let at = Printf.sprintf "(r%d,p%d)" l.R.round l.R.source in
      if (l.R.round, l.R.source) <> (p.Critpath.p_round, p.Critpath.p_source)
      then
        note at "vertex"
          (Printf.sprintf "(r%d,p%d)" l.R.round l.R.source)
          (Printf.sprintf "(r%d,p%d)" p.Critpath.p_round p.Critpath.p_source);
      List.iter
        (fun (field, want, got) ->
          let same =
            (Float.is_nan want && Float.is_nan got) || Float.equal want got
          in
          if not same then note at field (Printf.sprintf "%h" want) (Printf.sprintf "%h" got))
        [ ("created", R.nan_of l.R.created, p.Critpath.p_created);
          ("rbc_deliver", R.nan_of l.R.rbc_deliver, p.Critpath.p_rbc_deliver);
          ("inserted", R.nan_of l.R.inserted, p.Critpath.p_inserted);
          ("a_deliver", l.R.adeliver, p.Critpath.p_adeliver);
          ("dag", R.dag l, p.Critpath.p_dag);
          ("order", R.order l, p.Critpath.p_order);
          ("total", R.total l, p.Critpath.p_total) ];
      match R.missing l with
      | Some reason ->
        if p.Critpath.p_reason <> reason then
          note at "reason" reason p.Critpath.p_reason
      | None ->
        if List.mem p.Critpath.p_reason landmark_reasons then
          note at "reason" "(all landmarks)" p.Critpath.p_reason)
    refs r.Critpath.r_paths;
  Alcotest.(check (list string))
    (what ^ ": landmarks equal the reference")
    []
    (List.filteri (fun i _ -> i < 5) (List.rev !mismatches));
  List.length (List.filter (fun l -> R.missing l <> None) refs)

let full_events tracer =
  checki "the ring kept every event" 0 (Trace.dropped tracer);
  Trace.events tracer

let test_landmarks_live () =
  List.iter
    (fun (rule, backend, label) ->
      let fleet, tracer =
        build_traced ~capacity:100_000 ~schedule:Harness.Runner.Uniform_random
          ~rule ~backend ~until:60.0 ()
      in
      let events = full_events tracer in
      let what = rule.Dagrider.Ordering.rule_name ^ "/" ^ label in
      let live = report_of fleet in
      checkb (what ^ ": commits") true (live.Critpath.r_complete > 0);
      ignore (check_landmarks (what ^ " streaming") live events);
      ignore (check_landmarks (what ^ " replay") (replayed events) events))
    [ (Dagrider.Ordering.dag_rider, Harness.Runner.Bracha, "bracha");
      (Dagrider.Ordering.dag_rider, Harness.Runner.Avid, "avid");
      (Dagrider.Ordering.bullshark, Harness.Runner.Bracha, "bracha");
      (Dagrider.Ordering.bullshark, Harness.Runner.Avid, "avid") ]

let test_landmarks_lossy () =
  let fleet, tracer =
    build_traced ~capacity:200_000 ~schedule:Harness.Runner.Uniform_random
      ~link_faults:
        { Harness.Runner.default_link_faults with
          lf_drop = 0.1;
          lf_duplicate = 0.02 }
      ~until:60.0 ()
  in
  let events = full_events tracer in
  checkb "the links retransmitted" true
    (List.exists
       (fun e ->
         match e.Trace.kind with Trace.Retransmit _ -> true | _ -> false)
       events);
  ignore (check_landmarks "lossy streaming" (report_of fleet) events);
  ignore (check_landmarks "lossy replay" (replayed events) events)

let test_landmarks_truncated () =
  let _, tracer =
    build_traced ~capacity:3000 ~schedule:Harness.Runner.Uniform_random
      ~until:60.0 ()
  in
  checkb "the ring wrapped" true (Trace.dropped tracer > 0);
  let r = replayed (Trace.events tracer) in
  checkb "truncation reported" true r.Critpath.r_truncated;
  let missing =
    check_landmarks "truncated window" r (Trace.events tracer)
  in
  checkb "some paths lost a landmark to the wrap" true (missing > 0)

(* a stream that repeats every landmark event later: the first one
   seen must win, as in the reference *)
let test_landmarks_first_wins () =
  let _, tracer =
    build_traced ~capacity:100_000 ~schedule:Harness.Runner.Uniform_random
      ~until:60.0 ()
  in
  let events = full_events tracer in
  let last_seq = List.fold_left (fun acc e -> max acc e.Trace.seq) 0 events in
  let repeats =
    List.filter_map
      (fun e ->
        match e.Trace.kind with
        | Trace.Vertex_created _ | Trace.Vertex_added _
        | Trace.Rbc_phase { phase = "deliver"; _ } ->
          Some e
        | _ -> None)
      events
    |> List.mapi (fun i e ->
           { e with Trace.seq = last_seq + 1 + i; time = e.Trace.time +. 1000.0 })
  in
  let events = events @ repeats in
  let r = replayed events in
  checkb "paths reconstructed" true (r.Critpath.r_complete > 0);
  ignore (check_landmarks "repeated landmarks" r events)

(* ---- correlation ids survive the JSONL round-trip ---- *)

let arb_wire_event =
  let open QCheck in
  let gen =
    Gen.(
      let* src = int_bound 9 in
      let* dst = int_bound 9 in
      let* id = map (fun i -> i - 1) (int_bound 500) in
      let* cause = map (fun i -> i - 1) (int_bound 500) in
      let* kind =
        oneofl
          [ Trace.Send { src; dst; msg_kind = "bracha-echo"; bits = 64; id };
            Trace.Recv { src; dst; msg_kind = "bracha-ready"; id };
            Trace.Drop { src; dst; msg_kind = "avid-echo"; reason = "fault"; id };
            Trace.Retransmit
              { src; dst; msg_kind = "gossip-relay"; seq = 3; attempt = 2; id };
            Trace.Corrupt_reject { src; dst; msg_kind = "bracha-init"; id } ]
      in
      let* seq = int_bound 10_000 in
      let* time = Gen.float_bound_inclusive 1000.0 in
      Gen.return { Trace.seq; time; cause; kind })
  in
  QCheck.make ~print:(fun e -> Stdx.Json.to_string (Trace.event_to_json e)) gen

let prop_jsonl_round_trip_ids =
  QCheck.Test.make ~name:"jsonl round-trips id and cause fields" ~count:500
    arb_wire_event (fun e ->
      match Trace.event_of_json (Trace.event_to_json e) with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok e' ->
        e'.Trace.seq = e.Trace.seq
        && e'.Trace.cause = e.Trace.cause
        && e'.Trace.kind = e.Trace.kind)

(* ---- pre-correlation-id trace files still parse and analyze ---- *)

(* strip one "field":value pair (and the comma that binds it) from a
   JSON line — enough to regenerate the JSONL a pre-correlation-id
   build would have written *)
let strip_field name line =
  let needle = Printf.sprintf "\"%s\":" name in
  let nlen = String.length needle in
  let llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
    let stop = ref (start + nlen) in
    while
      !stop < llen && (match line.[!stop] with '-' | '0' .. '9' -> true | _ -> false)
    do
      incr stop
    done;
    let stop = !stop in
    if start > 0 && line.[start - 1] = ',' then
      String.sub line 0 (start - 1) ^ String.sub line stop (llen - stop)
    else if stop < llen && line.[stop] = ',' then
      String.sub line 0 start ^ String.sub line (stop + 1) (llen - stop - 1)
    else String.sub line 0 start ^ String.sub line stop (llen - stop)

let test_pre_id_trace_replays () =
  let _, tracer = build_traced ~capacity:100_000 ~until:60.0 () in
  let stripped =
    String.concat "\n"
      (List.map
         (fun line -> strip_field "cause" (strip_field "id" line))
         (String.split_on_char '\n' (Trace.to_jsonl tracer)))
  in
  checkb "surgery removed the id fields" true
    (not
       (List.exists
          (fun line ->
            strip_field "id" line <> line || strip_field "cause" line <> line)
          (String.split_on_char '\n' stripped)));
  let events =
    match Trace.events_of_jsonl stripped with
    | Ok evs -> evs
    | Error msg -> Alcotest.fail ("pre-id trace rejected: " ^ msg)
  in
  checki "every event survived the strip" (List.length (Trace.events tracer))
    (List.length events);
  List.iter
    (fun e ->
      checki "missing cause defaults to -1" (-1) e.Trace.cause;
      match e.Trace.kind with
      | Trace.Send { id; _ } | Trace.Recv { id; _ } | Trace.Drop { id; _ }
      | Trace.Retransmit { id; _ } | Trace.Corrupt_reject { id; _ } ->
        checki "missing id defaults to -1" (-1) id
      | _ -> ())
    events;
  (* the analyzer and forensics run unchanged on the old format... *)
  let acc = Analyze.of_events events in
  let ar = Analyze.finalize acc in
  let ar_fresh = Analyze.finalize (Analyze.of_events (Trace.events tracer)) in
  checki "analyzer orders the same log" ar_fresh.Analyze.r_ordered
    ar.Analyze.r_ordered;
  checki "analyzer resolves the same waves" ar_fresh.Analyze.r_waves_resolved
    ar.Analyze.r_waves_resolved;
  let fx = Analyze.ledger acc in
  checkb "forensics still builds stories" true (Forensics.nodes fx <> []);
  (* ...and the critical-path tracer degrades gracefully: landmarks
     resolve (so per-commit dag/order segments exist) but no causal
     chain can be walked without ids *)
  let r = Analyze.critpath_report acc in
  checkb "commits still reconstructed" true (r.Critpath.r_paths <> []);
  checki "no chain is complete without ids" 0 r.Critpath.r_complete;
  checkb "incomplete reasons reported" true (r.Critpath.r_incomplete <> [])

(* ---- straggler attribution: a slowed node dominates quorum waits ---- *)

(* delaying one node of n=4 alone is NOT enough to put it on the
   critical path: the 2f+1 quorum completes with the three fast nodes
   and the protocol never waits for the laggard (which is DAG-Rider's
   whole point). Crashing one fast node forces the quorum to include
   the slowed one, so every commit's quorum wait is charged to it. *)
let test_straggler_named () =
  let slow_node = 3 in
  let schedule =
    Harness.Runner.Custom
      (fun rng ->
        Net.Sched.delay_process
          ~inner:(Net.Sched.uniform_random ~rng)
          ~victim:slow_node ~factor:4.0)
  in
  let fleet, _ =
    build_traced ~seed:7 ~schedule ~faults:[ Harness.Runner.Crash 1 ]
      ~until:400.0 ()
  in
  let r = report_of fleet in
  checkb "run produced commits" true (List.length r.Critpath.r_paths >= 20);
  checkb "chains complete under the slow schedule" true
    (r.Critpath.r_complete > 0);
  match r.Critpath.r_stragglers with
  | (node, count, waited) :: _ ->
    checki "slowed node dominates quorum waits" slow_node node;
    checkb "it straggled on most commits" true
      (count * 2 > r.Critpath.r_complete);
    checkb "accumulated wait is positive" true (waited > 0.0)
  | [] -> Alcotest.fail "no stragglers attributed"

(* ---- workload runs attribute per-tx mempool dwell ---- *)

let test_mempool_dwell_attributed () =
  let fleet, _ =
    build_traced ~capacity:100_000
      ~workload:(Some Harness.Runner.default_workload) ~until:60.0 ()
  in
  let r = report_of fleet in
  checkb "commits reconstructed" true (r.Critpath.r_complete > 0);
  let with_txs =
    List.filter (fun p -> p.Critpath.p_txs > 0) r.Critpath.r_paths
  in
  checkb "some commits carry attributed txs" true (with_txs <> []);
  List.iter
    (fun p ->
      checkb "per-tx dwell is non-negative" true (p.Critpath.p_tx_wait >= 0.0))
    with_txs;
  (* mempool-wait leads the segment table on workload runs... *)
  (match r.Critpath.r_segments with
  | ("mempool-wait", s) :: _ ->
    checkb "mempool-wait populated" true (s.Stdx.Stats.s_count > 0);
    checkb "mempool-wait mean non-negative" true (s.Stdx.Stats.s_mean >= 0.0)
  | _ -> Alcotest.fail "mempool-wait segment missing on a workload run");
  (* ...without perturbing reconciliation: dwell is pre-creation time,
     outside the telescoping segments *)
  checki "reconciliation unaffected by workload attribution"
    r.Critpath.r_complete r.Critpath.r_reconciled;
  (* and the waterfall header carries the tx info *)
  (match List.find_opt (fun p -> p.Critpath.p_txs > 0) r.Critpath.r_paths with
  | Some p -> checkb "waterfall shows mempool wait" true
      (contains (Critpath.waterfall p) "mempool wait")
  | None -> ());
  (* a workload-free run reports no mempool-wait segment at all *)
  let fleet0, _ = build_traced ~until:30.0 () in
  let r0 = report_of fleet0 in
  checkb "no mempool-wait segment without a workload" true
    (List.assoc_opt "mempool-wait" r0.Critpath.r_segments = None)

(* ---- JSONL replay matches live collection ---- *)

let test_replay_matches_live () =
  let fleet, tracer = build_traced ~capacity:100_000 ~until:60.0 () in
  let live = report_of fleet in
  let file = Filename.temp_file "critpath" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc (Trace.to_jsonl tracer);
      close_out oc;
      let replay =
        match Trace.events_of_jsonl_file file with
        | Ok events ->
          Critpath.finalize ~observer:live.Critpath.r_observer
            (Analyze.critpath (Analyze.of_events events))
        | Error msg -> Alcotest.fail msg
      in
      checki "same observer" live.Critpath.r_observer replay.Critpath.r_observer;
      checki "same commit count"
        (List.length live.Critpath.r_paths)
        (List.length replay.Critpath.r_paths);
      checki "same complete count" live.Critpath.r_complete
        replay.Critpath.r_complete;
      checki "same reconciled count" live.Critpath.r_reconciled
        replay.Critpath.r_reconciled;
      (* segment means agree to the digit the reports print *)
      List.iter2
        (fun (name, (a : Stdx.Stats.summary)) (name', (b : Stdx.Stats.summary)) ->
          checkb ("segment list aligned: " ^ name) true (name = name');
          checki ("segment n: " ^ name) a.s_count b.s_count;
          checkb ("segment mean: " ^ name) true
            (Float.abs (a.s_mean -. b.s_mean) < 1e-9))
        live.Critpath.r_segments replay.Critpath.r_segments)

(* ---- pinned reconciliation counts at fleet scale ---- *)

(* a traced synchronous n=10 run: every commit reconstructs a complete
   chain and reconciles; a reconstruction regression shows up as a count
   drop before it shows up as wrong attributions *)
let test_n10_sync_counts_pinned () =
  let fleet, _ = build_traced ~n:10 ~until:60.0 () in
  let r = report_of fleet in
  checki "commits" 118 (List.length r.Critpath.r_paths);
  checki "complete" 118 r.Critpath.r_complete;
  checki "reconciled" 118 r.Critpath.r_reconciled

(* ---- rendering smoke: waterfall, report, DOT ---- *)

let test_render_and_dot () =
  let fleet, _ = build_traced ~until:60.0 () in
  let r = report_of fleet in
  let txt = Critpath.render ~top:2 r in
  checkb "render names the observer" true
    (String.length txt > 0
    && contains txt
         (Printf.sprintf "observer p%d" r.Critpath.r_observer));
  checkb "render carries the reconciliation line" true
    (contains txt "reconciled");
  match List.find_opt (fun p -> p.Critpath.p_complete) r.Critpath.r_paths with
  | None -> Alcotest.fail "no complete path to render"
  | Some p ->
    let wf = Critpath.waterfall p in
    checkb "waterfall shows the quorum segment" true
      (contains wf "quorum wait");
    checkb "waterfall states the residual" true
      (contains wf "residual");
    let dot = Critpath.dot_path p in
    checkb "dot opens a digraph" true (contains dot "digraph");
    checkb "dot chains into a_deliver" true
      (contains dot "adeliver");
    checkb "dot styles come from the render palette" true
      (contains dot "fillcolor=gold")

let () =
  Alcotest.run "critpath"
    [ ( "acceptance",
        [ Alcotest.test_case "500+ waves reconcile within a tick" `Slow
            test_reconciles_500_waves ] );
      ( "landmarks",
        [ Alcotest.test_case "live fleets, both rules, bracha and avid"
            `Quick test_landmarks_live;
          Alcotest.test_case "lossy run" `Quick test_landmarks_lossy;
          Alcotest.test_case "ring-truncated window" `Quick
            test_landmarks_truncated;
          Alcotest.test_case "first landmark wins" `Quick
            test_landmarks_first_wins ] );
      ( "jsonl",
        [ QCheck_alcotest.to_alcotest prop_jsonl_round_trip_ids;
          Alcotest.test_case "pre-id traces still analyze" `Quick
            test_pre_id_trace_replays;
          Alcotest.test_case "replay matches live" `Quick
            test_replay_matches_live ] );
      ( "pinned",
        [ Alcotest.test_case "n=10 sync counts" `Quick
            test_n10_sync_counts_pinned ] );
      ( "attribution",
        [ Alcotest.test_case "slowed node named as straggler" `Quick
            test_straggler_named;
          Alcotest.test_case "workload runs attribute mempool dwell" `Quick
            test_mempool_dwell_attributed ] );
      ( "render",
        [ Alcotest.test_case "waterfall, report and dot" `Quick
            test_render_and_dot ] )
    ]
