(* Tests for the protocol analyzer: the PR's acceptance criteria (a
   500+-wave honest run must report waves-per-commit within the paper's
   3/2 bound and chain quality within (f+1)/(2f+1); an injected
   partition stall must be flagged by the anomaly detector), the JSONL
   replay and JSON report paths, the classified DOT export, and the
   metrics edge cases the analyzer leans on (empty-log chain quality,
   all-Byzantine prefixes, single-sample percentiles, per-process
   latency corner cases). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let build_traced ?(n = 4) ?(seed = 42) ?(until = 40.0) ?(block_bytes = 32)
    ?gc_depth ?(capacity = 4096) ?(schedule = Harness.Runner.Uniform_random)
    ?(faults = []) ?(rule = Dagrider.Ordering.dag_rider) () =
  let tracer = Trace.create ~capacity () in
  let fleet =
    Harness.Runner.build
      { (Harness.Runner.default_options ~n) with
        seed;
        rule;
        schedule;
        block_bytes;
        gc_depth;
        faults;
        trace = Some tracer }
  in
  Harness.Runner.run fleet ~until;
  (fleet, tracer)

(* ---- acceptance: 500+-wave honest run within the paper's bounds ---- *)

let test_honest_500_waves () =
  (* GC keeps the causal-history walks bounded so a 500+-wave run stays
     fast; the analyzer sees the full stream through its sink even
     though the ring only retains the newest 4096 events *)
  let fleet, _ =
    build_traced ~block_bytes:0 ~gc_depth:8 ~until:4000.0 ()
  in
  let r = Option.get (Harness.Runner.analysis fleet) in
  checkb "500+ waves resolved" true (r.Analyze.r_waves_resolved >= 500);
  checkb "truncation not reported (sink saw everything)" false
    r.Analyze.r_truncated;
  checkb "waves per commit within Claim 6 bound" true
    (r.Analyze.r_waves_per_commit <= 1.5);
  checkb "claim6_ok agrees" true r.Analyze.r_claim6_ok;
  checkf "chain quality bound is (f+1)/(2f+1)" (2.0 /. 3.0)
    r.Analyze.r_chain_quality_bound;
  checkb "chain quality holds" true
    r.Analyze.r_chain_quality.Metrics.Chain_quality.holds;
  checkb "chain quality worst ratio >= bound" true
    (r.Analyze.r_chain_quality.Metrics.Chain_quality.worst_prefix_ratio
     >= r.Analyze.r_chain_quality_bound);
  checkb "ordered a substantial log" true (r.Analyze.r_ordered > 1000);
  (* wave records are ascending and the last running mean matches *)
  let waves = List.map (fun w -> w.Analyze.w_wave) r.Analyze.r_waves in
  checkb "waves ascending" true (List.sort compare waves = waves)

(* ---- acceptance: injected partition stall is flagged ---- *)

let test_partition_stall_flagged () =
  (* quorum-splitting 2/2 partition for 30 time units mid-run: rounds
     and commits stop until the window closes, which the stall detector
     must flag *)
  let schedule =
    Harness.Runner.Custom
      (fun rng ->
        let inner = Net.Sched.uniform_random ~rng in
        Net.Sched.with_window ~inner ~from_time:30.0 ~until_time:60.0
          ~during:
            (Net.Sched.partition ~inner ~left:(fun i -> i < 2) ~factor:60.0))
  in
  let fleet, _ = build_traced ~schedule ~until:120.0 () in
  let r = Option.get (Harness.Runner.analysis fleet) in
  let is_stall = function
    | Analyze.Round_stall _ | Analyze.Commit_stall _
    | Analyze.Quorum_starvation _ ->
      true
    | Analyze.Skip_streak _ | Analyze.Slow_wave _ | Analyze.Lossy_link _
    | Analyze.Attacker_active _ | Analyze.Sync_rejections _ ->
      false
  in
  checkb "at least one stall anomaly flagged" true
    (List.exists is_stall r.Analyze.r_anomalies);
  (* the run recovers after the window: the horizon is not starved *)
  checkb "still made progress overall" true (r.Analyze.r_waves_resolved >= 5)

let test_honest_run_no_anomalies () =
  let fleet, _ = build_traced ~until:60.0 () in
  let r = Option.get (Harness.Runner.analysis fleet) in
  checki "clean honest run" 0 (List.length r.Analyze.r_anomalies)

(* ---- replay: a JSONL round trip agrees with the retained window ---- *)

(* the replay path: the dump fed to a fresh analyzer, finalized under
   the rule its certificates name *)
let replay_report path =
  Result.map
    (fun events ->
      let acc = Analyze.of_events events in
      Analyze.finalize
        ~config:(Analyze.with_certified_rule Analyze.default_config acc)
        acc)
    (Trace.events_of_jsonl_file path)

let with_jsonl_dump tracer k =
  let path = Filename.temp_file "analyze" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Trace.to_jsonl tracer);
      close_out oc;
      k path)

let test_jsonl_replay_matches_live () =
  let _, tracer = build_traced ~capacity:65536 ~until:40.0 () in
  checki "nothing dropped at this capacity" 0 (Trace.dropped tracer);
  let live = Analyze.finalize (Analyze.of_events (Trace.events tracer)) in
  with_jsonl_dump tracer (fun path ->
      match replay_report path with
      | Error e -> Alcotest.fail e
      | Ok replayed ->
        checki "events" live.Analyze.r_events replayed.Analyze.r_events;
        checki "ordered" live.Analyze.r_ordered replayed.Analyze.r_ordered;
        checki "waves resolved" live.Analyze.r_waves_resolved
          replayed.Analyze.r_waves_resolved;
        checkf "waves per commit" live.Analyze.r_waves_per_commit
          replayed.Analyze.r_waves_per_commit;
        checki "anomaly count"
          (List.length live.Analyze.r_anomalies)
          (List.length replayed.Analyze.r_anomalies))

(* the replay takes the rule from the certificates, so a Bullshark trace
   replayed with the default config reads as Bullshark: 2-round waves
   and the 2.0 bound, exactly as the live run's analyzer reported *)
let test_jsonl_replay_reads_rule_from_certificates () =
  let fleet, tracer =
    build_traced ~capacity:65536 ~until:60.0 ~rule:Dagrider.Ordering.bullshark ()
  in
  checki "nothing dropped at this capacity" 0 (Trace.dropped tracer);
  let live = Option.get (Harness.Runner.analysis fleet) in
  checki "live: waves resolved" 16 live.Analyze.r_waves_resolved;
  checkf "live: bound" 2.0 live.Analyze.r_waves_bound;
  with_jsonl_dump tracer (fun path ->
      match replay_report path with
      | Error e -> Alcotest.fail e
      | Ok replayed ->
        Alcotest.(check string)
          "replayed report = live report"
          (Stdx.Json.to_string (Analyze.report_to_json live))
          (Stdx.Json.to_string (Analyze.report_to_json replayed)))

let test_jsonl_missing_file () =
  match replay_report "/nonexistent/definitely-not-here.jsonl" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

let test_report_json_parses () =
  let fleet, _ = build_traced ~until:40.0 () in
  let json = Option.get (Harness.Runner.analysis_report fleet) in
  let s = Stdx.Json.to_string json in
  match Stdx.Json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    let member k =
      match Stdx.Json.member k parsed with
      | Some v -> v
      | None -> Alcotest.fail (k ^ " missing from report JSON")
    in
    checkb "processes" true
      (Stdx.Json.to_int_opt (member "processes") = Some 4);
    checkb "waves_per_commit is a number" true
      (Stdx.Json.to_float_opt (member "waves_per_commit") <> None);
    checkb "claim6_bound" true
      (Stdx.Json.to_float_opt (member "claim6_bound") = Some 1.5);
    (match member "waves" with
    | Stdx.Json.List (_ :: _) -> ()
    | _ -> Alcotest.fail "waves should be a non-empty list");
    (match member "anomalies" with
    | Stdx.Json.List _ -> ()
    | _ -> Alcotest.fail "anomalies should be a list")

(* ---- DOT export ---- *)

let test_dot_classified_output () =
  let fleet, _ = build_traced ~until:60.0 () in
  let r = Option.get (Harness.Runner.analysis fleet) in
  let dag = Dagrider.Node.dag (Harness.Runner.node fleet 0) in
  let out = Analyze.dot ~dag r in
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "is a digraph" true (contains out "digraph");
  checkb "legend present" true (contains out "legend");
  checkb "committed leaders gold" true (contains out "fillcolor=gold");
  checkb "causal history shaded" true (contains out "fillcolor=gray90");
  (* explicit shade target: an uncommitted wave number shades nothing
     (the legend comment still mentions gray90, so match the attribute) *)
  let out2 = Analyze.dot ~shade_wave:9999 ~dag r in
  checkb "bogus shade wave leaves DAG unshaded" false
    (contains out2 "fillcolor=gray90")

(* ---- metrics edge cases (satellite #3) ---- *)

let test_chain_quality_empty_log () =
  let r =
    Metrics.Chain_quality.audit ~f:1 ~correct:(fun _ -> true) ~sources:[]
  in
  checki "total" 0 r.Metrics.Chain_quality.total;
  checki "correct entries" 0 r.Metrics.Chain_quality.correct_entries;
  checki "worst prefix len" 0 r.Metrics.Chain_quality.worst_prefix_len;
  checkf "worst prefix ratio" 1.0 r.Metrics.Chain_quality.worst_prefix_ratio;
  checkb "vacuously holds" true r.Metrics.Chain_quality.holds

let test_chain_quality_all_byzantine_prefix () =
  (* f=1: the first (2f+1)-prefix is entirely Byzantine, so the bound
     fails there no matter how correct the tail is *)
  let sources = [ 0; 0; 0; 1; 2; 3; 1; 2; 3 ] in
  let r =
    Metrics.Chain_quality.audit ~f:1 ~correct:(fun i -> i <> 0) ~sources
  in
  checkb "violated" false r.Metrics.Chain_quality.holds;
  checki "worst prefix is the first quorum" 3
    r.Metrics.Chain_quality.worst_prefix_len;
  checkf "its ratio is zero" 0.0 r.Metrics.Chain_quality.worst_prefix_ratio;
  checki "total still audited" 9 r.Metrics.Chain_quality.total

let test_single_sample_percentiles () =
  let s = Stdx.Stats.create () in
  Stdx.Stats.add s 7.25;
  checkf "p50 of one sample" 7.25 (Stdx.Stats.percentile s 50.0);
  checkf "p99 of one sample" 7.25 (Stdx.Stats.percentile s 99.0);
  checkf "p0 of one sample" 7.25 (Stdx.Stats.percentile s 0.0);
  let reg = Metrics.Registry.create () in
  Metrics.Registry.observe reg "solo" 3.5;
  let snap = Metrics.Registry.snapshot reg in
  let h = List.assoc "solo" snap.Metrics.Registry.histograms in
  checki "count" 1 h.Stdx.Stats.s_count;
  checkf "p50" 3.5 h.Stdx.Stats.s_p50;
  checkf "p99" 3.5 h.Stdx.Stats.s_p99

let test_per_process_latency_edges () =
  let l = Metrics.Latency.create () in
  (* never proposed: deliveries are ignored *)
  Metrics.Latency.delivered l "ghost" ~process:0 ~now:5.0;
  checkb "never proposed -> []" true
    (Metrics.Latency.per_process_latency l "ghost" = []);
  checkb "never proposed -> no first-delivery" true
    (Metrics.Latency.first_delivery_latency l "ghost" = None);
  (* proposed but undelivered *)
  Metrics.Latency.proposed l "pending" ~now:1.0;
  checkb "undelivered -> []" true
    (Metrics.Latency.per_process_latency l "pending" = []);
  checkb "undelivered is audited" true
    (List.mem "pending" (Metrics.Latency.undelivered l));
  (* only the first delivery at each process counts *)
  Metrics.Latency.proposed l "block" ~now:10.0;
  Metrics.Latency.delivered l "block" ~process:1 ~now:12.0;
  Metrics.Latency.delivered l "block" ~process:1 ~now:50.0;
  Metrics.Latency.delivered l "block" ~process:0 ~now:13.5;
  checkb "first delivery wins, sorted by process" true
    (Metrics.Latency.per_process_latency l "block" = [ (0, 3.5); (1, 2.0) ]);
  checkb "re-proposal keeps the original timestamp" true
    (Metrics.Latency.proposed l "block" ~now:0.0;
     Metrics.Latency.per_process_latency l "block" = [ (0, 3.5); (1, 2.0) ])

(* ---- wave records against the ordering's own decisions ----

   The ground truth comes from outside the analyzer. The on_commit hook
   gives every commit the observer made and the virtual time it fired.
   A wave the observer processed but never committed was skipped; it
   processes waves in order while their leader is known, up to the last
   wave it completed. A trace sink fires at the observer's skip
   decision, while its DAG is still exactly what the ordering read, and
   recomputes [Ordering.skip_evidence] there. *)

let skip_label = function
  | Dagrider.Ordering.Leader_absent -> "leader vertex absent"
  | Dagrider.Ordering.Under_supported -> "leader under-supported"

let check_wave_records ?(schedule = Harness.Runner.Uniform_random)
    ?(faults = []) ~rule ~seed ~until () =
  let module O = Dagrider.Ordering in
  let observer = 0 in
  let fleet = ref None in
  let commits = ref [] and skip_reasons = Hashtbl.create 16 in
  let node () = Harness.Runner.node (Option.get !fleet) observer in
  let tracer = Trace.create ~capacity:1024 () in
  Trace.add_sink tracer (fun e ->
      match e.Trace.kind with
      | Trace.Skip_cert { node = o; wave; _ } when o = observer ->
        let nd = node () in
        let leader_source = Option.get (Dagrider.Node.leader_of nd ~wave) in
        let reason, _ =
          O.skip_evidence ~rule ~dag:(Dagrider.Node.dag nd) ~wave
            ~leader_source
        in
        Hashtbl.replace skip_reasons wave (skip_label reason)
      | _ -> ());
  let on_commit ~node:i (c : O.commit) =
    if i = observer then
      commits :=
        (c, Sim.Engine.now (Harness.Runner.engine (Option.get !fleet)))
        :: !commits
  in
  fleet :=
    Some
      (Harness.Runner.build
         { (Harness.Runner.default_options ~n:4) with
           seed;
           rule;
           schedule;
           faults;
           on_commit = Some on_commit;
           trace = Some tracer });
  Harness.Runner.run (Option.get !fleet) ~until;
  let r = Option.get (Harness.Runner.analysis (Option.get !fleet)) in
  checki "observer" observer r.Analyze.r_observer;
  let record w =
    match List.find_opt (fun x -> x.Analyze.w_wave = w) r.Analyze.r_waves with
    | Some x -> x
    | None -> Alcotest.failf "no record for wave %d" w
  in
  let commits = List.rev !commits in
  List.iter
    (fun ((c : O.commit), at) ->
      let x = record c.wave in
      let tag what = Printf.sprintf "wave %d %s" c.wave what in
      checkb (tag "outcome") true
        (x.Analyze.w_outcome
        = if c.direct then Analyze.Committed_direct
          else Analyze.Committed_chained c.anchor);
      checkb (tag "leader") true
        (x.Analyze.w_leader = Some c.leader.Dagrider.Vertex.source);
      checkb (tag "committed_at") true (x.Analyze.w_committed_at = Some at);
      checki (tag "delivered") (List.length c.delivered) x.Analyze.w_delivered)
    commits;
  let committed w = List.exists (fun ((c : O.commit), _) -> c.wave = w) commits in
  let nd = node () in
  let rec last_processed w =
    if
      w + 1 <= Dagrider.Node.waves_completed nd
      && Dagrider.Node.leader_of nd ~wave:(w + 1) <> None
    then last_processed (w + 1)
    else w
  in
  let skipped =
    List.filter (fun w -> not (committed w))
      (List.init (last_processed 0) (fun i -> i + 1))
  in
  let recorded_skips =
    List.filter_map
      (fun x ->
        match x.Analyze.w_outcome with
        | Analyze.Skipped reason -> Some (x.Analyze.w_wave, reason)
        | _ -> None)
      r.Analyze.r_waves
  in
  checkb "skipped waves" true (List.map fst recorded_skips = skipped);
  List.iter
    (fun (w, reason) ->
      Alcotest.(check string)
        (Printf.sprintf "wave %d skip reason" w)
        (Hashtbl.find skip_reasons w) reason;
      checkb
        (Printf.sprintf "wave %d skipped leader" w)
        true
        ((record w).Analyze.w_leader = Dagrider.Node.leader_of nd ~wave:w))
    recorded_skips;
  checki "direct + chained = hook commits" (List.length commits)
    (r.Analyze.r_commits_direct + r.Analyze.r_commits_chained);
  (List.length skipped, r.Analyze.r_commits_chained)

let test_wave_records_match_ground_truth () =
  List.iter
    (fun rule ->
      let name = rule.Dagrider.Ordering.rule_name in
      ignore (check_wave_records ~rule ~seed:42 ~until:60.0 ());
      let skips, _ =
        check_wave_records ~faults:[ Harness.Runner.Crash 3 ] ~rule ~seed:1
          ~until:200.0 ()
      in
      checkb (name ^ ": crash run skips") true (skips > 0);
      let skips, chained =
        check_wave_records ~schedule:Harness.Runner.Skewed_random ~rule
          ~seed:2 ~until:200.0 ()
      in
      checkb (name ^ ": skewed run skips and chains") true
        (skips > 0 && chained > 0))
    Dagrider.Ordering.rules

(* ---- faulted runs through the runner's analyzer config ---- *)

let test_byzantine_run_audited () =
  let fleet, _ =
    build_traced ~until:60.0 ~faults:[ Harness.Runner.Byzantine_live 0 ] ()
  in
  let r = Option.get (Harness.Runner.analysis fleet) in
  (* the runner marks p0 Byzantine for the audit and observes from the
     lowest correct process *)
  checkb "observer is correct" true (r.Analyze.r_observer <> 0);
  let cq = r.Analyze.r_chain_quality in
  checkb "byzantine entries counted" true
    (cq.Metrics.Chain_quality.correct_entries < cq.Metrics.Chain_quality.total);
  checkb "bound still holds with one live Byzantine" true
    cq.Metrics.Chain_quality.holds

(* a fuzz attacker acts only on its own clock, so its broadcasts are
   the only trace evidence of it: the anomaly list must still name it *)
let test_fuzz_attacker_named () =
  let fleet, _ =
    build_traced ~until:20.0
      ~faults:
        [ Harness.Runner.Adversary
            (3, { Attack.strategy = Attack.Fuzz; victims = [] }) ]
      ()
  in
  let r = Option.get (Harness.Runner.analysis fleet) in
  let actions =
    List.filter_map
      (function
        | Analyze.Attacker_active { node = 3; strategy = "fuzz"; actions } ->
          Some actions
        | _ -> None)
      r.Analyze.r_anomalies
  in
  (* one broadcast at +0.5 and one per time unit after it *)
  checkb "fuzz attacker listed once, with its 20 broadcasts" true
    (actions = [ 20 ])

let () =
  Alcotest.run "analyze"
    [ ( "acceptance",
        [ Alcotest.test_case "honest 500+-wave run within bounds" `Slow
            test_honest_500_waves;
          Alcotest.test_case "partition stall flagged" `Quick
            test_partition_stall_flagged;
          Alcotest.test_case "honest run has no anomalies" `Quick
            test_honest_run_no_anomalies;
          Alcotest.test_case "wave records match ground truth" `Quick
            test_wave_records_match_ground_truth ] );
      ( "replay",
        [ Alcotest.test_case "jsonl replay matches live" `Quick
            test_jsonl_replay_matches_live;
          Alcotest.test_case "jsonl replay reads the certified rule" `Quick
            test_jsonl_replay_reads_rule_from_certificates;
          Alcotest.test_case "missing file is an error" `Quick
            test_jsonl_missing_file;
          Alcotest.test_case "report JSON parses" `Quick
            test_report_json_parses ] );
      ( "dot",
        [ Alcotest.test_case "classified output" `Quick
            test_dot_classified_output ] );
      ( "metrics-edges",
        [ Alcotest.test_case "chain quality: empty log" `Quick
            test_chain_quality_empty_log;
          Alcotest.test_case "chain quality: all-Byzantine prefix" `Quick
            test_chain_quality_all_byzantine_prefix;
          Alcotest.test_case "single-sample percentiles" `Quick
            test_single_sample_percentiles;
          Alcotest.test_case "per-process latency edges" `Quick
            test_per_process_latency_edges;
          Alcotest.test_case "byzantine run audited" `Quick
            test_byzantine_run_audited;
          Alcotest.test_case "fuzz attacker named" `Quick
            test_fuzz_attacker_named ] ) ]
