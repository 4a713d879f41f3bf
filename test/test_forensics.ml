(* Tests for commit forensics: the provenance-certificate collector,
   the explain renderings, JSONL round-tripping, skip evidence under
   both rules, the oracle's independent certificate re-validation over
   500+-wave runs, and divergence pinpointing on the known diverging
   sabotage seed. *)

let checkb = Alcotest.(check bool)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let build_traced ?(n = 4) ?(seed = 42) ?(until = 40.0)
    ?(rule = Dagrider.Ordering.dag_rider)
    ?(schedule = Harness.Runner.Uniform_random) ?(block_bytes = 0) ?gc_depth
    ?(capacity = 4096) ?(faults = []) () =
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

let forensics_of fleet =
  Analyze.ledger (Option.get (Harness.Runner.analyzer fleet))

(* the replay path: the events fed to a fresh analyzer *)
let ledger_of_events events = Analyze.ledger (Analyze.of_events events)

(* ---- certificate round-trip: JSONL export -> replay -> identical ---- *)

let test_jsonl_roundtrip () =
  (* the ring must retain the whole run so the JSONL dump carries every
     certificate the live sink saw *)
  let fleet, tracer =
    build_traced ~seed:1 ~until:200.0 ~capacity:Trace.default_capacity
      ~faults:[ Harness.Runner.Crash 3 ] ()
  in
  let live = forensics_of fleet in
  let path = Filename.temp_file "forensics" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Trace.to_jsonl tracer);
      close_out oc;
      let replayed =
        match Trace.events_of_jsonl_file path with
        | Ok events -> ledger_of_events events
        | Error e -> Alcotest.fail ("replay failed: " ^ e)
      in
      checki "ring did not wrap" 0 (Trace.dropped tracer);
      checkb "same node set" true
        (Forensics.nodes live = Forensics.nodes replayed);
      checkb "same rule" true
        (Forensics.rule_name live = Forensics.rule_name replayed);
      List.iter
        (fun node ->
          checks
            (Printf.sprintf "p%d summary round-trips" node)
            (Forensics.summary live ~node)
            (Forensics.summary replayed ~node);
          List.iter
            (fun st ->
              let w = st.Forensics.st_wave in
              checks
                (Printf.sprintf "p%d wave %d explain round-trips" node w)
                (Forensics.explain_wave live ~node ~wave:w)
                (Forensics.explain_wave replayed ~node ~wave:w);
              checks
                (Printf.sprintf "p%d wave %d json round-trips" node w)
                (Stdx.Json.to_string
                   (Forensics.explain_wave_json live ~node ~wave:w))
                (Stdx.Json.to_string
                   (Forensics.explain_wave_json replayed ~node ~wave:w)))
            (Forensics.stories live ~node))
        (Forensics.nodes live))

(* ---- dagrider skip evidence: coin lands on a crashed leader ---- *)

let test_dagrider_skip_evidence () =
  (* p3 crashed: whenever the wave-4 coin picks it the leader vertex is
     absent and the wave is skipped with leader-absent evidence (seed 1
     produces several such waves within the horizon) *)
  let fleet, _ =
    build_traced ~seed:1 ~until:200.0 ~faults:[ Harness.Runner.Crash 3 ] ()
  in
  let fx = forensics_of fleet in
  let node = 0 in
  let skips =
    List.filter
      (fun st ->
        st.Forensics.st_commit = None && st.Forensics.st_skip <> None)
      (Forensics.stories fx ~node)
  in
  checkb "at least one finally skipped wave" true (skips <> []);
  List.iter
    (fun st ->
      let s = (Option.get st.Forensics.st_skip).Forensics.cert in
      checks "skip names the crashed leader's absence" "leader-absent"
        s.Trace.reason;
      checki "absent leader is the crashed process" 3
        s.Trace.leader_source;
      checks "coin schedule evidence" "coin" s.Trace.sched;
      checkb "absent leader cites no supporters" true
        (s.Trace.support = []);
      let text = Forensics.explain_wave fx ~node ~wave:st.Forensics.st_wave in
      checkb "explain shows the skip" true
        (contains text "skipped");
      checkb "explain shows it never recovered" true
        (contains text "never recovered"))
    skips;
  (* committed waves carry full quorum evidence *)
  List.iter
    (fun st ->
      match st.Forensics.st_commit with
      | Some { Forensics.cert = c; _ } when c.Trace.direct ->
        checkb "direct commit meets quorum" true
          (List.length c.Trace.support >= c.Trace.quorum)
      | _ -> ())
    (Forensics.stories fx ~node)

(* ---- bullshark: RR leader skipped, then chain-back recovered ---- *)

let test_bullshark_skip_recovery () =
  let fleet, _ =
    build_traced ~seed:1 ~until:150.0 ~rule:Dagrider.Ordering.bullshark
      ~schedule:Harness.Runner.Skewed_random ()
  in
  let fx = forensics_of fleet in
  (* p2 skips a round-robin leader and recovers it by chain-back here *)
  let node = 2 in
  let recovered =
    List.filter
      (fun st ->
        st.Forensics.st_skip <> None && st.Forensics.st_commit <> None)
      (Forensics.stories fx ~node)
  in
  checkb "at least one skipped-then-recovered wave" true (recovered <> []);
  List.iter
    (fun st ->
      let c = (Option.get st.Forensics.st_commit).Forensics.cert in
      checkb "recovery is a chained commit" false c.Trace.direct;
      checkb "chained commits cite no direct support" true
        (c.Trace.support = []);
      checkb "anchor is a later wave" true
        (c.Trace.anchor_wave > st.Forensics.st_wave);
      checkb "via sits above the leader" true
        (c.Trace.via_round > c.Trace.leader_round);
      checks "round-robin schedule evidence" "round-robin"
        c.Trace.sched;
      (* the RR leader is pinned by the schedule, not a coin *)
      checki "leader is (w-1) mod n" ((st.Forensics.st_wave - 1) mod 4)
        c.Trace.leader_source;
      let text = Forensics.explain_wave fx ~node ~wave:st.Forensics.st_wave in
      checkb "explain shows the chain-back" true
        (contains text "chain-back");
      checkb "explain shows the earlier skip" true
        (contains text "skipped first"))
    recovered;
  (* the justification subgraph of a recovered wave shades its chain *)
  let st = List.hd recovered in
  match Forensics.justification fx ~node ~wave:st.Forensics.st_wave with
  | None -> Alcotest.fail "recovered wave has no justification"
  | Some (leader, support, chain) ->
    checkb "chained justification has no quorum set" true (support = []);
    checkb "chain is non-empty" true (chain <> []);
    let dag = Dagrider.Node.dag (Harness.Runner.node fleet node) in
    let dot = Dagrider.Render.dot_justification ~support ~chain dag ~leader in
    checkb "leader gold in DOT" true
      (contains dot "fillcolor=gold");
    checkb "chain-back orange in DOT" true
      (contains dot "fillcolor=orange")

(* ---- acceptance: every wave certified and oracle-validated ---- *)

let certificates_validate rule =
  (* GC keeps the long run fast; the oracle's certificate check knows
     the GC horizon and still field-checks pruned waves *)
  let fleet, _ = build_traced ~gc_depth:8 ~until:4000.0 ~rule () in
  let fx = forensics_of fleet in
  let node = 0 in
  let ordering = Dagrider.Node.ordering (Harness.Runner.node fleet node) in
  let decided = Dagrider.Ordering.decided_wave ordering in
  checkb "500+ waves decided" true (decided >= 500);
  (* completeness: every wave up to the decided horizon has a story *)
  for w = 1 to decided do
    match Forensics.find_story fx ~node ~wave:w with
    | None -> Alcotest.fail (Printf.sprintf "wave %d has no certificate" w)
    | Some st ->
      checkb
        (Printf.sprintf "wave %d story is resolved" w)
        true
        (st.Forensics.st_commit <> None || st.Forensics.st_skip <> None)
  done;
  (* independence: the oracle re-derives every claim from the final DAGs *)
  let violations =
    Check.Oracle.check_certificates ~rule
      ~f:(Harness.Runner.options fleet).Harness.Runner.f ~forensics:fx
      ~dag_of:(fun i ->
        Some (Dagrider.Node.dag (Harness.Runner.node fleet i)))
  in
  Alcotest.(check (list string))
    "oracle validates every certificate" []
    (List.map Check.Oracle.pp violations)

let test_certificates_validate_dagrider () =
  certificates_validate Dagrider.Ordering.dag_rider

let test_certificates_validate_bullshark () =
  certificates_validate Dagrider.Ordering.bullshark

(* ---- oracle rejects forged certificates ---- *)

let test_oracle_rejects_forgery () =
  let fleet, tracer = build_traced ~until:60.0 () in
  let fx = forensics_of fleet in
  let node = 0 in
  ignore tracer;
  let real =
    List.find_map
      (fun st -> Option.map (fun c -> c.Forensics.cert) st.Forensics.st_commit)
      (Forensics.stories fx ~node)
    |> Option.get
  in
  (* forge: same wave, leader claimed at a non-existent source *)
  let forged =
    Trace.
      { seq = 0;
        time = 0.0;
        cause = -1;
        kind =
          Commit_cert
            { node;
              rule = real.Trace.rule;
              sched = real.Trace.sched;
              wave = real.Trace.wave + 1000;
              leader_round =
                ((real.Trace.wave + 999) * 4) + 1;
              leader_source = 2;
              direct = true;
              anchor_wave = real.Trace.wave + 1000;
              via_round = ((real.Trace.wave + 999) * 4) + 1;
              via_source = 2;
              support = [ 0; 1; 2 ];
              quorum = 3;
              delivered = 1 } }
  in
  let fx' = ledger_of_events [ forged ] in
  let violations =
    Check.Oracle.check_certificates ~rule:Dagrider.Ordering.dag_rider
      ~f:(Harness.Runner.options fleet).Harness.Runner.f ~forensics:fx'
      ~dag_of:(fun i ->
        Some (Dagrider.Node.dag (Harness.Runner.node fleet i)))
  in
  checkb "forged certificate rejected" true (violations <> []);
  checkb "as a certificate violation" true
    (List.for_all (fun v -> v.Check.Oracle.invariant = "certificate") violations)

(* ---- divergence: the known diverging sabotage seed ---- *)

let test_divergence_sabotage_seed () =
  (* seed 293 is the sabotage self-test's pinned seed (see test_check):
     quorum weakened to commit-on-sight plus leader hiding makes the
     nodes disagree on wave 1 — p1 skips the hidden leader, p2 commits
     it with zero support. Divergence must pinpoint that wave with both
     sides' evidence. *)
  let sc =
    Check.Scenario.generate ~sabotage:true ~quick:true ~seed:293 ()
  in
  let fx = forensics_of (Check.Swarm.trace_scenario sc) in
  (match Forensics.divergence fx ~node_a:1 fx ~node_b:2 with
  | Forensics.Diverged_wave { wave; a; b } ->
    checki "diverges at wave 1" 1 wave;
    let a = Option.get a and b = Option.get b in
    checkb "one side skipped" true
      (a.Forensics.st_commit = None && a.Forensics.st_skip <> None);
    let bc = (Option.get b.Forensics.st_commit).Forensics.cert in
    checkb "other side committed on sabotaged quorum" true
      (List.length bc.Trace.support < 3)
  | _ -> Alcotest.fail "expected a wave divergence between p1 and p2");
  let text = Forensics.render_divergence fx ~node_a:1 fx ~node_b:2 in
  checkb "render names the wave" true
    (contains text "FIRST DIVERGENT DECISION: wave 1");
  checkb "render shows both sides" true
    (contains text "side A (p1)"
    && contains text "side B (p2)")

(* ---- divergence: same rule, identical honest runs ---- *)

let test_divergence_identical_and_cross_rule () =
  let _, tr_a = build_traced ~until:60.0 () in
  let _, tr_b = build_traced ~until:60.0 () in
  let fa = ledger_of_events (Trace.events tr_a) in
  let fb = ledger_of_events (Trace.events tr_b) in
  (match Forensics.divergence fa ~node_a:0 fb ~node_b:0 with
  | Forensics.Identical { mode; _ } -> checks "same-rule mode" "waves" mode
  | _ -> Alcotest.fail "identical runs must not diverge");
  (* cross-rule on one schedule: both rules order the same vertices but
     in different positions — compared by delivery log *)
  let _, tr_c =
    build_traced ~until:60.0 ~rule:Dagrider.Ordering.bullshark ()
  in
  let fc = ledger_of_events (Trace.events tr_c) in
  match Forensics.divergence fa ~node_a:0 fc ~node_b:0 with
  | Forensics.Diverged_entry { a_commit; b_commit; _ } ->
    checkb "divergent entries carry their commits" true
      (a_commit <> None && b_commit <> None)
  | Forensics.Identical { mode; _ } | Forensics.Prefix { mode; _ } ->
    checks "cross-rule compares logs" "log" mode
  | _ -> Alcotest.fail "cross-rule comparison must use the delivery logs"

let () =
  Alcotest.run "forensics"
    [ ( "certificates",
        [ Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "dagrider skip evidence" `Quick
            test_dagrider_skip_evidence;
          Alcotest.test_case "bullshark skip-then-recovery" `Quick
            test_bullshark_skip_recovery ] );
      ( "oracle",
        [ Alcotest.test_case "500+-wave dagrider certificates validate" `Slow
            test_certificates_validate_dagrider;
          Alcotest.test_case "500+-wave bullshark certificates validate" `Slow
            test_certificates_validate_bullshark;
          Alcotest.test_case "forged certificate rejected" `Quick
            test_oracle_rejects_forgery ] );
      ( "divergence",
        [ Alcotest.test_case "sabotage seed 293 pinpointed" `Slow
            test_divergence_sabotage_seed;
          Alcotest.test_case "identical and cross-rule modes" `Quick
            test_divergence_identical_and_cross_rule ] ) ]
