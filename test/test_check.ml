(* Tests for the swarm checker: oracle log checks on hand-built
   histories, shrinker convergence, scenario determinism, and the
   sabotage self-test pinned to a known-failing seed. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let vref round source = { Dagrider.Vertex.round; source }

(* a well-formed shared prefix: rounds 1..k, sources 0..3 *)
let log_prefix k =
  List.concat_map
    (fun round -> List.init 4 (fun source -> vref round source))
    (List.init k (fun i -> i + 1))

(* ---- Oracle: agreement ---- *)

let test_agreement_identical () =
  let log = log_prefix 3 in
  let logs = [ (0, log); (1, log); (2, log) ] in
  checki "no violations" 0 (List.length (Check.Oracle.check_agreement ~logs))

let test_agreement_prefix_ok () =
  (* shorter logs that are prefixes of the longest are fine *)
  let long = log_prefix 3 in
  let short = log_prefix 2 in
  let logs = [ (0, long); (1, short); (2, []) ] in
  checki "prefixes agree" 0 (List.length (Check.Oracle.check_agreement ~logs))

let test_agreement_divergence_flagged () =
  let a = log_prefix 2 @ [ vref 3 0; vref 3 1 ] in
  let b = log_prefix 2 @ [ vref 3 1; vref 3 0 ] in
  let violations = Check.Oracle.check_agreement ~logs:[ (0, a); (1, b) ] in
  checkb "divergence flagged" true (violations <> []);
  checkb "classified as agreement" true
    (List.for_all
       (fun v -> v.Check.Oracle.invariant = "agreement")
       violations)

let test_agreement_mid_log_gap_flagged () =
  (* same length, one entry swapped for a different vertex *)
  let a = log_prefix 2 in
  let b = List.mapi (fun i v -> if i = 3 then vref 9 9 else v) a in
  let violations = Check.Oracle.check_agreement ~logs:[ (0, a); (1, b) ] in
  checkb "substitution flagged" true (violations <> [])

(* ---- Oracle: extension (append-only logs) ---- *)

let test_extension_append_ok () =
  let before = log_prefix 2 in
  let after = log_prefix 3 in
  checki "append is fine" 0
    (List.length (Check.Oracle.check_extension ~node:0 ~before ~after))

let test_extension_rewrite_flagged () =
  let before = log_prefix 2 in
  let after = vref 9 9 :: List.tl (log_prefix 3) in
  let violations = Check.Oracle.check_extension ~node:0 ~before ~after in
  checkb "rewrite flagged" true (violations <> [])

let test_extension_truncation_flagged () =
  let before = log_prefix 3 in
  let after = log_prefix 2 in
  let violations = Check.Oracle.check_extension ~node:0 ~before ~after in
  checkb "truncation flagged" true (violations <> [])

(* ---- Oracle: integrity (no duplicates) ---- *)

let test_no_duplicates_clean () =
  checki "clean log passes" 0
    (List.length
       (Check.Oracle.check_no_duplicates ~logs:[ (0, log_prefix 3) ]))

let test_no_duplicates_flagged () =
  let log = log_prefix 2 @ [ vref 1 0 ] in
  let violations = Check.Oracle.check_no_duplicates ~logs:[ (0, log) ] in
  checkb "duplicate flagged" true (violations <> []);
  checkb "classified as integrity" true
    (List.for_all
       (fun v -> v.Check.Oracle.invariant = "integrity")
       violations)

(* ---- Shrinker ---- *)

let test_shrink_list_converges () =
  (* keep = "contains both 3 and 7" — everything else must be dropped *)
  let keep xs = List.mem 3 xs && List.mem 7 xs in
  let input = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let out = Check.Swarm.shrink_list ~keep input in
  checkb "result still failing" true (keep out);
  Alcotest.(check (list int)) "1-minimal" [ 3; 7 ] out

let test_shrink_list_keeps_all_when_needed () =
  let keep xs = List.length xs >= 3 in
  let out = Check.Swarm.shrink_list ~keep [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "nothing droppable" [ 1; 2; 3 ] out

let test_shrink_list_empties_trivial () =
  let out = Check.Swarm.shrink_list ~keep:(fun _ -> true) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "all dropped" [] out

(* ---- Scenario determinism ---- *)

let test_scenario_deterministic () =
  let a = Check.Scenario.generate ~quick:true ~seed:42 () in
  let b = Check.Scenario.generate ~quick:true ~seed:42 () in
  Alcotest.(check string)
    "same seed, same scenario" (Check.Scenario.describe a)
    (Check.Scenario.describe b);
  let c = Check.Scenario.generate ~quick:true ~seed:43 () in
  checkb "different seeds differ" true
    (Check.Scenario.describe a <> Check.Scenario.describe c)

let test_scenario_fault_budget () =
  (* the script never corrupts more than f processes in total *)
  List.iter
    (fun seed ->
      let sc = Check.Scenario.generate ~seed () in
      checkb "at most f faulty" true
        (List.length (Check.Scenario.faulty_nodes sc) <= sc.Check.Scenario.f))
    (List.init 25 (fun i -> i))

let test_scenario_never_restarts_adversary () =
  (* Runner.restart_node refuses an adversary (it would come back
     honest while still counted Byzantine), so no script may ask for
     one: sampled adversaries and forced ones alike *)
  let spec strategy = { Attack.strategy; victims = [] } in
  List.iter
    (fun attack ->
      List.iter
        (fun seed ->
          let sc = Check.Scenario.generate ?attack ~quick:true ~seed () in
          match sc.Check.Scenario.attack with
          | None -> ()
          | Some (adversary, _) ->
            List.iter
              (function
                | Check.Scenario.Restart_at { node; _ } ->
                  checkb "restart spares the adversary" true (node <> adversary)
                | _ -> ())
              sc.Check.Scenario.faults)
        (List.init 200 (fun i -> i)))
    (None :: List.map (fun st -> Some (spec st)) Attack.all_strategies)

(* ---- Honest end-to-end run ---- *)

let test_honest_scenario_clean () =
  (* a fixed honest quick seed must produce a violation-free run with
     actual progress *)
  let sc = Check.Scenario.generate ~quick:true ~seed:1 () in
  let outcome = Check.Swarm.run_scenario sc in
  checki "no violations" 0 (List.length outcome.Check.Swarm.violations);
  checkb "made progress" true (outcome.Check.Swarm.delivered_min > 0)

(* ---- Sabotage self-test ---- *)

(* Seed picked by sweeping quick sabotage seeds: this one produces
   prefix-divergent logs. A quorum of f+1 would be the obvious sabotage
   lever, but with honest (non-equivocating) reliable broadcast f+1 is
   provably still safe here — see the quorum discussion in
   lib/check/scenario.ml — so sabotage weakens the quorum all the way
   to commit-on-sight. If scenario generation or the
   runner's seed derivation changes, re-sweep and update this seed.
   (Re-swept when the gossip backend gained its Byzantine quorum floors:
   the old gossip-backed seed 87 stopped diverging, and this bracha seed
   is immune to future gossip tuning.) *)
let sabotage_seed = 293

let test_sabotage_caught () =
  let sc = Check.Scenario.generate ~sabotage:true ~quick:true ~seed:sabotage_seed () in
  let run_rule = (Check.Scenario.to_options sc).Harness.Runner.rule in
  checki "fleet quorum weakened to 0" 0
    (Dagrider.Ordering.quorum_of run_rule ~f:sc.Check.Scenario.f);
  checkb "oracles keep the honest rule" true
    (sc.Check.Scenario.rule = Dagrider.Ordering.dag_rider);
  let outcome = Check.Swarm.run_scenario sc in
  let agreement =
    List.filter
      (fun v -> v.Check.Oracle.invariant = "agreement")
      outcome.Check.Swarm.violations
  in
  checkb "agreement violation caught" true (agreement <> []);
  let support =
    List.filter
      (fun v -> v.Check.Oracle.invariant = "leader-support")
      outcome.Check.Swarm.violations
  in
  checkb "weak commit caught" true (support <> []);
  Alcotest.(check string)
    "repro command" "dune exec bin/swarm.exe -- --seed 293 --quick --sabotage"
    (Check.Swarm.repro_command sc)

(* ---- Agreement under garbage collection ----

   Three scenarios in which correct processes once ordered different
   sequences under --gc-depth 4: each process pruned at a round chosen
   from its own delivery state, so a straggler's vertex below one
   process's horizon was dropped there and delivered by a process that
   had not pruned yet. The horizon is now set by the committed leaders
   alone. Each pin checks the repro command first, so the scenario is
   the one the swarm CLI replays. *)

let lossy_equivocate_faults =
  { Harness.Runner.lf_drop = 0.2;
    lf_duplicate = 0.05;
    lf_corrupt = 0.02;
    lf_reorder = 0.0 }

let gc_agreement_pins =
  [ ( "bullshark quick seed 96",
      "dune exec bin/swarm.exe -- --seed 96 --rule bullshark --quick \
       --gc-depth 4",
      fun () ->
        Check.Scenario.generate ~quick:true ~gc_depth:4
          ~rule:Dagrider.Ordering.bullshark ~seed:96 () );
    ( "bullshark full seed 52",
      "dune exec bin/swarm.exe -- --seed 52 --rule bullshark --gc-depth 4",
      fun () ->
        Check.Scenario.generate ~gc_depth:4 ~rule:Dagrider.Ordering.bullshark
          ~seed:52 () );
    ( "dagrider lossy equivocate seed 8",
      "dune exec bin/swarm.exe -- --seed 8 --loss 0.2 --dup 0.05 --corrupt \
       0.02 --reorder 0 --attack equivocate --gc-depth 4",
      fun () ->
        Check.Scenario.generate ~lossy:lossy_equivocate_faults
          ~attack:{ Attack.strategy = Attack.Equivocate; victims = [] }
          ~gc_depth:4 ~rule:Dagrider.Ordering.dag_rider ~seed:8 () ) ]

let test_gc_agreement (_, repro, generate) () =
  let sc = generate () in
  Alcotest.(check string) "repro command" repro (Check.Swarm.repro_command sc);
  let outcome = Check.Swarm.run_scenario sc in
  let agreement =
    List.filter
      (fun v -> v.Check.Oracle.invariant = "agreement")
      outcome.Check.Swarm.violations
  in
  checki "no agreement violation" 0 (List.length agreement);
  checki "no violation" 0 (List.length outcome.Check.Swarm.violations);
  checkb "made progress" true (outcome.Check.Swarm.delivered_min > 0)

(* ---- Traced re-run: the failure artifacts' source ---- *)

(* The swarm writes a failure's certificate stories from the traced
   re-run's live analyzer. Under --weaken-sync, seed 1's re-run emits
   more events than the ring keeps, so a fold of the retained window
   starts its stories at wave 8 or 9; the live ledger must start every
   correct node's stories at wave 1 and hold a commit certificate for
   every wave the node's on_commit hook saw committed. *)
let test_trace_scenario_ledger_outlives_ring () =
  let sc =
    Check.Scenario.generate ~weaken_sync:true
      ~attack:{ Attack.strategy = Attack.Lying_sync; victims = [] }
      ~seed:1 ()
  in
  let outcome = Check.Swarm.run_scenario sc in
  let runner = Check.Swarm.trace_scenario sc in
  let tracer =
    Option.get (Harness.Runner.options runner).Harness.Runner.trace
  in
  checkb "the ring wrapped" true (Trace.dropped tracer > 0);
  let fx = Analyze.ledger (Option.get (Harness.Runner.analyzer runner)) in
  List.iter
    (fun node ->
      (match Forensics.stories fx ~node with
      | [] -> Alcotest.failf "p%d has no certificate stories" node
      | first :: _ ->
        checki (Printf.sprintf "p%d's stories start at wave 1" node) 1
          first.Forensics.st_wave);
      List.iter
        (fun (c : Check.Oracle.commit_record) ->
          if c.Check.Oracle.cr_node = node then
            checkb
              (Printf.sprintf "p%d's ledger holds its w%d commit" node
                 c.Check.Oracle.cr_wave)
              true
              (match
                 Forensics.find_story fx ~node ~wave:c.Check.Oracle.cr_wave
               with
              | Some { Forensics.st_commit = Some _; _ } -> true
              | _ -> false))
        outcome.Check.Swarm.commits)
    (Harness.Runner.correct_indices runner)

let () =
  Alcotest.run "check"
    [ ( "oracle-agreement",
        [ Alcotest.test_case "identical logs pass" `Quick
            test_agreement_identical;
          Alcotest.test_case "prefixes pass" `Quick test_agreement_prefix_ok;
          Alcotest.test_case "divergence flagged" `Quick
            test_agreement_divergence_flagged;
          Alcotest.test_case "substitution flagged" `Quick
            test_agreement_mid_log_gap_flagged ] );
      ( "oracle-extension",
        [ Alcotest.test_case "append ok" `Quick test_extension_append_ok;
          Alcotest.test_case "rewrite flagged" `Quick
            test_extension_rewrite_flagged;
          Alcotest.test_case "truncation flagged" `Quick
            test_extension_truncation_flagged ] );
      ( "oracle-integrity",
        [ Alcotest.test_case "clean" `Quick test_no_duplicates_clean;
          Alcotest.test_case "duplicate flagged" `Quick
            test_no_duplicates_flagged ] );
      ( "shrinker",
        [ Alcotest.test_case "converges to minimum" `Quick
            test_shrink_list_converges;
          Alcotest.test_case "keeps needed elements" `Quick
            test_shrink_list_keeps_all_when_needed;
          Alcotest.test_case "empties when trivial" `Quick
            test_shrink_list_empties_trivial ] );
      ( "scenario",
        [ Alcotest.test_case "deterministic from seed" `Quick
            test_scenario_deterministic;
          Alcotest.test_case "fault budget <= f" `Quick
            test_scenario_fault_budget;
          Alcotest.test_case "adversary never restarted" `Quick
            test_scenario_never_restarts_adversary ] );
      ( "swarm",
        [ Alcotest.test_case "honest seed clean" `Slow
            test_honest_scenario_clean;
          Alcotest.test_case "sabotage caught" `Slow test_sabotage_caught;
          Alcotest.test_case "traced re-run ledger outlives the ring" `Quick
            test_trace_scenario_ledger_outlives_ring ] );
      ( "gc-agreement",
        List.map
          (fun ((name, _, _) as pin) ->
            Alcotest.test_case name `Slow (test_gc_agreement pin))
          gc_agreement_pins )
    ]
