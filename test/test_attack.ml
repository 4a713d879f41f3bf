(* Byzantine adversary suite: each attacker strategy runs against the
   real protocol stack and the oracles prove the paper's guarantees
   survive — equivocations end up excluded or converged, withholding
   and leader-biasing cannot break safety or chain quality, and the
   hardened catch-up path starves a lying sync responder that a
   deliberately weakened (trusting) validator provably falls for. *)

let checkb = Alcotest.(check bool)

let assert_ok = function
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* run a fleet with [faults], capturing commits for the oracle sweep *)
let run_attacked ?(n = 4) ?(seed = 7) ?(backend = Harness.Runner.Bracha)
    ?(coin_in_dag = false) ?(sync_trusting = false) ?trace ?restart ~faults
    ~until () =
  let commits = ref [] in
  let options =
    { (Harness.Runner.default_options ~n) with
      seed;
      backend;
      coin_in_dag;
      faults;
      sync_trusting;
      trace;
      on_commit =
        Some
          (fun ~node c ->
            commits :=
              { Check.Oracle.cr_node = node;
                cr_wave = c.Dagrider.Ordering.wave;
                cr_leader = Dagrider.Vertex.vref_of c.Dagrider.Ordering.leader;
                cr_direct = c.Dagrider.Ordering.direct }
              :: !commits) }
  in
  let t = Harness.Runner.build options in
  (match restart with
  | None -> Harness.Runner.run t ~until
  | Some (at, node) ->
    Harness.Runner.run t ~until:at;
    Harness.Runner.restart_node t node;
    Harness.Runner.run t ~until);
  (t, !commits)

let correct_dags t =
  List.map
    (fun i -> (i, Dagrider.Node.dag (Harness.Runner.node t i)))
    (Harness.Runner.correct_indices t)

let fleet_violations t commits =
  Check.Oracle.check_fleet
    ~rule:(Harness.Runner.options t).Harness.Runner.rule
    ~runner:t ~commits ~expect_validity:false

(* ---- equivocation: excluded or converged, per backend ---- *)

(* with [coin_in_dag] the attacker forks framed payloads: the variant
   must keep the share frame its node wrote, or honest processes would
   drop the forked copy as malformed instead of judging it *)
let test_equivocation_outcomes ?coin_in_dag backend () =
  let spec = { Attack.strategy = Attack.Equivocate; victims = [ 1 ] } in
  let t, commits =
    run_attacked ~backend ?coin_in_dag
      ~faults:[ Harness.Runner.Adversary (3, spec) ]
      ~until:80.0 ()
  in
  assert_ok (Harness.Runner.check_total_order t);
  assert_ok (Harness.Runner.check_integrity t);
  let reports = Harness.Runner.attack_reports t in
  checkb "attack report present" true (reports <> []);
  let forks =
    List.concat_map (fun r -> r.Harness.Runner.ar_forks) reports
  in
  checkb "attacker actually forked vertices" true (forks <> []);
  (* the tentpole oracle: every forked round is either absent from all
     correct DAGs or every correct DAG holds the same advertised copy *)
  checkb "fork outcomes clean" true
    (Check.Oracle.check_fork_outcomes ~reports ~dags:(correct_dags t) = []);
  checkb "full oracle sweep clean" true (fleet_violations t commits = [])

(* ---- withholding: victims stall but the fleet keeps ordering ---- *)

let test_withholding_cannot_stop_the_fleet () =
  let spec = { Attack.strategy = Attack.Withhold; victims = [ 0 ] } in
  let t, commits =
    run_attacked ~faults:[ Harness.Runner.Adversary (3, spec) ] ~until:90.0 ()
  in
  let reports = Harness.Runner.attack_reports t in
  checkb "withholding actions recorded" true
    (List.exists (fun r -> r.Harness.Runner.ar_actions > 0) reports);
  let refs = Harness.Runner.delivered_refs t in
  List.iter
    (fun i ->
      checkb
        (Printf.sprintf "p%d kept delivering" i)
        true
        (List.length refs.(i) > 0))
    (Harness.Runner.correct_indices t);
  checkb "full oracle sweep clean" true (fleet_violations t commits = [])

(* ---- grinding and biasing: fairness oracles stay green ---- *)

let test_leader_games_keep_chain_quality strategy () =
  let spec = { Attack.strategy; victims = [] } in
  let t, commits =
    run_attacked ~seed:11 ~faults:[ Harness.Runner.Adversary (2, spec) ]
      ~until:160.0 ()
  in
  assert_ok (Harness.Runner.check_total_order t);
  checkb "full oracle sweep clean (incl. chain quality)" true
    (fleet_violations t commits = [])

(* ---- the lying catch-up peer vs the hardened sync path ---- *)

let lying = { Attack.strategy = Attack.Lying_sync; victims = [] }

let test_hardened_sync_starves_the_liar () =
  let trace = Trace.create () in
  let t, commits =
    run_attacked ~seed:13 ~trace
      ~faults:[ Harness.Runner.Adversary (0, lying) ]
      ~restart:(30.0, 2) ~until:120.0 ()
  in
  let reports = Harness.Runner.attack_reports t in
  let lies = List.concat_map (fun r -> r.Harness.Runner.ar_lies) reports in
  checkb "the liar served corrupted sync state" true (lies <> []);
  (* every lie is rejected: typed rejection events fired and no correct
     DAG ended up holding a lied-about digest *)
  let rejects =
    List.filter
      (fun ev ->
        match ev.Trace.kind with Trace.Sync_reject _ -> true | _ -> false)
      (Trace.events trace)
  in
  checkb "typed sync rejections emitted" true (rejects <> []);
  checkb "lie exclusion holds" true
    (Check.Oracle.check_lie_exclusion ~reports ~dags:(correct_dags t) = []);
  (* the restarted process still caught up through honest responders *)
  let refs = Harness.Runner.delivered_refs t in
  let best =
    List.fold_left
      (fun acc i -> max acc (List.length refs.(i)))
      0
      (Harness.Runner.correct_indices t)
  in
  checkb "victim caught up despite the liar" true
    (List.length refs.(2) * 2 > best);
  checkb "full oracle sweep clean" true (fleet_violations t commits = [])

let test_trusting_sync_falls_for_the_liar () =
  (* the planted vulnerability: wind admission back to trusting any
     single responder and the same attack corrupts the restarted
     process — and the oracle must say so *)
  let t, _ =
    run_attacked ~seed:13 ~sync_trusting:true
      ~faults:[ Harness.Runner.Adversary (0, lying) ]
      ~restart:(30.0, 2) ~until:120.0 ()
  in
  let reports = Harness.Runner.attack_reports t in
  let caught =
    Check.Oracle.check_lie_exclusion ~reports ~dags:(correct_dags t)
  in
  checkb "oracle flags the corrupted catch-up" true (caught <> []);
  checkb "violations are classified sync-lie" true
    (List.for_all
       (fun v -> v.Check.Oracle.invariant = "sync-lie")
       caught)

(* ---- scenario plumbing: forced attacks and the planted mode ---- *)

let test_forced_attack_scenario_shape () =
  let spec = { Attack.strategy = Attack.Equivocate; victims = [] } in
  let sc = Check.Scenario.generate ~quick:true ~attack:spec ~seed:5 () in
  checkb "attack recorded" true (sc.Check.Scenario.attack <> None);
  checkb "marked forced" true sc.Check.Scenario.attack_forced;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  checkb "described as forced" true
    (contains (Check.Scenario.describe sc) "attack(forced)");
  (* forcing is deterministic *)
  let sc' = Check.Scenario.generate ~quick:true ~attack:spec ~seed:5 () in
  Alcotest.(check string)
    "same seed, same attacked scenario"
    (Check.Scenario.describe sc) (Check.Scenario.describe sc')

let test_weaken_sync_scenario_is_planted () =
  let sc =
    Check.Scenario.generate ~quick:true
      ~attack:{ Attack.strategy = Attack.Lying_sync; victims = [] }
      ~weaken_sync:true ~seed:1 ()
  in
  checkb "weakening recorded" true sc.Check.Scenario.sync_weakened;
  checkb "options carry the weakening" true
    (Check.Scenario.to_options sc).Harness.Runner.sync_trusting;
  (* end to end: the swarm's oracles catch the planted corruption *)
  let outcome = Check.Swarm.run_scenario sc in
  checkb "planted corruption caught" true
    (List.exists
       (fun v ->
         v.Check.Oracle.invariant = "sync-lie"
         || v.Check.Oracle.invariant = "equivocation")
       outcome.Check.Swarm.violations)

let () =
  Alcotest.run "attack"
    [ ( "equivocation",
        [ Alcotest.test_case "bracha: excluded or converged" `Slow
            (test_equivocation_outcomes Harness.Runner.Bracha);
          Alcotest.test_case "avid: excluded or converged" `Slow
            (test_equivocation_outcomes Harness.Runner.Avid);
          Alcotest.test_case "gossip: excluded or converged" `Slow
            (test_equivocation_outcomes Harness.Runner.Gossip);
          Alcotest.test_case "bracha, coin in DAG: excluded or converged"
            `Slow
            (test_equivocation_outcomes ~coin_in_dag:true
               Harness.Runner.Bracha) ] );
      ( "withholding",
        [ Alcotest.test_case "fleet outlives the withholder" `Slow
            test_withholding_cannot_stop_the_fleet ] );
      ( "leader-games",
        [ Alcotest.test_case "grinding keeps chain quality" `Slow
            (test_leader_games_keep_chain_quality Attack.Grind);
          Alcotest.test_case "biasing keeps chain quality" `Slow
            (test_leader_games_keep_chain_quality Attack.Bias) ] );
      ( "lying-sync",
        [ Alcotest.test_case "hardened path starves the liar" `Slow
            test_hardened_sync_starves_the_liar;
          Alcotest.test_case "trusting path is flagged" `Slow
            test_trusting_sync_falls_for_the_liar ] );
      ( "scenario",
        [ Alcotest.test_case "forced attack shape" `Quick
            test_forced_attack_scenario_shape;
          Alcotest.test_case "weaken-sync is planted and caught" `Slow
            test_weaken_sync_scenario_is_planted ] ) ]
