(* Cross-rule differential harness: replay the SAME seeded execution —
   schedule, fault pattern, every RNG stream — through both commit
   rules and check two things the pluggable-rule refactor promises:

   1. The rules are interchangeable consumers of one substrate: DAG
      construction (and hence the whole message schedule) is
      byte-identical across rules. The commit rule reads the DAG and the
      leader schedule but never feeds back into vertex creation,
      broadcast, or the coin cadence, so two builds differing only in
      [rule] must produce the same per-node DAGs, the same message and
      bit counts, and the same round progress.

   2. Each rule independently keeps the paper's safety properties on
      that shared substrate: per-rule honest logs totally ordered and
      prefix-comparable, no duplicate deliveries, and the full oracle
      sweep (leader support at the rule's own quorum, skip legality,
      chain quality) clean — under honest, lossy, and partitioned
      schedules alike.

   TigerBeetle-style: every case is a pure function of its seed, so a
   failing case name IS the repro. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rules = [ Dagrider.Ordering.dag_rider; Dagrider.Ordering.bullshark ]

type flavor = Honest | Lossy | Partitioned | Attacked of Attack.strategy

let flavor_name = function
  | Honest -> "honest"
  | Lossy -> "lossy"
  | Partitioned -> "partitioned"
  | Attacked s -> "attacked-" ^ Attack.strategy_label s

(* a mid-run partition that heals well before the horizon, so liveness
   resumes and both rules get post-partition waves to order *)
let partitioned_schedule rng =
  let inner = Net.Sched.uniform_random ~rng in
  Net.Sched.with_window ~inner ~from_time:10.0 ~until_time:22.0
    ~during:(Net.Sched.partition ~inner ~left:(fun i -> i mod 2 = 0) ~factor:25.0)

let horizon = function
  | Honest -> 40.0
  (* retransmission stretches every quorum; give lossy runs room *)
  | Lossy -> 90.0
  | Partitioned -> 55.0
  (* withheld disclosures and stalled leaders slow waves down *)
  | Attacked _ -> 70.0

let options ~rule ~flavor ~n ~seed =
  { (Harness.Runner.default_options ~n) with
    seed;
    rule;
    schedule =
      (match flavor with
      | Partitioned -> Harness.Runner.Custom partitioned_schedule
      | Honest | Lossy | Attacked _ -> Harness.Runner.Uniform_random);
    link_faults =
      (match flavor with
      | Lossy ->
        Some
          { Harness.Runner.lf_drop = 0.12;
            lf_duplicate = 0.05;
            lf_corrupt = 0.03;
            lf_reorder = 0.1 }
      | Honest | Partitioned | Attacked _ -> None);
    faults =
      (* attackers are rule-oblivious by construction (they read the raw
         coin table and the static round-robin table, never ordering
         state), so the substrate fingerprint must stay byte-identical
         across rules even under attack — asserted by every Attacked
         case. No restarts here: catch-up sync responses depend on each
         rule's GC frontier, which would legitimately fork the message
         schedule. *)
      (match flavor with
      | Attacked strategy ->
        [ Harness.Runner.Adversary (n - 1, { Attack.strategy; victims = [] }) ]
      | Honest | Lossy | Partitioned -> []) }

(* run one rule over the seeded execution, capturing every commit for
   the oracle sweep *)
let run_rule ~rule ~flavor ~n ~seed =
  let commits = ref [] in
  let opts =
    { (options ~rule ~flavor ~n ~seed) with
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
  let runner = Harness.Runner.build opts in
  Harness.Runner.run runner ~until:(horizon flavor);
  (runner, !commits)

let substrate_fingerprint runner =
  let n = (Harness.Runner.options runner).Harness.Runner.n in
  let dags =
    List.init n (fun i ->
        Dagrider.Snapshot.dag_to_string
          (Dagrider.Node.dag (Harness.Runner.node runner i)))
  in
  ( dags,
    Harness.Runner.honest_bits runner,
    Metrics.Counters.total_messages (Harness.Runner.counters runner) )

let check_rule_safety ~rule ~(runner : Harness.Runner.t) ~commits =
  let name = rule.Dagrider.Ordering.rule_name in
  (match Harness.Runner.check_total_order runner with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: total order violated: %s" name e);
  (match Harness.Runner.check_integrity runner with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: integrity violated: %s" name e);
  match
    Check.Oracle.check_fleet ~rule ~runner ~commits ~expect_validity:false
  with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d oracle violations, first: %s" name (List.length vs)
      (Check.Oracle.pp (List.hd vs))

let differential_case ~flavor ~n ~seed () =
  let runs =
    List.map (fun rule -> (rule, run_rule ~rule ~flavor ~n ~seed)) rules
  in
  (* (2) per-rule safety on every node's log plus the oracle sweep *)
  List.iter
    (fun (rule, (runner, commits)) -> check_rule_safety ~rule ~runner ~commits)
    runs;
  (* (1) the substrate never heard about the rule *)
  (match List.map (fun (_, (runner, _)) -> substrate_fingerprint runner) runs with
  | [ (dags_dr, bits_dr, msgs_dr); (dags_bs, bits_bs, msgs_bs) ] ->
    checki "honest bits identical across rules" bits_dr bits_bs;
    checki "message count identical across rules" msgs_dr msgs_bs;
    List.iteri
      (fun i (d_dr, d_bs) ->
        checkb
          (Printf.sprintf "p%d DAG byte-identical across rules" i)
          true (String.equal d_dr d_bs))
      (List.combine dags_dr dags_bs)
  | _ -> assert false);
  (* both rules must actually have ordered something, or the diff is
     vacuous *)
  List.iter
    (fun (rule, (runner, _)) ->
      let delivered =
        Dagrider.Ordering.delivered_count
          (Dagrider.Node.ordering (Harness.Runner.node runner 0))
      in
      checkb
        (Printf.sprintf "%s ordered vertices" rule.Dagrider.Ordering.rule_name)
        true (delivered > 0))
    runs

(* the seeded schedule matrix: >= 20 cases spanning honest, lossy, and
   partitioned executions at both fleet sizes *)
let cases =
  List.concat
    [ List.map (fun seed -> (Honest, 4, seed)) [ 1; 2; 3; 4; 5; 6 ];
      List.map (fun seed -> (Honest, 7, seed)) [ 7; 8; 9; 10 ];
      List.map (fun seed -> (Lossy, 4, seed)) [ 11; 12; 13; 14 ];
      List.map (fun seed -> (Lossy, 7, seed)) [ 15 ];
      List.map (fun seed -> (Partitioned, 4, seed)) [ 16; 17; 18; 19 ];
      List.map (fun seed -> (Partitioned, 7, seed)) [ 20; 21 ];
      List.map (fun seed -> (Attacked Attack.Equivocate, 4, seed)) [ 22; 23 ];
      List.map (fun seed -> (Attacked Attack.Withhold, 4, seed)) [ 24 ];
      List.map (fun seed -> (Attacked Attack.Grind, 7, seed)) [ 25 ];
      List.map (fun seed -> (Attacked Attack.Bias, 4, seed)) [ 26 ] ]

(* Bullshark's commit cadence: on a synchronous fault-free schedule the
   2-round waves commit at least as many waves as DAG-Rider's 4-round
   ones on the identical substrate — the latency win the EXPERIMENTS
   table quantifies, asserted here in its weakest safe form *)
let test_bullshark_commits_more_waves () =
  let run rule =
    let runner, commits = run_rule ~rule ~flavor:Honest ~n:4 ~seed:99 in
    ignore runner;
    List.length
      (List.filter (fun c -> c.Check.Oracle.cr_node = 0) commits)
  in
  let dr = run Dagrider.Ordering.dag_rider
  and bs = run Dagrider.Ordering.bullshark in
  checkb
    (Printf.sprintf "bullshark commits >= dagrider commits (%d vs %d)" bs dr)
    true (bs >= dr);
  checkb "bullshark commits something" true (bs > 0)

(* ---- the coin cadence follows the rule record ----

   The rule is the only source of the wave length: a 3-round coin rule
   orders AND flips its coin every 3 rounds, over either coin transport,
   while Bullshark orders on 2-round waves and keeps the coin on
   DAG-Rider's 4-round cadence. *)

let cadence_run ~rule ~coin_in_dag =
  let tracer = Trace.create () in
  let flips = ref [] in
  Trace.add_sink tracer (fun ev ->
      match ev.Trace.kind with
      | Trace.Coin_flip { node = 0; wave } -> flips := wave :: !flips
      | _ -> ());
  let leader_rounds = ref [] in
  let runner =
    Harness.Runner.build
      { (Harness.Runner.default_options ~n:4) with
        seed = 5;
        rule;
        coin_in_dag;
        trace = Some tracer;
        on_commit =
          Some
            (fun ~node c ->
              if node = 0 then
                leader_rounds :=
                  ( c.Dagrider.Ordering.wave,
                    c.Dagrider.Ordering.leader.Dagrider.Vertex.round )
                  :: !leader_rounds) }
  in
  Harness.Runner.run runner ~until:40.0;
  (Harness.Runner.node runner 0, List.rev !flips, List.rev !leader_rounds)

let test_coin_cadence ~rule ~coin_in_dag ~coin () =
  let node, flips, leader_rounds = cadence_run ~rule ~coin_in_dag in
  let ordering = rule.Dagrider.Ordering.rule_wave_length in
  (* wave_ready fires as a node leaves round r, so a node in round R
     has completed exactly (R - 1) / L waves of each cadence *)
  let completed = Dagrider.Node.current_round node - 1 in
  checki "ordering waves completed" (completed / ordering)
    (Dagrider.Node.waves_completed node);
  Alcotest.(check (list int))
    "coin instances flipped"
    (List.init (completed / coin) (fun i -> i + 1))
    flips;
  checkb "committed something" true (leader_rounds <> []);
  List.iter
    (fun (wave, round) ->
      checki
        (Printf.sprintf "wave %d leader in its first round" wave)
        (((wave - 1) * ordering) + 1)
        round)
    leader_rounds

let () =
  let three_round_coin =
    { Dagrider.Ordering.dag_rider with rule_wave_length = 3 }
  in
  let diff_tests =
    List.map
      (fun (flavor, n, seed) ->
        Alcotest.test_case
          (Printf.sprintf "%s n=%d seed=%d" (flavor_name flavor) n seed)
          `Slow
          (differential_case ~flavor ~n ~seed))
      cases
  in
  Alcotest.run "rules"
    [ ("differential", diff_tests);
      ( "latency",
        [ Alcotest.test_case "bullshark wave cadence" `Slow
            test_bullshark_commits_more_waves ] );
      ( "coin-cadence",
        [ Alcotest.test_case "3-round coin rule" `Quick
            (test_coin_cadence ~rule:three_round_coin ~coin_in_dag:false
               ~coin:3);
          Alcotest.test_case "3-round coin rule, in-DAG shares" `Quick
            (test_coin_cadence ~rule:three_round_coin ~coin_in_dag:true
               ~coin:3);
          Alcotest.test_case "bullshark coin stays on 4" `Quick
            (test_coin_cadence ~rule:Dagrider.Ordering.bullshark
               ~coin_in_dag:false ~coin:4) ] ) ]
