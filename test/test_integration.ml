(* End-to-end tests of the full DAG-Rider stack: the BAB properties
   (agreement, integrity, validity, total order) across backends,
   schedules and fault scenarios, plus the ablations from DESIGN.md §5. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let assert_safe h =
  (match Harness.Runner.check_total_order h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("total order violated: " ^ e));
  match Harness.Runner.check_integrity h with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("integrity violated: " ^ e)

(* the garbage-spraying attacker: never runs the protocol, relays RBC *)
let fuzz i =
  Harness.Runner.Adversary (i, { Attack.strategy = Attack.Fuzz; victims = [] })

let min_delivered h =
  List.fold_left
    (fun acc i ->
      min acc
        (Dagrider.Ordering.delivered_count
           (Dagrider.Node.ordering (Harness.Runner.node h i))))
    max_int
    (Harness.Runner.correct_indices h)

(* ---- safety and liveness across backends and schedules ---- *)

let test_safety_liveness ~backend ~schedule ~n () =
  let opts =
    { (Harness.Runner.default_options ~n) with
      backend;
      schedule;
      seed = 1234 }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:80.0;
  assert_safe h;
  checkb
    (Printf.sprintf "progress (delivered %d)" (min_delivered h))
    true
    (min_delivered h > 4 * n)

let matrix_cases =
  let open Harness.Runner in
  List.concat_map
    (fun (bname, backend) ->
      List.map
        (fun (sname, schedule) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s n=4" bname sname)
            `Quick
            (test_safety_liveness ~backend ~schedule ~n:4))
        [ ("sync", Synchronous);
          ("uniform", Uniform_random);
          ("skewed", Skewed_random) ])
    [ ("bracha", Bracha); ("avid", Avid); ("gossip", Gossip) ]

let test_larger_system () =
  let opts =
    { (Harness.Runner.default_options ~n:10) with seed = 5; block_bytes = 16 }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:60.0;
  assert_safe h;
  checkb "progress" true (min_delivered h > 40)

let test_stress_n16 () =
  (* f = 5: a large fleet with mixed faults under a skewed schedule *)
  let opts =
    { (Harness.Runner.default_options ~n:16) with
      seed = 77;
      schedule = Harness.Runner.Skewed_random;
      block_bytes = 16;
      faults =
        [ Crash 13; Crash 14; Byzantine_live 15; fuzz 12 ] }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:40.0;
  assert_safe h;
  checkb "progress at n=16 with 4 faults" true (min_delivered h > 50);
  (* chain quality still holds at this scale *)
  let sources =
    List.map
      (fun v -> v.Dagrider.Vertex.source)
      (Dagrider.Node.delivered_log (Harness.Runner.node h 0))
  in
  let report =
    Metrics.Chain_quality.audit ~f:5
      ~correct:(fun i -> Harness.Runner.is_correct h i)
      ~sources
  in
  checkb "chain quality at scale" true report.Metrics.Chain_quality.holds

(* ---- determinism ---- *)

let test_determinism_same_seed () =
  let mk () =
    let h = Harness.Runner.build (Harness.Runner.default_options ~n:4) in
    Harness.Runner.run h ~until:50.0;
    Array.to_list (Harness.Runner.delivered_logs h)
    |> List.concat_map (List.map Dagrider.Vertex.vref_of)
  in
  checkb "replay identical" true (mk () = mk ())

let test_different_seeds_still_safe () =
  List.iter
    (fun seed ->
      let opts = { (Harness.Runner.default_options ~n:4) with seed } in
      let h = Harness.Runner.build opts in
      Harness.Runner.run h ~until:50.0;
      assert_safe h;
      checkb "progress" true (min_delivered h > 10))
    [ 2; 3; 4; 5; 6; 7 ]

(* ---- crash fault tolerance ---- *)

let test_f_crashes_tolerated () =
  let opts =
    { (Harness.Runner.default_options ~n:7) with
      faults = [ Crash 5; Crash 6 ];
      seed = 8 }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:80.0;
  assert_safe h;
  checkb "liveness with f crashes" true (min_delivered h > 20)

let test_fplus1_crashes_halt_but_stay_safe () =
  (* beyond the resilience bound progress must stop, but nothing bad is
     delivered *)
  let opts =
    { (Harness.Runner.default_options ~n:7) with
      faults = [ Crash 4; Crash 5; Crash 6 ];
      seed = 10 }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:80.0;
  assert_safe h;
  checki "no progress past genesis-fed rounds" 0 (min_delivered h)

(* ---- validity / eventual fairness (the paper's headline vs SMRs) ---- *)

let test_validity_all_correct_blocks_ordered () =
  (* every a_bcast block by a correct process is eventually delivered
     by every correct process *)
  let opts = { (Harness.Runner.default_options ~n:4) with seed = 11 } in
  let h = Harness.Runner.build opts in
  (* inject explicit blocks before starting *)
  let expected = ref [] in
  Array.iteri
    (fun i node ->
      for s = 1 to 5 do
        let block = Printf.sprintf "explicit:%d:%d" i s in
        expected := block :: !expected;
        Dagrider.Node.a_bcast node block
      done)
    (Harness.Runner.nodes h);
  Harness.Runner.run h ~until:100.0;
  assert_safe h;
  let log0 =
    List.map
      (fun v -> v.Dagrider.Vertex.block)
      (Dagrider.Node.delivered_log (Harness.Runner.node h 0))
  in
  List.iter
    (fun block ->
      checkb (Printf.sprintf "%s ordered" block) true (List.mem block log0))
    !expected

let test_censored_process_still_ordered () =
  (* the adversary delays every message from p3 by 15x; weak edges must
     still pull its vertices into the total order (Validity) *)
  let opts =
    { (Harness.Runner.default_options ~n:4) with
      seed = 12;
      schedule =
        Harness.Runner.Custom
          (fun rng ->
            Net.Sched.delay_process
              ~inner:(Net.Sched.uniform_random ~rng)
              ~victim:3 ~factor:15.0) }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:150.0;
  assert_safe h;
  let victim_vertices =
    List.filter
      (fun v -> v.Dagrider.Vertex.source = 3)
      (Dagrider.Node.delivered_log (Harness.Runner.node h 0))
  in
  checkb
    (Printf.sprintf "victim blocks ordered (%d)" (List.length victim_vertices))
    true
    (List.length victim_vertices >= 3)

let test_weak_edges_off_starves_victim () =
  (* ablation: with weak edges disabled, the slow process's vertices are
     never reachable from leaders and never get ordered — validity is
     exactly what weak edges buy (DESIGN.md §5) *)
  let run ~enable_weak_edges =
    let opts =
      { (Harness.Runner.default_options ~n:4) with
        seed = 12;
        enable_weak_edges;
        schedule =
          Harness.Runner.Custom
            (fun rng ->
              Net.Sched.delay_process
                ~inner:(Net.Sched.uniform_random ~rng)
                ~victim:3 ~factor:15.0) }
    in
    let h = Harness.Runner.build opts in
    Harness.Runner.run h ~until:150.0;
    assert_safe h;
    List.length
      (List.filter
         (fun v -> v.Dagrider.Vertex.source = 3)
         (Dagrider.Node.delivered_log (Harness.Runner.node h 0)))
  in
  let with_weak = run ~enable_weak_edges:true in
  let without_weak = run ~enable_weak_edges:false in
  checkb
    (Printf.sprintf "weak on: %d, weak off: %d" with_weak without_weak)
    true
    (with_weak > without_weak)

(* ---- chain quality ---- *)

let test_chain_quality_with_byzantine_live () =
  let n = 7 in
  let opts =
    { (Harness.Runner.default_options ~n) with
      seed = 13;
      faults = [ Byzantine_live 0; Byzantine_live 1 ] }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:80.0;
  assert_safe h;
  let sources =
    List.map
      (fun v -> v.Dagrider.Vertex.source)
      (Dagrider.Node.delivered_log (Harness.Runner.node h 2))
  in
  let report =
    Metrics.Chain_quality.audit ~f:2
      ~correct:(fun i -> Harness.Runner.is_correct h i)
      ~sources
  in
  checkb "chain quality bound holds" true report.Metrics.Chain_quality.holds

(* ---- leader agreement ---- *)

let test_committed_leader_sequences_agree () =
  let opts = { (Harness.Runner.default_options ~n:4) with seed = 14 } in
  (* rebuild manually to attach on_commit hooks: use the harness then
     read each node's ordering decisions from its log instead *)
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:80.0;
  assert_safe h;
  (* decided waves should be close and logs prefix-equal (already
     checked); also every node delivered the same leader vertices in
     the same relative order - implied by total order; here we just
     confirm substantial agreement depth *)
  let decided =
    List.map
      (fun i ->
        Dagrider.Ordering.decided_wave
          (Dagrider.Node.ordering (Harness.Runner.node h i)))
      (Harness.Runner.correct_indices h)
  in
  let lo = List.fold_left min max_int decided in
  let hi = List.fold_left max 0 decided in
  checkb
    (Printf.sprintf "decided waves in [%d, %d]" lo hi)
    true
    (lo > 0 && hi - lo <= 2)

(* ---- expected waves per commit (Claim 6) ---- *)

let test_claim6_commit_rate () =
  (* under a random scheduler, the expected number of waves between
     direct commits is well under the paper's worst-case 3/2 bound;
     assert a generous <= 2.0 to keep the test robust *)
  let opts = { (Harness.Runner.default_options ~n:4) with seed = 15 } in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:200.0;
  let node = Harness.Runner.node h 0 in
  let waves = Dagrider.Node.waves_completed node in
  let decided = Dagrider.Ordering.decided_wave (Dagrider.Node.ordering node) in
  checkb "enough waves to measure" true (waves >= 10);
  (* every decided wave was committed (directly or chained); the ratio
     completed/decided >= 1 measures skips *)
  let ratio = float_of_int waves /. float_of_int (max 1 decided) in
  checkb (Printf.sprintf "waves per decided = %.2f" ratio) true (ratio <= 2.0)

(* ---- garbage collection ---- *)

let test_gc_preserves_output () =
  let run gc_depth =
    let opts =
      { (Harness.Runner.default_options ~n:4) with seed = 16; gc_depth }
    in
    let h = Harness.Runner.build opts in
    Harness.Runner.run h ~until:60.0;
    assert_safe h;
    Array.to_list (Harness.Runner.delivered_logs h)
    |> List.concat_map (List.map Dagrider.Vertex.vref_of)
  in
  checkb "gc changes nothing observable" true (run None = run (Some 8))

let test_gc_actually_prunes () =
  let opts =
    { (Harness.Runner.default_options ~n:4) with seed = 17; gc_depth = Some 4 }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:80.0;
  let dag = Dagrider.Node.dag (Harness.Runner.node h 0) in
  checki "old rounds dropped" 0 (Dagrider.Dag.round_size dag 1);
  checkb "recent rounds kept" true
    (Dagrider.Dag.round_size dag (Dagrider.Dag.highest_round dag) > 0)

(* Every per-round table falls with the GC horizon: the same fleet run
   to 500 and to 4000 time units stays under one bound on the RBC
   instances it holds, the DAG rows it keeps and the coin buckets it
   has open, while it delivers eight times as much. *)
let test_gc_state_flat () =
  let n = 4 and depth = 8 in
  let window_bound =
    depth + (6 * Dagrider.Ordering.dag_rider.rule_wave_length)
  in
  (* RBC rows may run two rounds ahead of the DAG's: vertices in flight *)
  let open_bound = n * n * (window_bound + 2) in
  let run until =
    let opts =
      { (Harness.Runner.default_options ~n) with
        seed = 42;
        gc_depth = Some depth }
    in
    let h = Harness.Runner.build opts in
    let max_open = ref 0 and max_window = ref 0 and max_buckets = ref 0 in
    let now = ref 0.0 in
    while !now < until do
      now := !now +. 5.0;
      Harness.Runner.run h ~until:!now;
      max_open := max !max_open (fst (Harness.Runner.rbc_instances h));
      Array.iter
        (fun node ->
          let dag = Dagrider.Node.dag node in
          max_window := max !max_window (Dagrider.Dag.window_rounds dag);
          max_buckets := max !max_buckets (Dagrider.Node.coin_buckets node))
        (Harness.Runner.nodes h)
    done;
    assert_safe h;
    let label what = Printf.sprintf "until %.0f: %s" until what in
    checkb (label "open instances bounded") true (!max_open <= open_bound);
    checkb (label "DAG window bounded") true (!max_window <= window_bound);
    checkb (label "coin buckets bounded") true (!max_buckets <= 2);
    min_delivered h
  in
  let short = run 500.0 in
  let long = run 4000.0 in
  checkb "the long run delivered eight times as much" true (long >= 8 * short)

(* ---- ablation: quorum below f+1 loses agreement ---- *)

let vref round source = { Dagrider.Vertex.round; source }

let test_quorum_below_fplus1_diverges () =
  (* Two DAG views of the same execution (n=4, f=1): only d0 = (8,0)
     has a strong path to the wave-2 leader a1 = (5,1). View A contains
     d0; view B completed round 8 with the other three vertices and its
     wave-3 leader avoids d0. With a quorum of f = 1, A commits a1
     in wave 2 while B commits wave 3 without a1 — divergent logs. With
     the paper's 2f+1 (or even f+1), A does not commit a1, so no
     divergence. This pins down why the threshold matters. *)
  let add dag ~round ~source ~strong =
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round;
        source;
        block = Printf.sprintf "b%d.%d" round source;
        strong_edges = List.map (fun (r, s) -> vref r s) strong;
        weak_edges = [] }
  in
  let full dag ~round =
    let prev =
      List.map
        (fun v ->
          let r = Dagrider.Vertex.vref_of v in
          (r.Dagrider.Vertex.round, r.Dagrider.Vertex.source))
        (Dagrider.Dag.round_vertices dag (round - 1))
    in
    List.iter (fun source -> add dag ~round ~source ~strong:prev) [ 0; 1; 2; 3 ]
  in
  let build_common dag =
    for r = 1 to 5 do
      full dag ~round:r
    done;
    (* round 6: only b0 = (6,0) references a1 = (5,1) *)
    add dag ~round:6 ~source:0 ~strong:[ (5, 0); (5, 1); (5, 2) ];
    List.iter
      (fun source -> add dag ~round:6 ~source ~strong:[ (5, 0); (5, 2); (5, 3) ])
      [ 1; 2; 3 ];
    (* round 7: only c0 references b0 *)
    add dag ~round:7 ~source:0 ~strong:[ (6, 0); (6, 1); (6, 2) ];
    List.iter
      (fun source -> add dag ~round:7 ~source ~strong:[ (6, 1); (6, 2); (6, 3) ])
      [ 1; 2; 3 ]
  in
  (* One shared universe of vertices (reliable broadcast means two views
     can differ only in WHICH vertices they have, never in a vertex's
     edges). d0 = (8,0) is the only round-8 vertex reaching a1; round-9
     vertices all avoid d0, so no wave-3 leader has a strong path to a1.
     View A holds d0; view B has not received it yet. *)
  let wave3 dag =
    List.iter
      (fun source -> add dag ~round:9 ~source ~strong:[ (8, 1); (8, 2); (8, 3) ])
      [ 0; 1; 2; 3 ];
    for r = 10 to 12 do
      full dag ~round:r
    done
  in
  (* a DAG carries its ordering's delivered bits, so every run below
     gets a fresh copy of its view *)
  let dag_a () =
    let dag = Dagrider.Dag.create ~n:4 in
    build_common dag;
    add dag ~round:8 ~source:0 ~strong:[ (7, 0); (7, 1); (7, 2) ];
    List.iter
      (fun source -> add dag ~round:8 ~source ~strong:[ (7, 1); (7, 2); (7, 3) ])
      [ 1; 2; 3 ];
    wave3 dag;
    dag
  in
  let dag_b () =
    let dag = Dagrider.Dag.create ~n:4 in
    build_common dag;
    List.iter
      (fun source -> add dag ~round:8 ~source ~strong:[ (7, 1); (7, 2); (7, 3) ])
      [ 1; 2; 3 ];
    wave3 dag;
    dag
  in
  let leaders = function 2 -> 1 | 3 -> 2 | _ -> 0 in
  let run_view view ~rule =
    let dag = view () in
    let ord = Dagrider.Ordering.create ~rule ~f:1 () in
    ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:leaders);
    ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:3 ~choose_leader:leaders);
    List.map Dagrider.Vertex.vref_of (Dagrider.Ordering.delivered_log ord)
  in
  (* quorum f = 1: divergence *)
  let quorum_f =
    { Dagrider.Ordering.dag_rider with rule_quorum = Dagrider.Ordering.Fixed 1 }
  in
  let log_a = run_view dag_a ~rule:quorum_f in
  let log_b = run_view dag_b ~rule:quorum_f in
  checkb "A committed a1" true (List.mem (vref 5 1) log_a);
  checkb "B never delivers a1" true (not (List.mem (vref 5 1) log_b));
  checkb "B delivered something" true (log_b <> []);
  (* the logs are NOT prefix-comparable: agreement broken *)
  let prefix_comparable a b =
    let rec go = function
      | [], _ | _, [] -> true
      | x :: xs, y :: ys -> x = y && go (xs, ys)
    in
    go (a, b)
  in
  checkb "divergence with quorum f" false (prefix_comparable log_a log_b);
  (* with the paper's quorum, A refuses the weakly-supported leader and
     no divergence arises *)
  let log_a' = run_view dag_a ~rule:Dagrider.Ordering.dag_rider in
  let log_b' = run_view dag_b ~rule:Dagrider.Ordering.dag_rider in
  checkb "paper quorum: A skips a1" true (not (List.mem (vref 5 1) log_a'));
  checkb "paper quorum: prefix-comparable" true (prefix_comparable log_a' log_b')

(* the wave-length ablation's table, pinned row by row (wave length,
   waves completed, waves decided, rounds per decided wave): it is the
   only experiment that varies the rule's wave length *)
let test_ablation_wave_length_pinned () =
  let table = Harness.Experiments.ablation_wave_length () in
  Alcotest.(check (list (list string)))
    "ablation-waves rows"
    [ [ "2"; "41"; "41"; "2.02" ];
      [ "3"; "27"; "27"; "3.07" ];
      [ "4"; "20"; "20"; "4.15" ];
      [ "5"; "16"; "16"; "5.19" ];
      [ "6"; "13"; "13"; "6.38" ] ]
    (List.map
       (fun row -> List.map (List.nth row) [ 0; 1; 2; 4 ])
       table.Harness.Experiments.rows)

(* exact counts on fixed-seed fleets (seed 42, 32-byte blocks): p0's
   delivered vertices and the honest bits sent. Logical counts cannot
   vary with the machine, so any change here is a behaviour change *)
let test_pinned_counts () =
  let open Harness.Runner in
  let fleet ?link_faults ?(trace = false) ?(rule = Dagrider.Ordering.dag_rider)
      ?(schedule = Uniform_random) ?(faults = []) ?(coin_in_dag = false)
      ?workload ?gc_depth ?restart ~backend ~n ~until () =
    let h =
      build
        { (default_options ~n) with
          backend;
          link_faults;
          rule;
          schedule;
          faults;
          coin_in_dag;
          workload;
          gc_depth;
          trace =
            (if trace then Some (Trace.create ~capacity:4096 ()) else None) }
    in
    (match restart with
    | None -> ()
    | Some (at, i) ->
      run h ~until:at;
      restart_node h i);
    run h ~until;
    ( Dagrider.Ordering.delivered_count (Dagrider.Node.ordering (node h 0)),
      honest_bits h )
  in
  let slowed_p0 =
    Custom
      (fun rng ->
        Net.Sched.delay_process
          ~inner:(Net.Sched.uniform_random ~rng)
          ~victim:0 ~factor:12.0)
  in
  List.iter
    (fun (name, (delivered, bits), (delivered', bits')) ->
      checki (name ^ " delivered") delivered delivered';
      checki (name ^ " honest_bits") bits bits')
    [ ( "bracha.n4",
        (112, 3136608),
        fleet ~backend:Bracha ~n:4 ~until:60.0 () );
      ("avid.n4", (64, 2967040), fleet ~backend:Avid ~n:4 ~until:40.0 ());
      ("gossip.n4", (128, 3767520), fleet ~backend:Gossip ~n:4 ~until:60.0 ());
      ( "bracha.n7.lossy",
        (55, 10726120),
        fleet ~backend:Bracha ~n:7 ~until:25.0
          ~link_faults:
            { default_link_faults with lf_drop = 0.05; lf_duplicate = 0.02 }
          () );
      ( "bracha.n4.traced",
        (112, 3136608),
        fleet ~trace:true ~backend:Bracha ~n:4 ~until:60.0 () );
      ( "bullshark.n10.sync",
        (78, 22706400),
        fleet ~rule:Dagrider.Ordering.bullshark ~schedule:Synchronous
          ~backend:Bracha ~n:10 ~until:30.0 () );
      ( "bullshark.n10.fallback",
        (115, 28395840),
        fleet ~rule:Dagrider.Ordering.bullshark ~schedule:slowed_p0
          ~backend:Bracha ~n:10 ~until:30.0 () );
      ( "dagrider.n10.sync",
        (1, 22706400),
        fleet ~schedule:Synchronous ~backend:Bracha ~n:10 ~until:30.0 () );
      ( "bracha.n7.crash",
        (72, 7989296),
        fleet ~faults:[ Crash 6 ] ~backend:Bracha ~n:7 ~until:40.0 () );
      ( "bracha.n7.byzantine-live",
        (111, 10821160),
        fleet ~faults:[ Byzantine_live 5 ] ~backend:Bracha ~n:7 ~until:40.0 () );
      ( "bracha.n7.attacker",
        (96, 9337776),
        fleet ~faults:[ fuzz 4 ] ~backend:Bracha ~n:7
          ~until:40.0 () );
      ( "avid.n7.attacker",
        (96, 12785976),
        fleet ~faults:[ fuzz 4 ] ~backend:Avid ~n:7 ~until:40.0
          () );
      ( "gossip.n7.attacker",
        (48, 9436152),
        fleet ~faults:[ fuzz 4 ] ~backend:Gossip ~n:7
          ~until:40.0 () );
      ( "bracha.n7.equivocate",
        (108, 10689392),
        fleet
          ~faults:
            [ Adversary (3, { Attack.strategy = Attack.Equivocate; victims = [] }) ]
          ~backend:Bracha ~n:7 ~until:40.0 () );
      ( "bracha.n7.withhold",
        (83, 10794448),
        fleet
          ~faults:
            [ Adversary (3, { Attack.strategy = Attack.Withhold; victims = [] }) ]
          ~backend:Bracha ~n:7 ~until:40.0 () );
      ( "bracha.n4.coin-in-dag",
        (96, 3304768),
        fleet ~coin_in_dag:true ~backend:Bracha ~n:4 ~until:60.0 () );
      ( "bracha.n4.workload",
        (48, 26191904),
        fleet ~workload:default_workload ~backend:Bracha ~n:4 ~until:30.0 () );
      ( "bracha.n4.gc4",
        (112, 3136608),
        fleet ~gc_depth:4 ~backend:Bracha ~n:4 ~until:60.0 () );
      ( "bracha.n4.restart",
        (112, 3140800),
        fleet ~restart:(30.0, 1) ~backend:Bracha ~n:4 ~until:60.0 () ) ]

let test_fault_list_checked () =
  (* a fault list must name each process at most once and in range; it
     is rejected before anything is wired *)
  let equivocate = { Attack.strategy = Attack.Equivocate; victims = [] } in
  let rejects faults =
    match
      Harness.Runner.build
        { (Harness.Runner.default_options ~n:7) with faults }
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "crash and adversary on one process" true
    (rejects [ Crash 1; Adversary (1, equivocate) ]);
  checkb "two adversaries on one process" true
    (rejects
       [ Adversary (2, equivocate);
         Adversary (2, { Attack.strategy = Attack.Withhold; victims = [] }) ]);
  checkb "index out of range" true (rejects [ Crash 7 ]);
  checkb "negative index" true (rejects [ Byzantine_live (-1) ]);
  checkb "distinct processes accepted" false
    (rejects [ Crash 1; Adversary (2, equivocate) ])

let test_active_attacker_tolerated () =
  (* an attacker floods the broadcast channel with garbage, invalid
     vertices, out-of-range edges and equivocation attempts; correct
     processes must drop it all and keep total order + progress *)
  List.iter
    (fun seed ->
      let opts =
        { (Harness.Runner.default_options ~n:4) with
          seed;
          faults = [ fuzz 3 ] }
      in
      let h = Harness.Runner.build opts in
      Harness.Runner.run h ~until:80.0;
      assert_safe h;
      checkb "progress despite attacker" true (min_delivered h > 15);
      (* the attacker can contribute at most one (valid) vertex per round
         it equivocated on; its garbage never enters any DAG *)
      let dag = Dagrider.Node.dag (Harness.Runner.node h 0) in
      List.iter
        (fun v ->
          checkb "only validated vertices in the DAG" true
            (Dagrider.Vertex.validate ~n:4 ~f:1 v = Ok ()))
        (Dagrider.Dag.vertices dag))
    [ 51; 52; 53 ]

let test_attacker_with_crash_at_bound () =
  (* n = 7, f = 2: one active attacker plus one crash = exactly f faults *)
  let opts =
    { (Harness.Runner.default_options ~n:7) with
      seed = 54;
      faults = [ fuzz 5; Crash 6 ] }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:80.0;
  assert_safe h;
  checkb "progress at the resilience bound" true (min_delivered h > 15)

(* ---- in-DAG coin (paper footnote 1) ---- *)

let test_coin_in_dag_equivalent_safety () =
  List.iter
    (fun backend ->
      let opts =
        { (Harness.Runner.default_options ~n:4) with
          seed = 31;
          backend;
          coin_in_dag = true }
      in
      let h = Harness.Runner.build opts in
      Harness.Runner.run h ~until:80.0;
      assert_safe h;
      checkb "progress" true (min_delivered h > 20);
      (* no separate coin traffic at all *)
      checkb "zero coin-share messages" true
        (List.assoc_opt "coin-share"
           (Metrics.Counters.bits_by_kind (Harness.Runner.counters h))
        = None))
    [ Harness.Runner.Bracha; Harness.Runner.Avid ]

let test_coin_in_dag_with_crashes () =
  let opts =
    { (Harness.Runner.default_options ~n:7) with
      seed = 32;
      coin_in_dag = true;
      faults = [ Crash 5; Crash 6 ] }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:100.0;
  assert_safe h;
  checkb "liveness with f crashes" true (min_delivered h > 20)

let test_coin_in_dag_same_leaders_as_separate () =
  (* both coin transports resolve the same leader sequence: the shares
     are deterministic in (holder, instance), only the channel differs *)
  let leaders coin_in_dag =
    let opts =
      { (Harness.Runner.default_options ~n:4) with seed = 33; coin_in_dag }
    in
    let h = Harness.Runner.build opts in
    Harness.Runner.run h ~until:80.0;
    let node = Harness.Runner.node h 0 in
    List.filter_map
      (fun w -> Dagrider.Node.leader_of node ~wave:w)
      (List.init 8 (fun i -> i + 1))
  in
  let a = leaders false and b = leaders true in
  checkb "at least 8 waves resolved" true (List.length a >= 8);
  Alcotest.(check (list int)) "same leader sequence" a b

(* ---- random-configuration property ---- *)

let prop_safety_across_random_configs =
  QCheck.Test.make ~name:"total order holds across random configurations"
    ~count:25
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let rng = Stdx.Rng.create seed in
      let n = List.nth [ 4; 7 ] (Stdx.Rng.int rng 2) in
      let f = (n - 1) / 3 in
      let backend =
        List.nth
          [ Harness.Runner.Bracha; Harness.Runner.Avid ]
          (Stdx.Rng.int rng 2)
      in
      let schedule =
        List.nth
          [ Harness.Runner.Synchronous;
            Harness.Runner.Uniform_random;
            Harness.Runner.Skewed_random ]
          (Stdx.Rng.int rng 3)
      in
      let faults =
        if Stdx.Rng.bool rng then []
        else
          List.init (Stdx.Rng.int rng (f + 1)) (fun i ->
              Harness.Runner.Crash (n - 1 - i))
      in
      let coin_in_dag = Stdx.Rng.bool rng in
      let opts =
        { (Harness.Runner.default_options ~n) with
          seed = seed + 1;
          backend;
          schedule;
          faults;
          coin_in_dag;
          block_bytes = 16 }
      in
      let h = Harness.Runner.build opts in
      (* long enough that "every wave's leader happened to be among the
         laggards" is negligible (a wave legitimately commits nothing
         when its leader lags, p <= 1/3 per wave) *)
      Harness.Runner.run h ~until:100.0;
      Harness.Runner.check_total_order h = Ok ()
      && Harness.Runner.check_integrity h = Ok ()
      && min_delivered h > 0)

(* ---- schedule fuzzer: randomly composed adversaries ---- *)

let random_schedule rng =
  (* stack 1-3 random adversarial combinators over a random base *)
  let base r =
    match Stdx.Rng.int rng 3 with
    | 0 -> Net.Sched.uniform_random ~rng:r
    | 1 -> Net.Sched.skewed_random ~rng:r
    | _ -> Net.Sched.bimodal ~rng:r
  in
  let wrap inner =
    match Stdx.Rng.int rng 4 with
    | 0 ->
      Net.Sched.delay_process ~inner ~victim:(Stdx.Rng.int rng 4)
        ~factor:(float_of_int (2 + Stdx.Rng.int rng 30))
    | 1 ->
      Net.Sched.delay_matching ~inner
        ~pred:(fun ~src:_ ~dst:_ ~kind -> kind = "coin-share")
        ~factor:(float_of_int (2 + Stdx.Rng.int rng 10))
    | 2 ->
      let from_time = float_of_int (Stdx.Rng.int rng 40) in
      Net.Sched.with_window ~inner ~from_time ~until_time:(from_time +. 20.0)
        ~during:
          (Net.Sched.delay_process ~inner ~victim:(Stdx.Rng.int rng 4)
             ~factor:50.0)
    | _ -> Net.Sched.rush_process ~inner ~favored:(Stdx.Rng.int rng 4)
  in
  fun r ->
    let rec stack s k = if k = 0 then s else stack (wrap s) (k - 1) in
    stack (base r) (1 + Stdx.Rng.int rng 3)

let prop_safety_under_fuzzed_schedules =
  QCheck.Test.make ~name:"safety under randomly composed adversaries" ~count:20
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let rng = Stdx.Rng.create (seed * 7) in
      let opts =
        { (Harness.Runner.default_options ~n:4) with
          seed = seed + 3;
          schedule = Harness.Runner.Custom (random_schedule rng);
          block_bytes = 16 }
      in
      let h = Harness.Runner.build opts in
      Harness.Runner.run h ~until:120.0;
      let safe =
        Harness.Runner.check_total_order h = Ok ()
        && Harness.Runner.check_integrity h = Ok ()
      in
      (* safety always; liveness whenever the adversary's delays are as
         bounded as these all are — but stacked factors can legally make
         a round cost ~30 units (e.g. input 94015 first delivers near
         t=240), so give delivery a longer horizon before failing *)
      if min_delivered h > 0 then safe
      else begin
        Harness.Runner.run h ~until:600.0;
        safe
        && Harness.Runner.check_total_order h = Ok ()
        && Harness.Runner.check_integrity h = Ok ()
        && min_delivered h > 0
      end)

(* ---- live restart + catch-up sync ---- *)

let test_restart_catches_up () =
  List.iter
    (fun seed ->
      let opts = { (Harness.Runner.default_options ~n:4) with seed } in
      let h = Harness.Runner.build opts in
      Harness.Runner.run h ~until:40.0;
      let before =
        Dagrider.Ordering.delivered_count
          (Dagrider.Node.ordering (Harness.Runner.node h 2))
      in
      Harness.Runner.restart_node h 2;
      checki "restored log carried over" before
        (Dagrider.Ordering.delivered_count
           (Dagrider.Node.ordering (Harness.Runner.node h 2)));
      Harness.Runner.run h ~until:100.0;
      assert_safe h;
      let after =
        Dagrider.Ordering.delivered_count
          (Dagrider.Node.ordering (Harness.Runner.node h 2))
      in
      checkb
        (Printf.sprintf "seed %d: restarted node kept delivering (%d -> %d)"
           seed before after)
        true (after > before + 10);
      (* it caught back up with the fleet, not just trickled *)
      let healthy =
        Dagrider.Ordering.delivered_count
          (Dagrider.Node.ordering (Harness.Runner.node h 0))
      in
      checkb
        (Printf.sprintf "seed %d: within reach of healthy peers (%d vs %d)"
           seed after healthy)
        true (after * 10 >= healthy * 8))
    [ 61; 62; 63 ]

let test_double_restart () =
  let opts = { (Harness.Runner.default_options ~n:4) with seed = 64 } in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:30.0;
  Harness.Runner.restart_node h 1;
  Harness.Runner.run h ~until:60.0;
  Harness.Runner.restart_node h 1;
  Harness.Runner.run h ~until:120.0;
  assert_safe h;
  checkb "progress through two restarts" true (min_delivered h > 40)

(* A snapshot carries its GC horizon: the restored DAG is pruned to it
   before the retained rounds are grafted back, whose edges into pruned
   rounds would otherwise be missing. *)
let test_restart_under_gc () =
  let opts =
    { (Harness.Runner.default_options ~n:4) with seed = 42; gc_depth = Some 4 }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:100.0;
  let delivered () =
    Dagrider.Ordering.delivered_count
      (Dagrider.Node.ordering (Harness.Runner.node h 1))
  in
  let horizon () =
    Dagrider.Dag.pruned_below (Dagrider.Node.dag (Harness.Runner.node h 1))
  in
  let before = delivered () and pruned = horizon () in
  checkb "the run pruned before the restart" true (pruned > 1);
  Harness.Runner.restart_node h 1;
  checki "restored log carried over" before (delivered ());
  checki "restored horizon" pruned (horizon ());
  Harness.Runner.run h ~until:300.0;
  assert_safe h;
  checkb
    (Printf.sprintf "restarted node kept delivering (%d -> %d)" before
       (delivered ()))
    true
    (delivered () > before + 100)

(* Runner.restart_node's catch-up test skips the rounds below the GC
   horizon, which are empty by pruning: a node restored under GC that
   has caught up must not be sent retry after retry and then reported
   as having given up. *)
let test_restart_under_gc_catches_up_without_giving_up () =
  let tr = Trace.create ~capacity:100_000 () in
  let opts =
    { (Harness.Runner.default_options ~n:4) with
      seed = 42;
      gc_depth = Some 4;
      trace = Some tr }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:100.0;
  Harness.Runner.restart_node h 1;
  Harness.Runner.run h ~until:300.0;
  assert_safe h;
  let gave_up =
    List.exists
      (fun (e : Trace.event) ->
        match e.Trace.kind with Trace.Sync_gave_up _ -> true | _ -> false)
      (Trace.events tr)
  in
  checkb "no give-up after catching up" false gave_up

let test_restart_during_attack () =
  (* a node restarts while an active attacker is flooding the channel *)
  let opts =
    { (Harness.Runner.default_options ~n:7) with
      seed = 65;
      faults = [ fuzz 6 ] }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:30.0;
  Harness.Runner.restart_node h 0;
  Harness.Runner.run h ~until:100.0;
  assert_safe h;
  checkb "restarted node fine despite attacker" true
    (Dagrider.Ordering.delivered_count
       (Dagrider.Node.ordering (Harness.Runner.node h 0))
    > 30)

let test_restart_refuses_faulty () =
  (* a crashed process has no state to restart from, and an adversary
     would be rebuilt honest while still counted Byzantine: both calls
     are refused and the run goes on untouched *)
  let equivocate = { Attack.strategy = Attack.Equivocate; victims = [ 1 ] } in
  let h =
    Harness.Runner.build
      { (Harness.Runner.default_options ~n:7) with
        seed = 66;
        faults = [ Crash 5; Adversary (6, equivocate) ] }
  in
  Harness.Runner.run h ~until:20.0;
  let refused i =
    match Harness.Runner.restart_node h i with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  checkb "crashed process refused" true (refused 5);
  checkb "adversary refused" true (refused 6);
  checkb "adversary still reported" true
    (List.map (fun r -> r.Harness.Runner.ar_node) (Harness.Runner.attack_reports h)
    = [ 6 ]);
  checkb "correct process restarts" false (refused 0);
  Harness.Runner.run h ~until:60.0;
  assert_safe h

(* ---- run_until_delivered helper ---- *)

let test_run_until_delivered () =
  let opts = { (Harness.Runner.default_options ~n:4) with seed = 18 } in
  let h = Harness.Runner.build opts in
  match Harness.Runner.run_until_delivered h ~count:20 ~max_time:200.0 with
  | Some t ->
    checkb "completed in reasonable time" true (t < 100.0);
    checkb "count reached" true (min_delivered h >= 20)
  | None -> Alcotest.fail "never delivered 20 vertices"

let () =
  Alcotest.run "integration"
    [ ("matrix", matrix_cases);
      ( "scale",
        [ Alcotest.test_case "n=10" `Slow test_larger_system;
          Alcotest.test_case "n=16 stress" `Slow test_stress_n16 ] );
      ( "determinism",
        [ Alcotest.test_case "same seed replays" `Quick test_determinism_same_seed;
          Alcotest.test_case "seeds safe" `Quick test_different_seeds_still_safe ] );
      ( "faults",
        [ Alcotest.test_case "f crashes tolerated" `Quick test_f_crashes_tolerated;
          Alcotest.test_case "f+1 crashes halt safely" `Quick
            test_fplus1_crashes_halt_but_stay_safe ] );
      ( "validity",
        [ Alcotest.test_case "all correct blocks ordered" `Quick
            test_validity_all_correct_blocks_ordered;
          Alcotest.test_case "censored process ordered" `Quick
            test_censored_process_still_ordered;
          Alcotest.test_case "weak edges ablation" `Slow
            test_weak_edges_off_starves_victim ] );
      ( "quality",
        [ Alcotest.test_case "chain quality" `Quick test_chain_quality_with_byzantine_live;
          Alcotest.test_case "leader agreement depth" `Quick
            test_committed_leader_sequences_agree;
          Alcotest.test_case "claim 6 commit rate" `Quick test_claim6_commit_rate ] );
      ( "gc",
        [ Alcotest.test_case "gc preserves output" `Quick test_gc_preserves_output;
          Alcotest.test_case "gc prunes" `Quick test_gc_actually_prunes;
          Alcotest.test_case "gc keeps per-round state flat" `Quick
            test_gc_state_flat ] );
      ( "ablation",
        [ Alcotest.test_case "quorum below f+1 diverges" `Quick
            test_quorum_below_fplus1_diverges;
          Alcotest.test_case "wave-length table pinned" `Quick
            test_ablation_wave_length_pinned ] );
      ( "attacker",
        [ Alcotest.test_case "active attacker tolerated" `Quick
            test_active_attacker_tolerated;
          Alcotest.test_case "attacker + crash at bound" `Quick
            test_attacker_with_crash_at_bound ] );
      ( "coin-in-dag",
        [ Alcotest.test_case "safety + zero coin traffic" `Quick
            test_coin_in_dag_equivalent_safety;
          Alcotest.test_case "with crashes" `Quick test_coin_in_dag_with_crashes;
          Alcotest.test_case "same leader sequence" `Quick
            test_coin_in_dag_same_leaders_as_separate ] );
      ( "property",
        [ (* pinned RNG: the sampled configurations/schedules are a pure
             function of this seed, like every other run in the repo —
             QCHECK_SEED still overrides for exploration *)
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            prop_safety_across_random_configs;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            prop_safety_under_fuzzed_schedules ] );
      ( "restart",
        [ Alcotest.test_case "catches up after restart" `Quick test_restart_catches_up;
          Alcotest.test_case "double restart" `Quick test_double_restart;
          Alcotest.test_case "restart under gc" `Quick test_restart_under_gc;
          Alcotest.test_case "restart under gc: no spurious give-up" `Quick
            test_restart_under_gc_catches_up_without_giving_up;
          Alcotest.test_case "restart during attack" `Quick
            test_restart_during_attack;
          Alcotest.test_case "restart refuses crashed and adversary" `Quick
            test_restart_refuses_faulty ] );
      ( "harness",
        [ Alcotest.test_case "run_until_delivered" `Quick test_run_until_delivered;
          Alcotest.test_case "pinned counts" `Quick test_pinned_counts;
          Alcotest.test_case "fault list checked" `Quick test_fault_list_checked ] )
    ]
