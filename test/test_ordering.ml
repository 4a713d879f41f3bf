(* Tests for the ordering layer (Algorithm 3) over hand-constructed
   DAGs, including a faithful reconstruction of the paper's Figure 2
   cross-wave commit scenario. n = 4, f = 1 throughout. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let vref round source = { Dagrider.Vertex.round; source }

let add dag ~round ~source ?(block = "") ~strong ?(weak = []) () =
  Dagrider.Dag.add dag
    { Dagrider.Vertex.round;
      source;
      block;
      strong_edges = List.map (fun (r, s) -> vref r s) strong;
      weak_edges = List.map (fun (r, s) -> vref r s) weak }

let full_round dag ~round =
  let prev =
    List.map
      (fun v ->
        let r = Dagrider.Vertex.vref_of v in
        (r.Dagrider.Vertex.round, r.Dagrider.Vertex.source))
      (Dagrider.Dag.round_vertices dag (round - 1))
  in
  for source = 0 to 3 do
    add dag ~round ~source ~block:(Printf.sprintf "b%d.%d" round source)
      ~strong:prev ()
  done

let full_dag ~rounds =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to rounds do
    full_round dag ~round:r
  done;
  dag

(* most tests exercise the paper's rule: 4-round waves, 2f+1 quorum *)
let commit_rule_met ?(rule = Dagrider.Ordering.dag_rider) ~dag ~f ~wave ~leader
    () =
  Dagrider.Ordering.commit_rule_met ~rule ~f ~dag ~wave ~leader

(* the paper's rule with another wave length, as the ablation runs it *)
let dag_rider_waves l =
  { Dagrider.Ordering.dag_rider with rule_wave_length = l }

(* ---- helpers of the module ---- *)

let test_round_of () =
  checki "round(1,1)" 1 (Dagrider.Ordering.round_of ~wave_length:4 ~wave:1 ~k:1);
  checki "round(1,4)" 4 (Dagrider.Ordering.round_of ~wave_length:4 ~wave:1 ~k:4);
  checki "round(2,1)" 5 (Dagrider.Ordering.round_of ~wave_length:4 ~wave:2 ~k:1);
  checki "round(3,4)" 12
    (Dagrider.Ordering.round_of ~wave_length:4 ~wave:3 ~k:4);
  (* wave_length 2 (Bullshark): wave w covers rounds 2w-1 and 2w *)
  checki "L2 round(1,1)" 1
    (Dagrider.Ordering.round_of ~wave_length:2 ~wave:1 ~k:1);
  checki "L2 round(1,2)" 2
    (Dagrider.Ordering.round_of ~wave_length:2 ~wave:1 ~k:2);
  checki "L2 round(2,1)" 3
    (Dagrider.Ordering.round_of ~wave_length:2 ~wave:2 ~k:1);
  checki "L2 round(5,2)" 10
    (Dagrider.Ordering.round_of ~wave_length:2 ~wave:5 ~k:2);
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Ordering.round_of: k out of wave") (fun () ->
      ignore (Dagrider.Ordering.round_of ~wave_length:4 ~wave:1 ~k:5));
  (* off-by-one guard: k = 3 fits a 4-round wave but not a 2-round one *)
  Alcotest.check_raises "L2 k=3 out of wave"
    (Invalid_argument "Ordering.round_of: k out of wave") (fun () ->
      ignore (Dagrider.Ordering.round_of ~wave_length:2 ~wave:1 ~k:3))

let test_wave_of_completed_round () =
  Alcotest.(check (option int)) "round 4 ends wave 1" (Some 1)
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:4 4);
  Alcotest.(check (option int)) "round 8 ends wave 2" (Some 2)
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:4 8);
  Alcotest.(check (option int)) "round 5 ends nothing" None
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:4 5);
  Alcotest.(check (option int)) "round 0 ends nothing" None
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:4 0);
  (* wave_length 2: every even round ends a wave, odd rounds end none *)
  Alcotest.(check (option int)) "L2 round 2 ends wave 1" (Some 1)
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:2 2);
  Alcotest.(check (option int)) "L2 round 6 ends wave 3" (Some 3)
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:2 6);
  Alcotest.(check (option int)) "L2 round 1 ends nothing" None
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:2 1);
  Alcotest.(check (option int)) "L2 round 7 ends nothing" None
    (Dagrider.Ordering.wave_of_completed_round ~wave_length:2 7)

let test_leader_vertex_lookup () =
  let dag = full_dag ~rounds:4 in
  (match
     Dagrider.Ordering.leader_vertex ~rule:Dagrider.Ordering.dag_rider ~dag
       ~wave:1 ~leader_source:2
   with
  | Some v ->
    checki "round" 1 v.Dagrider.Vertex.round;
    checki "source" 2 v.Dagrider.Vertex.source
  | None -> Alcotest.fail "leader should exist");
  checkb "absent leader" true
    (Dagrider.Ordering.leader_vertex ~rule:Dagrider.Ordering.dag_rider ~dag
       ~wave:2 ~leader_source:0
    = None);
  (* L2: wave 2's leader sits in round 3, not round 5 *)
  (match
     Dagrider.Ordering.leader_vertex ~rule:Dagrider.Ordering.bullshark ~dag
       ~wave:2 ~leader_source:1
   with
  | Some v -> checki "L2 wave-2 leader round" 3 v.Dagrider.Vertex.round
  | None -> Alcotest.fail "L2 leader should exist")

(* ---- the rule records ---- *)

let test_rule_records () =
  let dr = Dagrider.Ordering.dag_rider and bs = Dagrider.Ordering.bullshark in
  checki "dagrider wave length" 4 dr.Dagrider.Ordering.rule_wave_length;
  checki "bullshark wave length" 2 bs.Dagrider.Ordering.rule_wave_length;
  checki "dagrider quorum" 3 (Dagrider.Ordering.quorum_of dr ~f:1);
  checki "bullshark quorum" 2 (Dagrider.Ordering.quorum_of bs ~f:1);
  checki "dagrider quorum f=3" 7 (Dagrider.Ordering.quorum_of dr ~f:3);
  checki "bullshark quorum f=3" 4 (Dagrider.Ordering.quorum_of bs ~f:3);
  checkb "lookup dagrider" true
    (Dagrider.Ordering.rule_of_name "dagrider" = Some dr);
  checkb "lookup bullshark" true
    (Dagrider.Ordering.rule_of_name "bullshark" = Some bs);
  checkb "lookup unknown" true (Dagrider.Ordering.rule_of_name "hotstuff" = None);
  (* the round-robin schedule wraps over n and starts at process 0 *)
  checki "rr wave 1" 0 (Dagrider.Ordering.round_robin_leader ~n:4 ~wave:1);
  checki "rr wave 4" 3 (Dagrider.Ordering.round_robin_leader ~n:4 ~wave:4);
  checki "rr wave 5 wraps" 0 (Dagrider.Ordering.round_robin_leader ~n:4 ~wave:5);
  Alcotest.check_raises "rr wave 0 rejected"
    (Invalid_argument "Ordering.round_robin_leader: wave must be >= 1")
    (fun () -> ignore (Dagrider.Ordering.round_robin_leader ~n:4 ~wave:0))

let test_create_from_rule () =
  let ord = Dagrider.Ordering.create ~rule:Dagrider.Ordering.bullshark ~f:1 () in
  checkb "rule retained" true
    (Dagrider.Ordering.rule ord = Dagrider.Ordering.bullshark);
  (* variants are plain record updates, retained as given *)
  let variant =
    { Dagrider.Ordering.bullshark with
      rule_wave_length = 6;
      rule_quorum = Dagrider.Ordering.Fixed 1 }
  in
  let ord2 = Dagrider.Ordering.create ~rule:variant ~f:1 () in
  checkb "variant retained" true (Dagrider.Ordering.rule ord2 = variant);
  checki "fixed quorum" 1 (Dagrider.Ordering.quorum_of variant ~f:1);
  Alcotest.check_raises "zero-length waves rejected"
    (Invalid_argument "Ordering.create: rule_wave_length < 1") (fun () ->
      ignore (Dagrider.Ordering.create ~rule:(dag_rider_waves 0) ~f:1 ()));
  Alcotest.check_raises "negative gc depth rejected"
    (Invalid_argument "Ordering.create: gc_depth < 0") (fun () ->
      ignore (Dagrider.Ordering.create ~gc_depth:(-1) ~f:1 ()));
  (* the coin cadence: a coin rule's own wave length, DAG-Rider's 4
     under round-robin leaders *)
  checki "dagrider coin cadence" 4
    (Dagrider.Ordering.coin_wave_length Dagrider.Ordering.dag_rider);
  checki "bullshark coin cadence" 4
    (Dagrider.Ordering.coin_wave_length Dagrider.Ordering.bullshark);
  checki "3-round coin rule cadence" 3
    (Dagrider.Ordering.coin_wave_length (dag_rider_waves 3))

(* ---- commit rule ---- *)

let test_commit_rule_full_dag () =
  let dag = full_dag ~rounds:4 in
  let leader = Option.get (Dagrider.Dag.find dag (vref 1 0)) in
  checkb "full support" true
    (commit_rule_met ~dag ~f:1 ~wave:1 ~leader ())

let test_commit_rule_insufficient_support () =
  (* round 4 has only 2 vertices with a strong path to the leader *)
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~round:1;
  (* rounds 2,3: only sources 1..3 include leader (1,0)... simpler:
     rounds 2-3 full, then round 4 with only two vertices *)
  full_round dag ~round:2;
  full_round dag ~round:3;
  for source = 0 to 1 do
    add dag ~round:4 ~source ~strong:[ (3, 0); (3, 1); (3, 2) ] ()
  done;
  let leader = Option.get (Dagrider.Dag.find dag (vref 1 0)) in
  checkb "2 < 2f+1" false
    (commit_rule_met ~dag ~f:1 ~wave:1 ~leader ())

let test_commit_rule_exact_boundary () =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to 3 do
    full_round dag ~round:r
  done;
  for source = 0 to 2 do
    add dag ~round:4 ~source ~strong:[ (3, 0); (3, 1); (3, 2) ] ()
  done;
  let leader = Option.get (Dagrider.Dag.find dag (vref 1 0)) in
  checkb "exactly 2f+1" true
    (commit_rule_met ~dag ~f:1 ~wave:1 ~leader ());
  checkb "stricter quorum fails" false
    (commit_rule_met
       ~rule:
         { Dagrider.Ordering.dag_rider with
           rule_quorum = Dagrider.Ordering.Fixed 4 }
       ~dag ~f:1 ~wave:1 ~leader ())

(* ---- process_wave ---- *)

let test_process_wave_commits_full () =
  let dag = full_dag ~rounds:4 in
  let ord = Dagrider.Ordering.create ~f:1 () in
  let commits =
    Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:(fun _ -> 2)
  in
  checki "one commit" 1 (List.length commits);
  let c = List.hd commits in
  checki "wave" 1 c.Dagrider.Ordering.wave;
  checkb "direct" true c.Dagrider.Ordering.direct;
  (* the wave-1 leader sits in round 1: its causal history is itself *)
  checki "delivered count" 1 (List.length c.Dagrider.Ordering.delivered);
  checkb "leader delivered" true
    (Dagrider.Vertex.vref_of (List.hd c.Dagrider.Ordering.delivered) = vref 1 2);
  checki "decided wave" 1 (Dagrider.Ordering.decided_wave ord);
  (* a wave-2 commit then delivers the rest of rounds 1-5 reachable from
     its leader *)
  let dag8 = full_dag ~rounds:8 in
  let ord2 = Dagrider.Ordering.create ~f:1 () in
  let c2 =
    Dagrider.Ordering.process_wave ord2 ~dag:dag8 ~wave:2 ~choose_leader:(fun _ -> 0)
  in
  (* wave 1's leader is chained first (strong path exists in a full
     DAG); then wave 2's leader delivers the rest of rounds 1-5 it
     reaches: 16 + 1 - 1 already delivered = 16 fresh vertices *)
  checki "two commits" 2 (List.length c2);
  checki "wave-1 chain delivers leader" 1
    (List.length (List.nth c2 0).Dagrider.Ordering.delivered);
  checki "wave-2 history size" 16
    (List.length (List.nth c2 1).Dagrider.Ordering.delivered)

let test_process_wave_no_leader_vertex () =
  let dag = full_dag ~rounds:4 in
  (* remove nothing; ask for a leader source with no round-5 vertex in
     wave 2 (incomplete wave) *)
  let ord = Dagrider.Ordering.create ~f:1 () in
  let commits =
    Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:(fun _ -> 0)
  in
  checki "no commits" 0 (List.length commits);
  checki "wave not decided" 0 (Dagrider.Ordering.decided_wave ord)

let test_process_wave_idempotent_and_monotonic () =
  let dag = full_dag ~rounds:8 in
  let ord = Dagrider.Ordering.create ~f:1 () in
  let c1 =
    Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:(fun _ -> 0)
  in
  checki "first commit" 1 (List.length c1);
  (* re-processing the same wave does nothing *)
  let c1' =
    Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:(fun _ -> 0)
  in
  checki "idempotent" 0 (List.length c1');
  let c2 =
    Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:(fun _ -> 1)
  in
  checki "second wave commits" 1 (List.length c2);
  (* no vertex delivered twice across waves *)
  let log = Dagrider.Ordering.delivered_log ord in
  let refs = List.map Dagrider.Vertex.vref_of log in
  checki "no duplicates" (List.length refs)
    (List.length (List.sort_uniq Dagrider.Vertex.compare_vref refs))

let test_delivered_log_is_causal () =
  (* every vertex appears after everything in its causal history *)
  let dag = full_dag ~rounds:8 in
  let ord = Dagrider.Ordering.create ~f:1 () in
  ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:(fun _ -> 0));
  ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:(fun _ -> 3));
  let log = Dagrider.Ordering.delivered_log ord in
  let position = Hashtbl.create 64 in
  List.iteri
    (fun i v -> Hashtbl.add position (Dagrider.Vertex.vref_of v) i)
    log;
  List.iteri
    (fun i v ->
      List.iter
        (fun (e : Dagrider.Vertex.vref) ->
          if e.Dagrider.Vertex.round >= 1 then
            match Hashtbl.find_opt position e with
            | Some j ->
              checkb
                (Printf.sprintf "edge target before vertex (%d < %d)" j i)
                true (j < i)
            | None -> Alcotest.fail "edge target missing from log")
        (v.Dagrider.Vertex.strong_edges @ v.Dagrider.Vertex.weak_edges))
    log

(* ---- the Figure 2 scenario ---- *)

(* Build the paper's Figure 2 situation explicitly:
   - wave 2's leader a1 = (5, 1) is reachable from only 2 < 2f+1 round-8
     vertices, so wave 2 does not commit directly;
   - wave 3's leader e = (9, L3) has full round-12 support and a strong
     path to a1, so processing wave 3 commits a1 first, then e. *)
let build_fig2_dag () =
  let dag = Dagrider.Dag.create ~n:4 in
  (* wave 1: full rounds 1-4 *)
  for r = 1 to 4 do
    full_round dag ~round:r
  done;
  (* wave 2, round 5 (= round(2,1)): all four vertices; leader will be a1 *)
  full_round dag ~round:5;
  (* round 6: only b0 references a1 = (5,1) *)
  add dag ~round:6 ~source:0 ~strong:[ (5, 0); (5, 1); (5, 2) ] ();
  for source = 1 to 3 do
    add dag ~round:6 ~source ~strong:[ (5, 0); (5, 2); (5, 3) ] ()
  done;
  (* round 7: only c0 references b0 *)
  add dag ~round:7 ~source:0 ~strong:[ (6, 0); (6, 1); (6, 2) ] ();
  for source = 1 to 3 do
    add dag ~round:7 ~source ~strong:[ (6, 1); (6, 2); (6, 3) ] ()
  done;
  (* round 8: d0, d1 reference c0 (reach a1); d2, d3 avoid it *)
  add dag ~round:8 ~source:0 ~strong:[ (7, 0); (7, 1); (7, 2) ] ();
  add dag ~round:8 ~source:1 ~strong:[ (7, 0); (7, 2); (7, 3) ] ();
  add dag ~round:8 ~source:2 ~strong:[ (7, 1); (7, 2); (7, 3) ] ();
  add dag ~round:8 ~source:3 ~strong:[ (7, 1); (7, 2); (7, 3) ] ();
  (* wave 3: rounds 9-12, full; round 9 includes d0 so the wave-3 leader
     reaches a1 *)
  for r = 9 to 12 do
    full_round dag ~round:r
  done;
  dag

let fig2_leaders wave =
  match wave with
  | 2 -> 1 (* a1 = (5, 1) *)
  | 3 -> 2 (* e = (9, 2) *)
  | _ -> 0

let test_fig2_wave2_support_is_two () =
  let dag = build_fig2_dag () in
  let a1 = Option.get (Dagrider.Dag.find dag (vref 5 1)) in
  let support =
    List.filter
      (fun v ->
        Dagrider.Dag.strong_path dag (Dagrider.Vertex.vref_of v)
          (Dagrider.Vertex.vref_of a1))
      (Dagrider.Dag.round_vertices dag 8)
  in
  checki "exactly 2 supporters" 2 (List.length support);
  checkb "commit rule not met" false
    (commit_rule_met ~dag ~f:1 ~wave:2 ~leader:a1 ())

let test_fig2_wave2_does_not_commit_directly () =
  let dag = build_fig2_dag () in
  let ord = Dagrider.Ordering.create ~f:1 () in
  (* decide wave 1 first, as a process naturally would *)
  ignore
    (Dagrider.Ordering.process_wave ord ~dag ~wave:1
       ~choose_leader:fig2_leaders);
  let commits =
    Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:fig2_leaders
  in
  checki "wave 2 skipped" 0 (List.length commits);
  checki "decidedWave still 1" 1 (Dagrider.Ordering.decided_wave ord)

let test_fig2_wave3_commits_wave2_first () =
  let dag = build_fig2_dag () in
  let ord = Dagrider.Ordering.create ~f:1 () in
  ignore
    (Dagrider.Ordering.process_wave ord ~dag ~wave:1
       ~choose_leader:fig2_leaders);
  ignore
    (Dagrider.Ordering.process_wave ord ~dag ~wave:2
       ~choose_leader:fig2_leaders);
  let commits =
    Dagrider.Ordering.process_wave ord ~dag ~wave:3 ~choose_leader:fig2_leaders
  in
  checki "two leaders committed" 2 (List.length commits);
  let first = List.nth commits 0 and second = List.nth commits 1 in
  checki "wave 2 first" 2 first.Dagrider.Ordering.wave;
  checkb "wave 2 chained, not direct" false first.Dagrider.Ordering.direct;
  checkb "wave-2 leader is a1" true
    (Dagrider.Vertex.vref_of first.Dagrider.Ordering.leader = vref 5 1);
  checki "wave 3 second" 3 second.Dagrider.Ordering.wave;
  checkb "wave 3 direct" true second.Dagrider.Ordering.direct;
  (* a1 delivered before the wave-3 leader in the log *)
  let log = Dagrider.Ordering.delivered_log ord in
  let pos r =
    let rec go i = function
      | [] -> -1
      | v :: vs -> if Dagrider.Vertex.vref_of v = r then i else go (i + 1) vs
    in
    go 0 log
  in
  checkb "a1 before wave-3 leader" true (pos (vref 5 1) < pos (vref 9 2));
  checki "decidedWave now 3" 3 (Dagrider.Ordering.decided_wave ord)

let test_fig2_skipped_leader_absent_entirely () =
  (* variant: the wave-2 leader vertex does not even exist in the DAG;
     wave 3 must then NOT commit wave 2 (Lemma 1 says nobody did) *)
  let dag = build_fig2_dag () in
  let ord = Dagrider.Ordering.create ~f:1 () in
  let leaders = function 2 -> 1 | 3 -> 2 | _ -> 0 in
  ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:leaders);
  (* use a leader choice pointing at a vertex that is missing: source 1
     has a round-5 vertex here, so instead simulate by choosing wave-2
     leader from a fresh dag without round 5's source-1 vertex *)
  let dag2 = Dagrider.Dag.create ~n:4 in
  for r = 1 to 4 do
    full_round dag2 ~round:r
  done;
  for source = 0 to 2 do
    (* round 5 without source 3 *)
    add dag2 ~round:5 ~source ~strong:[ (4, 0); (4, 1); (4, 2); (4, 3) ] ()
  done;
  for r = 6 to 12 do
    let prev =
      List.map
        (fun v ->
          let r = Dagrider.Vertex.vref_of v in
          (r.Dagrider.Vertex.round, r.Dagrider.Vertex.source))
        (Dagrider.Dag.round_vertices dag2 (r - 1))
    in
    for source = 0 to 3 do
      add dag2 ~round:r ~source ~strong:prev ()
    done
  done;
  let ord2 = Dagrider.Ordering.create ~f:1 () in
  let leaders2 = function 2 -> 3 (* missing vertex *) | _ -> 0 in
  ignore (Dagrider.Ordering.process_wave ord2 ~dag:dag2 ~wave:1 ~choose_leader:leaders2);
  ignore (Dagrider.Ordering.process_wave ord2 ~dag:dag2 ~wave:2 ~choose_leader:leaders2);
  let commits =
    Dagrider.Ordering.process_wave ord2 ~dag:dag2 ~wave:3 ~choose_leader:leaders2
  in
  checki "only wave 3 committed" 1 (List.length commits);
  checki "wave" 3 (List.hd commits).Dagrider.Ordering.wave

let test_chained_commit_across_many_waves () =
  (* waves 2..4 all skipped (leaders missing), wave 5 commits and chains
     none of them — then delivers everything reachable *)
  let dag = full_dag ~rounds:20 in
  let ord = Dagrider.Ordering.create ~f:1 () in
  ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:(fun _ -> 0));
  let commits =
    Dagrider.Ordering.process_wave ord ~dag ~wave:5 ~choose_leader:(fun _ -> 1)
  in
  (* full dag: wave 5's leader reaches the leaders of waves 2-4, so all
     four commit, earliest first *)
  checki "four commits" 4 (List.length commits);
  Alcotest.(check (list int)) "wave order" [ 2; 3; 4; 5 ]
    (List.map (fun c -> c.Dagrider.Ordering.wave) commits);
  checkb "only last is direct" true
    (List.for_all
       (fun c -> c.Dagrider.Ordering.direct = (c.Dagrider.Ordering.wave = 5))
       commits)

let test_total_delivered_count_matches_log () =
  let dag = full_dag ~rounds:8 in
  let ord = Dagrider.Ordering.create ~f:1 () in
  ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:(fun _ -> 0));
  ignore (Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:(fun _ -> 1));
  checki "count = log length"
    (List.length (Dagrider.Ordering.delivered_log ord))
    (Dagrider.Ordering.delivered_count ord);
  checkb "is_delivered agrees" true
    (List.for_all
       (fun v -> Dagrider.Dag.is_delivered dag (Dagrider.Vertex.vref_of v))
       (Dagrider.Ordering.delivered_log ord))

(* ---- garbage collection: one horizon, set by the committed leaders ----

   Bullshark, gc_depth 2. Rounds 1-6 hold p0..p2 only, and p3's
   round-1 vertex arrives late. Ordering A has committed waves 1-3
   (leaders (1,0), (3,1), (5,2)), so its DAG is pruned below round 3
   and drops the straggler; B has committed nothing yet and holds it.
   p3's round-7 vertex, wave 4's leader, names the straggler by a weak
   edge. A commits wave 4; B commits waves 1-4 in one chain. Each prunes
   after every leader it delivers, so B's walk for wave 4 stops at round
   3 as A's does, and both output the same log without the straggler.
   An ordering without GC delivers it, so the scenario reaches it. *)

let bullshark_prefix dag =
  for round = 1 to 6 do
    let prev = List.init 3 (fun s -> (round - 1, s)) in
    let prev = if round = 1 then (0, 3) :: prev else prev in
    for source = 0 to 2 do
      add dag ~round ~source ~strong:prev ()
    done
  done

let bullshark_wave4 dag =
  let round6 = List.init 3 (fun s -> (6, s)) in
  for source = 0 to 2 do
    add dag ~round:7 ~source ~strong:round6 ()
  done;
  add dag ~round:7 ~source:3 ~strong:round6 ~weak:[ (1, 3) ] ();
  for source = 0 to 2 do
    add dag ~round:8 ~source ~strong:(List.init 4 (fun s -> (7, s))) ()
  done

let test_gc_straggler_same_log () =
  let module O = Dagrider.Ordering in
  let rule = O.bullshark in
  let choose_leader w = O.round_robin_leader ~n:4 ~wave:w in
  let straggler dag =
    add dag ~round:1 ~source:3 ~strong:[ (0, 0); (0, 1); (0, 2) ] ()
  in
  let dag_a = Dagrider.Dag.create ~n:4 and dag_b = Dagrider.Dag.create ~n:4 in
  let a = O.create ~rule ~gc_depth:2 ~f:1 ()
  and b = O.create ~rule ~gc_depth:2 ~f:1 () in
  bullshark_prefix dag_a;
  bullshark_prefix dag_b;
  List.iter
    (fun wave -> ignore (O.process_wave a ~dag:dag_a ~wave ~choose_leader))
    [ 1; 2; 3 ];
  checki "A pruned below wave 3's leader round - 2" 3
    (Dagrider.Dag.pruned_below dag_a);
  straggler dag_a;
  straggler dag_b;
  checkb "A dropped the straggler" false (Dagrider.Dag.contains dag_a (vref 1 3));
  checkb "B holds the straggler" true (Dagrider.Dag.contains dag_b (vref 1 3));
  bullshark_wave4 dag_a;
  bullshark_wave4 dag_b;
  let wave4_a = O.process_wave a ~dag:dag_a ~wave:4 ~choose_leader in
  let chain_b = O.process_wave b ~dag:dag_b ~wave:4 ~choose_leader in
  let leaders cs = List.map (fun (c : O.commit) -> c.O.wave) cs in
  Alcotest.(check (list int)) "A commits wave 4" [ 4 ] (leaders wave4_a);
  Alcotest.(check (list int)) "B chains waves 1-4" [ 1; 2; 3; 4 ]
    (leaders chain_b);
  let log o = List.map Dagrider.Vertex.vref_of (O.delivered_log o) in
  checkb "same log" true (log a = log b);
  checkb "straggler not delivered" false (List.mem (vref 1 3) (log b));
  checki "same horizon" (Dagrider.Dag.pruned_below dag_a)
    (Dagrider.Dag.pruned_below dag_b);
  let dag_c = Dagrider.Dag.create ~n:4 in
  let c = O.create ~rule ~f:1 () in
  bullshark_prefix dag_c;
  straggler dag_c;
  bullshark_wave4 dag_c;
  ignore (O.process_wave c ~dag:dag_c ~wave:4 ~choose_leader);
  checkb "without GC the straggler is delivered" true
    (List.mem (vref 1 3) (log c))

(* ---- wave-length-parametric ordering ---- *)

let full_dag_len ~wave_length ~rounds =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to rounds do
    full_round dag ~round:r
  done;
  ignore wave_length;
  dag

let test_ordering_wave_length_2 () =
  let dag = full_dag_len ~wave_length:2 ~rounds:6 in
  let ord = Dagrider.Ordering.create ~rule:(dag_rider_waves 2) ~f:1 () in
  (* wave 1 = rounds 1-2, leader in round 1, support in round 2 *)
  let c1 =
    Dagrider.Ordering.process_wave ord ~dag ~wave:1 ~choose_leader:(fun _ -> 0)
  in
  checki "wave 1 commits" 1 (List.length c1);
  let c2 =
    Dagrider.Ordering.process_wave ord ~dag ~wave:3 ~choose_leader:(fun _ -> 1)
  in
  (* waves 2 and 3 both commit (chained), earliest first *)
  checki "two commits" 2 (List.length c2);
  Alcotest.(check (list int)) "wave order" [ 2; 3 ]
    (List.map (fun c -> c.Dagrider.Ordering.wave) c2);
  (* leader of wave 3 sits in round round(3,1) = 5 *)
  checki "wave 3 leader round" 5
    (List.nth c2 1).Dagrider.Ordering.leader.Dagrider.Vertex.round

let test_ordering_wave_length_6 () =
  let dag = full_dag_len ~wave_length:6 ~rounds:12 in
  let ord = Dagrider.Ordering.create ~rule:(dag_rider_waves 6) ~f:1 () in
  let c =
    Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:(fun _ -> 2)
  in
  checki "both waves commit" 2 (List.length c);
  checki "wave 2 leader round" 7
    (List.nth c 1).Dagrider.Ordering.leader.Dagrider.Vertex.round;
  (* support is counted in round round(2,6) = 12 *)
  checkb "commit rule used last round" true
    (commit_rule_met ~rule:(dag_rider_waves 6) ~dag ~f:1 ~wave:2
       ~leader:(List.nth c 1).Dagrider.Ordering.leader ())

let test_ordering_mismatched_wave_length_no_commit () =
  (* a 4-round-wave ordering over a DAG with only 6 rounds cannot commit
     wave 2 (its last round, 8, is empty) *)
  let dag = full_dag_len ~wave_length:4 ~rounds:6 in
  let ord = Dagrider.Ordering.create ~f:1 () in
  checki "wave 2 cannot commit" 0
    (List.length
       (Dagrider.Ordering.process_wave ord ~dag ~wave:2 ~choose_leader:(fun _ -> 0)))

(* ---- differential: the DAG-bit ordering against Ordering_reference ----

   One random history drives both: partial rounds, late vertices, weak
   edges from [Dag.weak_edges], skipped waves, and a garbage-collection
   depth drawn per run (or none). Each side has its own DAG and every
   vertex goes into both. The library's DAG is pruned by its ordering
   and drops a vertex that arrives below the horizon; the reference's
   is never pruned and applies its own floor. A vertex is built from
   either DAG's view, so one that names a straggler below the library's
   horizon by a weak edge enters both: the two must still deliver the
   same vertices. *)

module O = Dagrider.Ordering
module V = Dagrider.Vertex

let fail fmt = Printf.ksprintf failwith fmt

let project (c : O.commit) =
  ( c.wave,
    V.vref_of c.leader,
    List.map V.vref_of c.delivered,
    c.direct,
    c.support,
    c.anchor,
    c.via )

let ordering_diff ~rule ~n ~rounds seed =
  let rng = Stdx.Rng.create seed in
  let f = (n - 1) / 3 in
  let gc_depth =
    if Stdx.Rng.int rng 4 = 0 then None else Some (1 + Stdx.Rng.int rng 6)
  in
  let dag = Dagrider.Dag.create ~n in
  let unpruned = Dagrider.Dag.create ~n in
  let ord = O.create ~rule ?gc_depth ~f () in
  let reference = Ordering_reference.create ?gc_depth ~rule ~f () in
  let coin = Array.init (rounds + 1) (fun _ -> Stdx.Rng.int rng n) in
  let choose_leader w =
    match rule.O.rule_schedule with
    | O.Coin -> coin.(w)
    | O.Round_robin -> O.round_robin_leader ~n ~wave:w
  in
  let make ~round ~source =
    let view = if Stdx.Rng.bool rng then dag else unpruned in
    let prev = Array.of_list (Dagrider.Dag.round_vertices view (round - 1)) in
    Stdx.Rng.shuffle rng prev;
    let len = Array.length prev in
    let k = Stdx.Rng.int_in_range rng ~lo:(min len ((2 * f) + 1)) ~hi:len in
    let strong =
      List.sort V.compare_vref
        (List.map V.vref_of (Array.to_list (Array.sub prev 0 k)))
    in
    let weak =
      if Stdx.Rng.int rng 3 = 0 then []
      else Dagrider.Dag.weak_edges view ~round ~strong_edges:strong
    in
    { V.round; source; block = ""; strong_edges = strong; weak_edges = weak }
  in
  let add v =
    Dagrider.Dag.add dag v;
    Dagrider.Dag.add unpruned v
  in
  let held = ref [] in
  for round = 1 to rounds do
    if Dagrider.Dag.round_size unpruned (round - 1) > 0 then
      for source = 0 to n - 1 do
        if Stdx.Rng.int rng 4 <> 0 then begin
          let v = make ~round ~source in
          if Stdx.Rng.int rng 6 = 0 then held := v :: !held else add v
        end
      done;
    held :=
      List.filter
        (fun v ->
          if Stdx.Rng.bool rng then begin
            add v;
            false
          end
          else true)
        !held;
    let wave_length = rule.O.rule_wave_length in
    match O.wave_of_completed_round ~wave_length round with
    | Some wave when Stdx.Rng.int rng 4 <> 0 ->
      let got = O.process_wave ord ~dag ~wave ~choose_leader in
      let expected =
        Ordering_reference.process_wave reference ~dag:unpruned ~wave
          ~choose_leader
      in
      if List.map project got <> List.map project expected then
        fail "seed %d wave %d: commits differ" seed wave
    | Some _ | None -> ()
  done;
  if
    List.map V.vref_of (O.delivered_log ord)
    <> List.map V.vref_of (Ordering_reference.delivered_log reference)
  then fail "seed %d: delivered logs differ" seed;
  if O.decided_wave ord <> Ordering_reference.decided_wave reference then
    fail "seed %d: decided waves differ" seed;
  if O.delivered_count ord <> List.length (O.delivered_log ord) then
    fail "seed %d: delivered count differs from the log" seed;
  List.iter
    (fun v ->
      let r = V.vref_of v in
      if
        Dagrider.Dag.is_delivered dag r
        <> Ordering_reference.is_delivered reference r
      then fail "seed %d: is_delivered (%d,%d) differs" seed r.round r.source)
    (Dagrider.Dag.vertices unpruned);
  true

let ordering_diff_prop ~rule ~n ~rounds ~count =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s ordering = reference (n=%d)" rule.O.rule_name n)
    ~count (QCheck.int_range 0 1_000_000)
    (ordering_diff ~rule ~n ~rounds)

(* ---- the same comparison on DAGs a fleet built ----

   An untraced run, no GC. Each node's final DAG is copied into a fresh
   store (its own carries the node's delivered bits) and replayed
   through both implementations with the leaders the node resolved.
   Only the waves the node committed directly are replayed: a wave it
   skipped may have gained its leader vertex or its support later, so
   the final DAG does not show the skip. The chain-back under a direct
   commit reads only the leader's causal history, which the final DAG
   holds unchanged, so the replay must reproduce every decision the node
   made and its whole delivered log. The two implementations must agree
   on everything, support sets included. *)

let fleet_replay ~rule ~n () =
  let f = (n - 1) / 3 in
  let commits = Array.make n [] in
  let on_commit ~node c = commits.(node) <- c :: commits.(node) in
  let fleet =
    Harness.Runner.build
      { (Harness.Runner.default_options ~n) with
        rule;
        on_commit = Some on_commit }
  in
  Harness.Runner.run fleet ~until:80.0;
  Array.iteri
    (fun i nd ->
      let live = List.rev commits.(i) in
      checkb (Printf.sprintf "p%d committed" i) true (live <> []);
      let dag = Dagrider.Dag.create ~n in
      List.iter (Dagrider.Dag.add dag)
        (Dagrider.Dag.vertices (Dagrider.Node.dag nd));
      let ord = O.create ~rule ~f () in
      let reference = Ordering_reference.create ~rule ~f () in
      let choose_leader wave =
        Option.get (Dagrider.Node.leader_of nd ~wave)
      in
      let replayed =
        List.concat_map
          (fun (c : O.commit) ->
            if not c.direct then []
            else begin
              let got = O.process_wave ord ~dag ~wave:c.wave ~choose_leader in
              let expected =
                Ordering_reference.process_wave reference ~dag ~wave:c.wave
                  ~choose_leader
              in
              checkb
                (Printf.sprintf "p%d wave %d: ordering = reference" i c.wave)
                true
                (List.map project got = List.map project expected);
              got
            end)
          live
      in
      (* the support set is what the DAG held when the node counted it,
         so the final DAG may show more supporters *)
      let decision (c : O.commit) =
        let wave, leader, delivered, direct, _, anchor, via = project c in
        (wave, leader, delivered, direct, anchor, via)
      in
      checkb (Printf.sprintf "p%d: replay = live commits" i) true
        (List.map decision replayed = List.map decision live);
      let log l = List.map V.vref_of l in
      let node_log = log (Dagrider.Node.delivered_log nd) in
      checkb (Printf.sprintf "p%d: ordering log" i) true
        (log (O.delivered_log ord) = node_log);
      checkb (Printf.sprintf "p%d: reference log" i) true
        (log (Ordering_reference.delivered_log reference) = node_log))
    (Harness.Runner.nodes fleet)

let () =
  Alcotest.run "ordering"
    [ ( "waves",
        [ Alcotest.test_case "round_of" `Quick test_round_of;
          Alcotest.test_case "wave_of_completed_round" `Quick
            test_wave_of_completed_round;
          Alcotest.test_case "leader lookup" `Quick test_leader_vertex_lookup ] );
      ( "rules",
        [ Alcotest.test_case "rule records" `Quick test_rule_records;
          Alcotest.test_case "create from rule" `Quick test_create_from_rule ] );
      ( "commit-rule",
        [ Alcotest.test_case "full dag" `Quick test_commit_rule_full_dag;
          Alcotest.test_case "insufficient support" `Quick
            test_commit_rule_insufficient_support;
          Alcotest.test_case "exact boundary" `Quick test_commit_rule_exact_boundary ] );
      ( "process-wave",
        [ Alcotest.test_case "commits full wave" `Quick test_process_wave_commits_full;
          Alcotest.test_case "no leader vertex" `Quick test_process_wave_no_leader_vertex;
          Alcotest.test_case "idempotent + monotonic" `Quick
            test_process_wave_idempotent_and_monotonic;
          Alcotest.test_case "log is causal" `Quick test_delivered_log_is_causal;
          Alcotest.test_case "chained commit many waves" `Quick
            test_chained_commit_across_many_waves;
          Alcotest.test_case "count matches log" `Quick
            test_total_delivered_count_matches_log;
          Alcotest.test_case "gc straggler, same log" `Quick
            test_gc_straggler_same_log ] );
      ( "wave-length",
        [ Alcotest.test_case "length 2" `Quick test_ordering_wave_length_2;
          Alcotest.test_case "length 6" `Quick test_ordering_wave_length_6;
          Alcotest.test_case "mismatched length" `Quick
            test_ordering_mismatched_wave_length_no_commit ] );
      ( "figure-2",
        [ Alcotest.test_case "wave-2 support is 2" `Quick test_fig2_wave2_support_is_two;
          Alcotest.test_case "wave 2 skipped" `Quick
            test_fig2_wave2_does_not_commit_directly;
          Alcotest.test_case "wave 3 commits wave 2 first" `Quick
            test_fig2_wave3_commits_wave2_first;
          Alcotest.test_case "absent leader never chained" `Quick
            test_fig2_skipped_leader_absent_entirely ] );
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          (List.concat_map
             (fun rule ->
               [ ordering_diff_prop ~rule ~n:4 ~rounds:40 ~count:200;
                 ordering_diff_prop ~rule ~n:10 ~rounds:24 ~count:50;
                 ordering_diff_prop ~rule ~n:70 ~rounds:24 ~count:10 ])
             O.rules) );
      ( "fleet-replay",
        List.concat_map
          (fun rule ->
            List.map
              (fun n ->
                Alcotest.test_case
                  (Printf.sprintf "%s n=%d" rule.O.rule_name n)
                  `Quick (fleet_replay ~rule ~n))
              [ 4; 10 ])
          O.rules )
    ]
