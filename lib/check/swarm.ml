type outcome = {
  scenario : Scenario.t;
  violations : Oracle.violation list;
  delivered_min : int;
  delivered_max : int;
  commits : int;
  events : int;
}

(* how many slices the horizon is cut into; each boundary runs the
   mid-run safety checks (agreement + append-only logs) *)
let slices = 5

let run_scenario ?trace (sc : Scenario.t) =
  let commits = ref [] in
  let violations = ref [] in
  (* the hook fires synchronously inside the ordering step, before the
     runner is in scope — close over a ref so it can reach the
     committing node's DAG at commit time *)
  let runner_ref = ref None in
  let options =
    { (Scenario.to_options sc) with
      Harness.Runner.trace;
      on_commit =
        Some
          (fun ~node c ->
            commits :=
              { Oracle.cr_node = node;
                cr_wave = c.Dagrider.Ordering.wave;
                cr_leader = Dagrider.Vertex.vref_of c.Dagrider.Ordering.leader;
                cr_direct = c.Dagrider.Ordering.direct }
              :: !commits;
            if c.Dagrider.Ordering.direct then
              match !runner_ref with
              | None -> ()
              | Some runner ->
                violations :=
                  Oracle.check_direct_commit ~rule:sc.Scenario.rule
                    ~f:sc.Scenario.f
                    ~dag:(Dagrider.Node.dag (Harness.Runner.node runner node))
                    ~node ~wave:c.Dagrider.Ordering.wave
                    ~leader:c.Dagrider.Ordering.leader
                  @ !violations) }
  in
  let runner = Harness.Runner.build options in
  runner_ref := Some runner;
  let engine = Harness.Runner.engine runner in
  List.iter
    (function
      | Scenario.Static _ -> ()
      | Scenario.Corrupt_at { time; node } ->
        Sim.Engine.schedule_at engine ~time (fun () ->
            Harness.Runner.silence_node runner node)
      | Scenario.Restart_at { time; node } ->
        Sim.Engine.schedule_at engine ~time (fun () ->
            (* the script only restarts correct processes, but a
               corruption scheduled at an earlier time may have claimed
               this node since generation; restarting a faulty node
               would resurrect it, so re-check *)
            if Harness.Runner.is_correct runner node then
              Harness.Runner.restart_node runner node))
    sc.Scenario.faults;
  let n = sc.Scenario.n in
  let prev = Array.make n [] in
  let slice = sc.Scenario.horizon /. float_of_int slices in
  for k = 1 to slices do
    Harness.Runner.run runner ~until:(float_of_int k *. slice);
    let refs = Harness.Runner.delivered_refs runner in
    let correct = Harness.Runner.correct_indices runner in
    let logs = List.map (fun i -> (i, refs.(i))) correct in
    violations := Oracle.check_agreement ~logs @ !violations;
    List.iter
      (fun i ->
        violations :=
          Oracle.check_extension ~node:i ~before:prev.(i) ~after:refs.(i)
          @ !violations)
      correct;
    Array.blit refs 0 prev 0 n
  done;
  violations :=
    Oracle.check_fleet ~rule:sc.Scenario.rule ~runner ~commits:!commits
      ~expect_validity:(Scenario.expect_validity sc)
    @ !violations;
  let correct = Harness.Runner.correct_indices runner in
  let counts =
    List.map
      (fun i ->
        Dagrider.Ordering.delivered_count
          (Dagrider.Node.ordering (Harness.Runner.node runner i)))
      correct
  in
  { scenario = sc;
    violations = List.sort_uniq compare !violations;
    delivered_min = List.fold_left min max_int counts;
    delivered_max = List.fold_left max 0 counts;
    commits = List.length !commits;
    events = Sim.Engine.events_executed engine }

let trace_scenario (sc : Scenario.t) =
  let tracer = Trace.create () in
  ignore (run_scenario ~trace:tracer sc);
  tracer

let repro_command (sc : Scenario.t) =
  Printf.sprintf "dune exec bin/swarm.exe -- --seed %d%s%s%s%s" sc.Scenario.seed
    (if sc.Scenario.rule.Dagrider.Ordering.rule_name = "dagrider" then ""
     else " --rule " ^ sc.Scenario.rule.Dagrider.Ordering.rule_name)
    (if sc.Scenario.quick then " --quick" else "")
    (if sc.Scenario.sabotage then " --sabotage" else "")
    (match sc.Scenario.link_faults with
    (* seed-sampled rates replay from the seed alone; forced rates came
       from the command line and must be repeated there *)
    | Some lf when sc.Scenario.lossy_forced ->
      Printf.sprintf " --loss %g --dup %g --corrupt %g --reorder %g"
        lf.Harness.Runner.lf_drop lf.Harness.Runner.lf_duplicate
        lf.Harness.Runner.lf_corrupt lf.Harness.Runner.lf_reorder
    | _ -> "")
    (* same split for the adversary: a sampled one replays from the
       seed, a forced one must be repeated on the command line *)
    ^ (match sc.Scenario.attack with
      | Some (_, spec) when sc.Scenario.attack_forced ->
        " --attack " ^ Attack.strategy_label spec.Attack.strategy
      | _ -> "")
    ^ (if sc.Scenario.sync_weakened then " --weaken-sync" else "")
    ^
    match sc.Scenario.gc_depth with
    | Some depth -> Printf.sprintf " --gc-depth %d" depth
    | None -> ""

let shrink_list ~keep xs =
  let rec go kept = function
    | [] -> List.rev kept
    | x :: rest ->
      if keep (List.rev_append kept rest) then go kept rest
      else go (x :: kept) rest
  in
  go [] xs

let shrink (outcome : outcome) =
  if outcome.violations = [] then outcome
  else begin
    let sc = outcome.scenario in
    let cache = Hashtbl.create 16 in
    let failing faults =
      let key = List.map Scenario.describe_fault faults in
      match Hashtbl.find_opt cache key with
      | Some o -> o
      | None ->
        (* keep the convenience field in step with the script, so a
           shrunk scenario that dropped its adversary doesn't still
           advertise one *)
        let attack =
          List.find_map
            (function
              | Scenario.Static (Harness.Runner.Adversary (i, s)) ->
                Some (i, s)
              | _ -> None)
            faults
        in
        let o = run_scenario { sc with Scenario.faults; attack } in
        Hashtbl.add cache key o;
        o
    in
    let minimal =
      shrink_list
        ~keep:(fun faults -> (failing faults).violations <> [])
        sc.Scenario.faults
    in
    if minimal = sc.Scenario.faults then outcome else failing minimal
  end

type report = {
  runs : int;
  failures : outcome list;
  agreement_violations : int;
}

let run_seeds ?(sabotage = false) ?(quick = false) ?lossy ?attack
    ?(weaken_sync = false) ?gc_depth ?rule ?progress ~seeds () =
  let failures = ref [] in
  List.iter
    (fun seed ->
      let sc =
        Scenario.generate ~sabotage ~quick ?lossy ?attack ~weaken_sync ?gc_depth
          ?rule
          ~seed ()
      in
      let outcome = run_scenario sc in
      let outcome =
        if outcome.violations = [] then outcome else shrink outcome
      in
      (match progress with Some f -> f ~seed outcome | None -> ());
      if outcome.violations <> [] then failures := outcome :: !failures)
    seeds;
  let failures = List.rev !failures in
  { runs = List.length seeds;
    failures;
    agreement_violations =
      List.fold_left
        (fun acc o ->
          acc
          + List.length
              (List.filter
                 (fun v -> v.Oracle.invariant = "agreement")
                 o.violations))
        0 failures }
