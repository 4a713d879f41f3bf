(* swarm: randomized fault-injection swarm checker.

   Honest mode: generate one adversarial-but-within-model scenario per
   seed, run it, and judge it with the invariant oracles; any violation
   is a protocol (or oracle) bug, reported with the exact command that
   replays it, plus a greedily shrunk fault script.

   Sabotage mode (--sabotage): same machinery, but the fleet runs its
   rule with the commit quorum deliberately weakened (all the way to
   commit-on-sight, [Fixed 0] — see scenario.ml for why intermediate
   quorums stay safe under honest RBC) while the schedule hides the
   predicted wave leader. The oracles still judge by the honest rule,
   and the run FAILS unless they catch at least one agreement
   violation. This is the oracle's own regression test: it proves the
   checker can actually see disagreement.

   Examples:
     dune exec bin/swarm.exe -- --seeds 200
     dune exec bin/swarm.exe -- --seeds 100 --quick        # CI smoke
     dune exec bin/swarm.exe -- --seed 7 --verbose         # replay one
     dune exec bin/swarm.exe -- --seeds 30 --sabotage      # oracle self-test *)

open Cmdliner

let seeds_arg =
  Arg.(
    value & opt int 50
    & info [ "seeds" ] ~docv:"K" ~doc:"Run $(docv) consecutive seeds.")

let seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:"Replay exactly one seed (overrides --seeds/--base).")

let base_arg =
  Arg.(
    value & opt int 1
    & info [ "base" ] ~docv:"B" ~doc:"First seed of the sweep (default 1).")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Smaller fleets and shorter horizons (CI smoke).")

let sabotage_arg =
  Arg.(
    value & flag
    & info [ "sabotage" ]
        ~doc:
          "Deliberately weaken the commit quorum (and hide the predicted \
           wave leader) and demand the oracle catches the resulting \
           agreement violation (oracle self-test).")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-seed output.")

let rule_arg =
  let rule_conv =
    Arg.enum
      (List.map
         (fun r -> (r.Dagrider.Ordering.rule_name, r))
         Dagrider.Ordering.rules)
  in
  Arg.(
    value & opt rule_conv Dagrider.Ordering.dag_rider
    & info [ "rule" ] ~docv:"RULE"
        ~doc:
          "Commit rule every scenario runs under: dagrider or bullshark. \
           The scenario sampled for a seed is the same either way — only \
           the ordering layer differs. In sabotage mode the hidden victim \
           is the rule's own predicted leader.")

let attack_arg =
  let strategy_conv =
    Arg.enum
      (List.map (fun s -> (Attack.strategy_label s, s)) Attack.all_strategies)
  in
  Arg.(
    value & opt (some strategy_conv) None
    & info [ "attack" ] ~docv:"STRATEGY"
        ~doc:
          "Force a programmable Byzantine adversary into every scenario: \
           $(b,equivocate), $(b,withhold), $(b,grind), $(b,bias), \
           $(b,lying-sync) or $(b,fuzz). The forced adversary replaces the seed's \
           sampled static faults (restarts are kept, and a forced \
           lying-sync run gains one if the seed sampled none); its \
           victims are drawn from the run's own seeded stream. Sampled \
           scenarios already include adversaries without this flag — use \
           it to pin the strategy. Ignored in sabotage mode.")

let weaken_sync_arg =
  Arg.(
    value & flag
    & info [ "weaken-sync" ]
        ~doc:
          "Planted-vulnerability self-test: run every fleet with the \
           deliberately weakened sync validator (any single responder is \
           trusted during catch-up), force a lying-sync adversary unless \
           --attack says otherwise, and FAIL unless the oracles catch the \
           resulting corruption (sync-lie / equivocation violations).")

let loss_arg =
  Arg.(
    value & opt (some float) None
    & info [ "loss" ] ~docv:"P"
        ~doc:
          "Force lossy links: drop each message with probability $(docv) \
           (0 <= P < 1). Combines with --dup/--corrupt/--reorder; any of \
           the four enables the ack/retransmit transport on every \
           scenario (ignored in sabotage mode).")

let dup_arg =
  Arg.(
    value & opt (some float) None
    & info [ "dup" ] ~docv:"P"
        ~doc:"Force lossy links: duplicate each message with probability \
              $(docv).")

let corrupt_arg =
  Arg.(
    value & opt (some float) None
    & info [ "corrupt" ] ~docv:"P"
        ~doc:"Force lossy links: bit-corrupt each message with probability \
              $(docv).")

let reorder_arg =
  Arg.(
    value & opt (some float) None
    & info [ "reorder" ] ~docv:"P"
        ~doc:"Force lossy links: add reordering delay to each message with \
              probability $(docv).")

let gc_depth_arg =
  Arg.(
    value & opt (some int) None
    & info [ "gc-depth" ] ~docv:"D"
        ~doc:
          "Force garbage collection on every scenario: each process prunes \
           its DAG and RBC rows $(docv) rounds behind each leader it \
           commits (D >= 1).")

let lossy_of_flags ~loss ~dup ~corrupt ~reorder =
  match (loss, dup, corrupt, reorder) with
  | None, None, None, None -> None
  | _ ->
    let get = Option.value ~default:0.0 in
    Some
      { Harness.Runner.lf_drop = get loss;
        lf_duplicate = get dup;
        lf_corrupt = get corrupt;
        lf_reorder = get reorder }

(* re-run the (shrunk) failing scenario with tracing — runs are pure
   functions of the seed, so the traced re-run reproduces the failing
   execution (honest AND sabotage mode: trace_scenario replays the
   weakened quorum and leader-hiding schedule too) — drop the event log
   and a per-wave certificate digest under traces/ next to the repro
   command, and attach the protocol analyzer's anomaly summary so the
   first triage pass needs no tooling *)
let traces_dir = "traces"

let dump_trace (sc : Check.Scenario.t) =
  let runner = Check.Swarm.trace_scenario sc in
  let tracer =
    Option.get (Harness.Runner.options runner).Harness.Runner.trace
  in
  (if not (Sys.file_exists traces_dir) then Sys.mkdir traces_dir 0o755);
  let path =
    Filename.concat traces_dir
      (Printf.sprintf "swarm-seed%d.trace.jsonl" sc.Check.Scenario.seed)
  in
  let oc = open_out path in
  output_string oc (Trace.to_jsonl tracer);
  close_out oc;
  Printf.printf "  trace: %s (%s mode; %d events retained, %d dropped)\n" path
    (if sc.Check.Scenario.sabotage then "sabotage" else "honest")
    (List.length (Trace.events tracer))
    (Trace.dropped tracer);
  (* everything below reads the re-run's live analyzer, which saw the
     whole stream even where the ring wrapped: every node's wave
     stories, so triage can see who decided what without replaying the
     trace *)
  let analyzer = Option.get (Harness.Runner.analyzer runner) in
  let fx = Analyze.ledger analyzer in
  (match Forensics.nodes fx with
  | [] -> ()
  | nodes ->
    let explain_path =
      Filename.concat traces_dir
        (Printf.sprintf "swarm-seed%d.explain.txt" sc.Check.Scenario.seed)
    in
    let oc = open_out explain_path in
    output_string oc
      (Printf.sprintf "%s\n\n" (Check.Scenario.describe sc));
    List.iter
      (fun node ->
        output_string oc (Forensics.summary fx ~node);
        output_char oc '\n')
      nodes;
    close_out oc;
    Printf.printf "  explain: %s (certificate stories of %d node(s))\n"
      explain_path (List.length nodes));
  (* the run's own analysis: observed from the lowest correct process,
     never from an adversary whose log may be the longest *)
  let report = Option.get (Harness.Runner.analysis runner) in
  List.iter
    (fun line -> if line <> "" then Printf.printf "  %s\n" line)
    (String.split_on_char '\n' (Analyze.render_anomalies report));
  (* the critical path of the last committed wave at the report's
     observer: where did the final commit's latency go before
     everything stopped? *)
  let cp =
    Critpath.finalize ~observer:report.Analyze.r_observer
      (Analyze.critpath analyzer)
  in
  match
    List.find_opt
      (fun p -> p.Critpath.p_complete)
      (List.rev cp.Critpath.r_paths)
  with
  | None -> ()
  | Some p ->
    Printf.printf "  last committed wave (observer p%d):\n" cp.Critpath.r_observer;
    List.iter
      (fun line -> if line <> "" then Printf.printf "    %s\n" line)
      (String.split_on_char '\n' (Critpath.waterfall p));
    (match cp.Critpath.r_stragglers with
    | (node, count, total) :: _ ->
      Printf.printf "    slowest quorum member: p%d (%d commit(s), %.3f waited)\n"
        node count total
    | [] -> ())

let print_failure (o : Check.Swarm.outcome) =
  Printf.printf "FAIL %s\n" (Check.Scenario.describe o.Check.Swarm.scenario);
  List.iter
    (fun v -> Printf.printf "  %s\n" (Check.Oracle.pp v))
    o.Check.Swarm.violations;
  (match o.Check.Swarm.scenario.Check.Scenario.faults with
  | [] -> ()
  | faults ->
    Printf.printf "  shrunk fault script: [%s]\n"
      (String.concat "; " (List.map Check.Scenario.describe_fault faults)));
  Printf.printf "  repro: %s\n"
    (Check.Swarm.repro_command o.Check.Swarm.scenario);
  dump_trace o.Check.Swarm.scenario

let summarize ~sabotage ~weaken_sync (report : Check.Swarm.report) =
  let failed = List.length report.Check.Swarm.failures in
  Printf.printf
    "\nswarm: %d scenario(s), %d with violations, %d agreement violation(s)\n"
    report.Check.Swarm.runs failed report.Check.Swarm.agreement_violations;
  if weaken_sync && not sabotage then begin
    (* the planted corruption surfaces either as the attack-informed
       sync-lie check or as plain cross-node equivocation once the
       honest copy of a poisoned slot arrives elsewhere *)
    let caught =
      List.fold_left
        (fun acc (o : Check.Swarm.outcome) ->
          acc
          + List.length
              (List.filter
                 (fun (v : Check.Oracle.violation) ->
                   v.Check.Oracle.invariant = "sync-lie"
                   || v.Check.Oracle.invariant = "equivocation")
                 o.Check.Swarm.violations))
        0 report.Check.Swarm.failures
    in
    if caught > 0 then begin
      Printf.printf
        "weaken-sync: oracle caught the planted sync corruption (%d \
         violation(s)) — self-test PASSED\n"
        caught;
      0
    end
    else begin
      print_endline
        "weaken-sync: planted sync corruption went uncaught — the sync \
         oracles are blind! self-test FAILED";
      1
    end
  end
  else if sabotage then
    if report.Check.Swarm.agreement_violations > 0 then begin
      print_endline
        "sabotage: oracle caught the weakened quorum — self-test PASSED";
      0
    end
    else begin
      print_endline
        "sabotage: no agreement violation caught — the oracle is blind! \
         self-test FAILED";
      1
    end
  else if failed = 0 then begin
    print_endline "all invariants held";
    0
  end
  else 1

let main seeds seed base quick sabotage verbose rule attack weaken_sync loss
    dup corrupt reorder gc_depth =
  if seeds < 1 && seed = None then begin
    (* a zero-seed sweep would vacuously report "all invariants held"
       and green-light a typo'd CI invocation *)
    prerr_endline "swarm: --seeds must be at least 1";
    exit 2
  end;
  (match gc_depth with
  | Some d when d < 1 ->
    prerr_endline "swarm: --gc-depth must be at least 1";
    exit 2
  | Some _ | None -> ());
  let seed_list =
    match seed with
    | Some s -> [ s ]
    | None -> List.init seeds (fun i -> base + i)
  in
  let verbose = verbose || seed <> None in
  let progress ~seed (o : Check.Swarm.outcome) =
    ignore seed;
    if o.Check.Swarm.violations <> [] then print_failure o
    else if verbose then
      Printf.printf "ok   %s  delivered=%d..%d commits=%d events=%d\n"
        (Check.Scenario.describe o.Check.Swarm.scenario)
        o.Check.Swarm.delivered_min o.Check.Swarm.delivered_max
        (List.length o.Check.Swarm.commits) o.Check.Swarm.events
  in
  let lossy = lossy_of_flags ~loss ~dup ~corrupt ~reorder in
  let attack =
    match attack with
    | Some strategy -> Some { Attack.strategy; victims = [] }
    | None ->
      (* the weakened validator is only interesting with someone lying
         to it *)
      if weaken_sync then
        Some { Attack.strategy = Attack.Lying_sync; victims = [] }
      else None
  in
  let report =
    Check.Swarm.run_seeds ~sabotage ~quick ?lossy ?attack ~weaken_sync
      ?gc_depth ~rule
      ~progress ~seeds:seed_list ()
  in
  summarize ~sabotage ~weaken_sync report

let cmd =
  Cmd.v
    (Cmd.info "swarm" ~version:"1.0.0"
       ~doc:
         "Randomized fault-injection swarm checker for the DAG-Rider \
          reproduction.")
    Term.(
      const main $ seeds_arg $ seed_arg $ base_arg $ quick_arg $ sabotage_arg
      $ verbose_arg $ rule_arg $ attack_arg $ weaken_sync_arg $ loss_arg
      $ dup_arg $ corrupt_arg $ reorder_arg $ gc_depth_arg)

let () = exit (Cmd.eval' cmd)
