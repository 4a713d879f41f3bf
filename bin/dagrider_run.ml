(* dagrider_run: command-line driver for simulations and figure
   regeneration.

   Subcommands:
     run           simulate a fleet and print a summary
     trace         simulate with structured tracing, render the timeline
     analyze       run the protocol analyzer (live run or replayed JSONL)
     critpath      per-commit causal critical path and latency attribution
     explain       render the provenance certificate of a commit/skip
     divergence    first divergent decision between two trace dumps
     profile       simulate under the span profiler, print the hot-span table
     monitor       sustained-load run under the flight recorder: dashboard,
                   SLO health checks, CSV/JSON time-series export
     dot           render the DAG as Graphviz with leader/commit classes
     render-dag    regenerate Figure 1: a live DAG rendered as ASCII/DOT
     render-commit regenerate Figure 2: the cross-wave commit narrative
     experiments   print every experiment table (same as bench default)

   Examples:
     dune exec bin/dagrider_run.exe -- run -n 7 --backend avid --until 60
     dune exec bin/dagrider_run.exe -- run -n 7 --crash 5 --crash 6
     dune exec bin/dagrider_run.exe -- trace -n 4 --limit 80
     dune exec bin/dagrider_run.exe -- trace -n 4 --jsonl run.trace.jsonl
     dune exec bin/dagrider_run.exe -- analyze -n 4 --until 200
     dune exec bin/dagrider_run.exe -- analyze --jsonl run.trace.jsonl
     dune exec bin/dagrider_run.exe -- explain -n 4 --until 200 --wave 3
     dune exec bin/dagrider_run.exe -- explain --jsonl run.trace.jsonl --json
     dune exec bin/dagrider_run.exe -- divergence a.trace.jsonl b.trace.jsonl
     dune exec bin/dagrider_run.exe -- profile -n 7 --until 100 --top 12
     dune exec bin/dagrider_run.exe -- profile --folded out.folded
     dune exec bin/dagrider_run.exe -- dot -n 4 --rounds 12 > dag.dot
     dune exec bin/dagrider_run.exe -- render-dag --dot
     dune exec bin/dagrider_run.exe -- render-commit *)

open Cmdliner

(* ---- shared options ----

   Every simulating subcommand takes the same fleet-shaping flags; they
   are parsed once here into a [Common.t] so a new subcommand (like
   [profile]) gets the full set — backends, schedulers, faults, lossy
   links — without duplicating a single [Arg] definition. *)

module Common = struct
  type t = {
    n : int;
    seed : int;
    backend : Harness.Runner.backend;
    rule : Dagrider.Ordering.rule;
    schedule : Harness.Runner.schedule;
    crashes : int list;
    byzantines : int list;
    block_bytes : int;
    until : float;
    link_faults : Harness.Runner.link_faults option;
  }

  let n_arg =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

  let until_arg =
    Arg.(
      value & opt float 50.0
      & info [ "until" ] ~docv:"TIME" ~doc:"Virtual time horizon.")

  let backend_arg =
    let backend_conv =
      Arg.enum
        [ ("bracha", Harness.Runner.Bracha);
          ("avid", Harness.Runner.Avid);
          ("gossip", Harness.Runner.Gossip) ]
    in
    Arg.(
      value & opt backend_conv Harness.Runner.Bracha
      & info [ "backend" ] ~docv:"RBC"
          ~doc:"Reliable broadcast: bracha|avid|gossip.")

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
            "Commit rule: dagrider (4-round waves, coin leaders, 2f+1) or \
             bullshark (2-round waves, round-robin leaders, f+1).")

  let sched_arg =
    let sched_conv =
      Arg.enum
        [ ("sync", Harness.Runner.Synchronous);
          ("uniform", Harness.Runner.Uniform_random);
          ("skewed", Harness.Runner.Skewed_random) ]
    in
    Arg.(
      value & opt sched_conv Harness.Runner.Uniform_random
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:"Message schedule: sync|uniform|skewed.")

  let crash_arg =
    Arg.(
      value & opt_all int []
      & info [ "crash" ] ~docv:"PID" ~doc:"Crash this process (repeatable).")

  let byz_arg =
    Arg.(
      value & opt_all int []
      & info [ "byzantine" ] ~docv:"PID"
          ~doc:"Byzantine-but-live process (repeatable).")

  let block_bytes_arg =
    Arg.(
      value & opt int 64
      & info [ "block-bytes" ] ~docv:"BYTES" ~doc:"Synthetic block size.")

  (* lossy-link rates; any nonzero rate switches every protocol stack onto
     the ack/retransmit transport (Harness.Runner.options.link_faults) *)
  let lossy_term =
    let loss =
      Arg.(
        value & opt float 0.0
        & info [ "loss" ] ~docv:"P"
            ~doc:"Drop each message with probability $(docv) (0 <= P < 1).")
    in
    let dup =
      Arg.(
        value & opt float 0.0
        & info [ "dup" ] ~docv:"P"
            ~doc:"Duplicate each message with probability $(docv).")
    in
    let corrupt =
      Arg.(
        value & opt float 0.0
        & info [ "corrupt" ] ~docv:"P"
            ~doc:"Bit-corrupt each message with probability $(docv).")
    in
    let reorder =
      Arg.(
        value & opt float 0.0
        & info [ "reorder" ] ~docv:"P"
            ~doc:
              "Add reordering delay to each message with probability $(docv).")
    in
    let mk lf_drop lf_duplicate lf_corrupt lf_reorder =
      if
        lf_drop = 0.0 && lf_duplicate = 0.0 && lf_corrupt = 0.0
        && lf_reorder = 0.0
      then None
      else Some { Harness.Runner.lf_drop; lf_duplicate; lf_corrupt; lf_reorder }
    in
    Term.(const mk $ loss $ dup $ corrupt $ reorder)

  (* shared trace-I/O flags, defined once so every subcommand agrees on
     names, docv and wording: [replay_jsonl_arg] reads a dump back in
     (analyze / explain / critpath), [dump_jsonl_arg] writes one out
     (trace / monitor), [json_file_arg] exports a report to a file, and
     [json_flag_arg] switches stdout rendering to JSON *)
  let replay_jsonl_arg =
    Arg.(
      value & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Replay a trace dumped by `trace --jsonl` (or a swarm failure \
             repro) instead of running a fresh simulation.")

  let dump_jsonl_arg ~doc =
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)

  let json_file_arg ~doc =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

  let json_flag_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.")

  let options ?trace c =
    let faults =
      List.map (fun i -> Harness.Runner.Crash i) c.crashes
      @ List.map (fun i -> Harness.Runner.Byzantine_live i) c.byzantines
    in
    { (Harness.Runner.default_options ~n:c.n) with
      seed = c.seed;
      backend = c.backend;
      rule = c.rule;
      schedule = c.schedule;
      faults;
      block_bytes = c.block_bytes;
      link_faults = c.link_faults;
      trace }

  let term =
    let mk n seed backend rule schedule crashes byzantines block_bytes until
        link_faults =
      { n;
        seed;
        backend;
        rule;
        schedule;
        crashes;
        byzantines;
        block_bytes;
        until;
        link_faults }
    in
    (* a fleet [Runner.build] would refuse is a usage error, reported
       before any subcommand runs *)
    let checked c =
      match Harness.Runner.validate (options c) with
      | Ok () -> `Ok c
      | Error e -> `Error (false, e)
    in
    Term.(
      ret
        (const checked
        $ (const mk $ n_arg $ seed_arg $ backend_arg $ rule_arg $ sched_arg
          $ crash_arg $ byz_arg $ block_bytes_arg $ until_arg $ lossy_term)))

  let build ?trace c = Harness.Runner.build (options ?trace c)
end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ---- a run's collectors ----

   The one place a subcommand gets a run's collectors: the analyzer, and
   through it the certificate ledger and the critical-path collector.
   A live run is a fresh traced fleet built from the shared flags, whose
   analyzer is its tracer's one sink; a replay feeds a JSONL dump to a
   fresh analyzer, whose report takes the rule the certificates name
   ([--rule] covers a trace without any). *)
type collected = {
  analyzer : Analyze.t;
  report : Analyze.report Lazy.t;
  fleet : Harness.Runner.t option;  (** live runs only *)
}

let replay ~cmd ~rule path =
  match Trace.events_of_jsonl_file path with
  | Error e ->
    Printf.eprintf "%s: %s\n" cmd e;
    exit 1
  | Ok events ->
    let analyzer = Analyze.of_events events in
    let config =
      Analyze.with_certified_rule { Analyze.default_config with rule } analyzer
    in
    { analyzer; report = lazy (Analyze.finalize ~config analyzer); fleet = None }

let collect ~cmd (c : Common.t) jsonl =
  match jsonl with
  | Some path -> replay ~cmd ~rule:c.rule path
  | None ->
    let fleet = Common.build ~trace:(Trace.create ~capacity:4096 ()) c in
    Harness.Runner.run fleet ~until:c.until;
    { analyzer = Option.get (Harness.Runner.analyzer fleet);
      report = lazy (Option.get (Harness.Runner.analysis fleet));
      fleet = Some fleet }

(* the process the run's analysis reports from: the default subject of
   every per-node view *)
let observer c = (Lazy.force c.report).Analyze.r_observer

(* the same process for a run with no analysis: the lowest correct one *)
let lowest_correct fleet =
  match Harness.Runner.correct_indices fleet with i :: _ -> i | [] -> 0

let delivered_at fleet =
  let p = lowest_correct fleet in
  Printf.sprintf "delivered at p%d: %d vertices" p
    (Dagrider.Ordering.delivered_count
       (Dagrider.Node.ordering (Harness.Runner.node fleet p)))

(* ---- run ---- *)

let run_cmd =
  let run (c : Common.t) =
    let fleet = Common.build c in
    Harness.Runner.run fleet ~until:c.until;
    Printf.printf "%-8s %-10s %-7s %-7s %-7s\n" "process" "delivered" "round"
      "waves" "status";
    Array.iteri
      (fun i node ->
        Printf.printf "p%-7d %-10d %-7d %-7d %s\n" i
          (Dagrider.Ordering.delivered_count (Dagrider.Node.ordering node))
          (Dagrider.Node.current_round node)
          (Dagrider.Node.waves_completed node)
          (if Harness.Runner.is_correct fleet i then "correct" else "faulty"))
      (Harness.Runner.nodes fleet);
    (match Harness.Runner.check_total_order fleet with
    | Ok () -> print_endline "\ntotal order: OK"
    | Error e -> Printf.printf "\ntotal order: VIOLATED (%s)\n" e);
    Printf.printf "honest bits sent: %d (%d messages total)\n"
      (Harness.Runner.honest_bits fleet)
      (Metrics.Counters.total_messages (Harness.Runner.counters fleet));
    List.iteri
      (fun i (kind, bits) ->
        if i < 6 then Printf.printf "  %-16s %d bits\n" kind bits)
      (Metrics.Counters.bits_by_kind (Harness.Runner.counters fleet));
    if c.link_faults <> None then begin
      let ls = Harness.Runner.link_stats fleet in
      Printf.printf
        "lossy links: %d data frames, %d retransmits, %d gave up, %d dups \
         suppressed, %d corrupt rejected\n"
        ls.Net.Link.data_sent ls.Net.Link.retransmits ls.Net.Link.gave_up
        ls.Net.Link.dup_suppressed ls.Net.Link.corrupt_rejected;
      match Harness.Runner.drop_counts fleet with
      | [] -> ()
      | drops ->
        Printf.printf "  drops: %s\n"
          (String.concat ", "
             (List.map
                (fun (reason, c) -> Printf.sprintf "%s=%d" reason c)
                drops))
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a DAG-Rider fleet and print a summary.")
    Term.(const run $ Common.term)

(* ---- trace ---- *)

let trace_cmd =
  let run (c : Common.t) limit jsonl_out =
    let tracer = Trace.create () in
    let fleet = Common.build ~trace:tracer c in
    Harness.Runner.run fleet ~until:c.until;
    (match jsonl_out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Trace.to_jsonl tracer);
      close_out oc;
      Printf.printf "wrote %d events to %s (%d emitted, %d dropped)\n"
        (List.length (Trace.events tracer))
        path (Trace.emitted tracer) (Trace.dropped tracer)
    | None -> print_string (Trace.render_timeline ?limit tracer));
    Printf.printf "\nrun summary: n=%d seed=%d until=%.0f; %s\n" c.n c.seed
      c.until (delivered_at fleet)
  in
  let limit_arg =
    Arg.(
      value & opt (some int) (Some 120)
      & info [ "limit" ] ~docv:"K"
          ~doc:"Show only the newest $(docv) events (use --limit -1 for all).")
  in
  let jsonl_arg =
    Common.dump_jsonl_arg
      ~doc:"Dump the trace as JSONL to $(docv) instead of rendering."
  in
  let normalize_limit = function Some k when k < 0 -> None | l -> l in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate with structured tracing and render the event timeline \
          (sends/recvs, RBC phases, rounds, coin flips, leaders, commits).")
    Term.(
      const (fun c limit jsonl -> run c (normalize_limit limit) jsonl)
      $ Common.term $ limit_arg $ jsonl_arg)

(* ---- analyze ---- *)

let analyze_cmd =
  let run (c : Common.t) jsonl json_out =
    let report = Lazy.force (collect ~cmd:"analyze" c jsonl).report in
    (match json_out with
    | Some path ->
      write_file path (Stdx.Json.to_string (Analyze.report_to_json report));
      Printf.printf "wrote analysis report to %s\n\n" path
    | None -> ());
    if report.Analyze.r_truncated then
      print_string
        "WARNING: trace is TRUNCATED (ring wrapped before the first event \
         seen) — head-dependent numbers are lower bounds\n";
    print_string (Analyze.render report)
  in
  let jsonl_arg = Common.replay_jsonl_arg in
  let json_arg =
    Common.json_file_arg ~doc:"Also write the full report as JSON to $(docv)."
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the protocol analyzer: per-wave commit/skip records vs the \
          paper's 3/2 bound, round skew, RBC phase durations, chain \
          quality, and anomaly detection — over a live traced run or a \
          replayed JSONL trace. The per-vertex latency breakdown is \
          $(b,critpath)'s.")
    Term.(const run $ Common.term $ jsonl_arg $ json_arg)

(* ---- critpath (causal critical-path attribution) ---- *)

let critpath_cmd =
  let run (c : Common.t) jsonl node top json dot_out =
    let analyzer = (collect ~cmd:"critpath" c jsonl).analyzer in
    let cp_report =
      match node with
      | Some observer -> Critpath.finalize ~observer (Analyze.critpath analyzer)
      | None -> Analyze.critpath_report analyzer
    in
    if json then
      print_endline
        (Stdx.Json.to_string
           (Stdx.Json.Obj [ ("critpath", Critpath.report_to_json cp_report) ]))
    else print_string (Critpath.render ~top cp_report);
    match dot_out with
    | None -> ()
    | Some path -> (
      (* export the slowest complete commit's causal chain *)
      let slowest =
        List.fold_left
          (fun acc p ->
            if not p.Critpath.p_complete then acc
            else
              match acc with
              | Some best when best.Critpath.p_total >= p.Critpath.p_total ->
                acc
              | _ -> Some p)
          None cp_report.Critpath.r_paths
      in
      match slowest with
      | None -> prerr_endline "critpath: no complete path to export as DOT"
      | Some p ->
        write_file path (Critpath.dot_path p);
        Printf.eprintf "wrote critical path of (r%d,p%d) to %s\n"
          p.Critpath.p_round p.Critpath.p_source path)
  in
  let jsonl_arg = Common.replay_jsonl_arg in
  let node_arg =
    Arg.(
      value & opt (some int) None
      & info [ "node" ] ~docv:"P"
          ~doc:
            "Reconstruct from process $(docv)'s vantage (default: a live \
             run's lowest process no declared fault touches; a replay's \
             longest a_deliver log, lowest id on ties).")
  in
  let top_arg =
    Arg.(
      value & opt int 3
      & info [ "top" ] ~docv:"K"
          ~doc:"Render waterfalls for the $(docv) slowest commits.")
  in
  let dot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Write the slowest commit's causal chain as Graphviz to $(docv).")
  in
  Cmd.v
    (Cmd.info "critpath"
       ~doc:
         "Reconstruct the cross-node causal critical path of every committed \
          vertex from correlation-id tracing and attribute its end-to-end \
          latency to segments: handler hold, retransmit stall, network \
          transit, RBC quorum wait (naming the straggler), DAG-insert wait \
          and ordering wait — with per-segment digests, straggler and \
          slowest-link tables, and ASCII waterfalls. This is the one \
          create-to-a_deliver latency breakdown.")
    Term.(
      const run $ Common.term $ jsonl_arg $ node_arg $ top_arg
      $ Common.json_flag_arg $ dot_arg)

(* ---- explain (commit forensics) ---- *)

(* Parse "ROUND,SOURCE" (also accepts "ROUND:SOURCE"). *)
let vref_conv =
  let parse s =
    let s = String.map (function ':' -> ',' | c -> c) s in
    match String.split_on_char ',' s with
    | [ r; p ] -> (
      match (int_of_string_opt (String.trim r), int_of_string_opt (String.trim p)) with
      | Some r, Some p -> Ok (r, p)
      | _ -> Error (`Msg (Printf.sprintf "bad vertex %S (want ROUND,SOURCE)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad vertex %S (want ROUND,SOURCE)" s))
  in
  let print ppf (r, p) = Format.fprintf ppf "%d,%d" r p in
  Arg.conv (parse, print)

let explain_cmd =
  let run (c : Common.t) jsonl node wave vertex json =
    let collected = collect ~cmd:"explain" c jsonl in
    let fx = Analyze.ledger collected.analyzer in
    let node =
      match node with
      | Some n -> n
      | None when Forensics.nodes fx = [] ->
        prerr_endline
          "explain: no provenance certificates in this run (pre-certificate \
           trace?)";
        exit 1
      | None -> observer collected
    in
    match (wave, vertex) with
    | Some _, Some _ ->
      prerr_endline "explain: --wave and --vertex are mutually exclusive";
      exit 1
    | Some w, None ->
      if json then
        print_endline (Stdx.Json.to_string (Forensics.explain_wave_json fx ~node ~wave:w))
      else print_string (Forensics.explain_wave fx ~node ~wave:w)
    | None, Some (round, source) ->
      if json then
        print_endline
          (Stdx.Json.to_string (Forensics.explain_vertex_json fx ~node ~round ~source))
      else print_string (Forensics.explain_vertex fx ~node ~round ~source)
    | None, None ->
      if json then
        let stories = Forensics.stories fx ~node in
        print_endline
          (Stdx.Json.to_string
             (Stdx.Json.List
                (List.map
                   (fun st -> Forensics.explain_wave_json fx ~node ~wave:st.Forensics.st_wave)
                   stories)))
      else print_string (Forensics.summary fx ~node)
  in
  let jsonl_arg = Common.replay_jsonl_arg in
  let node_arg =
    Arg.(
      value & opt (some int) None
      & info [ "node" ] ~docv:"P"
          ~doc:
            "Explain from process $(docv)'s certificates (default: the \
             process $(b,analyze) reports from — a live run's lowest correct \
             process, a replay's longest a_deliver log, lowest id on ties).")
  in
  let wave_arg =
    Arg.(
      value & opt (some int) None
      & info [ "wave" ] ~docv:"W" ~doc:"Explain wave $(docv)'s decision.")
  in
  let vertex_arg =
    Arg.(
      value & opt (some vref_conv) None
      & info [ "vertex" ] ~docv:"R,P"
          ~doc:
            "Explain the commit that ordered vertex (round $(b,R), process \
             $(b,P)).")
  in
  let json_arg = Common.json_flag_arg in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render the provenance certificate chain behind any ordering \
          decision: the wave's leader and schedule evidence, the exact \
          supporting quorum, the chain-back path for retroactive commits, \
          and — for skipped waves — why no commit was legal. Default (no \
          --wave/--vertex) prints the one-line-per-wave story summary.")
    Term.(
      const run $ Common.term $ jsonl_arg $ node_arg $ wave_arg $ vertex_arg
      $ json_arg)

(* ---- divergence (first divergent decision of two runs) ---- *)

let divergence_cmd =
  let run file_a file_b node_a node_b json =
    (* the rule only shapes the analyzer's wave records, which
       divergence does not read; its observer rule is rule-free *)
    let load label path =
      replay ~cmd:("divergence: " ^ label) ~rule:Dagrider.Ordering.dag_rider
        path
    in
    let a = load "A" file_a and b = load "B" file_b in
    let pick label c = function
      | Some n -> n
      | None when Forensics.nodes (Analyze.ledger c.analyzer) = [] ->
        Printf.eprintf "divergence: %s has no provenance certificates\n" label;
        exit 1
      | None -> observer c
    in
    let node_a = pick "A" a node_a and node_b = pick "B" b node_b in
    let fa = Analyze.ledger a.analyzer and fb = Analyze.ledger b.analyzer in
    if json then
      print_endline
        (Stdx.Json.to_string (Forensics.divergence_to_json fa ~node_a fb ~node_b))
    else print_string (Forensics.render_divergence fa ~node_a fb ~node_b)
  in
  let file_a =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"A.jsonl" ~doc:"First trace dump.")
  in
  let file_b =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"B.jsonl" ~doc:"Second trace dump.")
  in
  let node_a_arg =
    Arg.(
      value & opt (some int) None
      & info [ "node-a" ] ~docv:"P"
          ~doc:
            "Observer process in A (default: the process $(b,analyze) \
             reports from, the longest a_deliver log).")
  in
  let node_b_arg =
    Arg.(
      value & opt (some int) None
      & info [ "node-b" ] ~docv:"P"
          ~doc:
            "Observer process in B (default: the process $(b,analyze) \
             reports from, the longest a_deliver log).")
  in
  let json_arg = Common.json_flag_arg in
  Cmd.v
    (Cmd.info "divergence"
       ~doc:
         "Walk two runs' certificate streams (two nodes of one run, two \
          seeds, or dagrider-vs-bullshark on one schedule) to the first \
          divergent ordering decision and print both sides' evidence. \
          Same-rule pairs compare per-wave decisions; cross-rule pairs \
          compare the ordered delivery logs.")
    Term.(
      const run $ file_a $ file_b $ node_a_arg $ node_b_arg $ json_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run (c : Common.t) no_trace top folded_out =
    let prof = Prof.create () in
    Prof.install prof;
    let tracer =
      if no_trace then None else Some (Trace.create ~capacity:4096 ())
    in
    let fleet = Common.build ?trace:tracer c in
    (* the root span makes coverage meaningful: every instrumented span
       below it explains a slice of the whole run's wall time *)
    Prof.time "run" (fun () -> Harness.Runner.run fleet ~until:c.until);
    Prof.uninstall ();
    (* sha256= names the hash kernel behind the crypto rows *)
    Printf.printf
      "profile: n=%d seed=%d backend=%s until=%.0f trace=%s sha256=%s; %s\n\n"
      c.n c.seed
      (match c.backend with
      | Harness.Runner.Bracha -> "bracha"
      | Harness.Runner.Avid -> "avid"
      | Harness.Runner.Gossip -> "gossip")
      c.until
      (if no_trace then "off" else "on")
      Crypto.Sha256.kernel (delivered_at fleet);
    print_string (Prof.render_table ~top prof);
    print_newline ();
    print_string (Prof.render_gc (Prof.gc_summary prof));
    (* the queue populations that a per-event cost depends on *)
    let engine = Harness.Runner.engine fleet in
    Printf.printf
      "engine: %d events run, peak %d queued, %d buckets of width %.3g; \
       network slots %s\n"
      (Sim.Engine.events_executed engine)
      (Sim.Engine.slot_capacity engine)
      (Sim.Engine.buckets engine)
      (Sim.Engine.bucket_width engine)
      (String.concat ", "
         (List.map
            (fun (stack, _, capacity) -> Printf.sprintf "%s %d" stack capacity)
            (Harness.Runner.net_slots fleet)));
    match folded_out with
    | Some path ->
      write_file path (Prof.folded prof);
      Printf.printf "\nwrote folded stacks to %s (flamegraph.pl-ready)\n" path
    | None -> ()
  in
  let no_trace_arg =
    Arg.(
      value & flag
      & info [ "no-trace" ]
          ~doc:
            "Profile an untraced run (default attaches a tracer and the \
             analyzer sink so their overhead shows up in the table).")
  in
  let top_arg =
    Arg.(
      value & opt int 16
      & info [ "top" ] ~docv:"K" ~doc:"Rows in the hot-span table.")
  in
  let folded_arg =
    Arg.(
      value & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Also write folded call stacks to $(docv) for flamegraph.pl / \
             inferno-flamegraph.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Simulate under the span profiler and print the hot-span table: \
          wall time (self and inclusive), allocation, and call counts per \
          span, plus GC pressure and a coverage footer.")
    Term.(const run $ Common.term $ no_trace_arg $ top_arg $ folded_arg)

(* ---- dot (Figures 1-2 style DAG rendering, analyzer-classified) ---- *)

let dot_cmd =
  let run (c : Common.t) rounds shade_wave justify_wave snapshot save_snapshot =
    match snapshot with
    | Some path ->
      (* offline: a saved snapshot has no trace, so no leader classes *)
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (match Dagrider.Snapshot.dag_of_string contents with
      | Ok dag ->
        print_string (Dagrider.Render.dot_classified ~max_round:rounds dag)
      | Error e ->
        Printf.eprintf "dot: bad snapshot %s: %s\n" path e;
        exit 1)
    | None ->
      let live = collect ~cmd:"dot" c None in
      let node = observer live in
      let dag =
        Dagrider.Node.dag (Harness.Runner.node (Option.get live.fleet) node)
      in
      (match save_snapshot with
      | Some path ->
        write_file path (Dagrider.Snapshot.dag_to_string dag);
        Printf.eprintf "saved DAG snapshot to %s\n" path
      | None -> ());
      (match justify_wave with
      | Some wave ->
        (* shade the provenance certificate's justification subgraph
           instead of the analyzer classification *)
        let fx = Analyze.ledger live.analyzer in
        (match Forensics.justification fx ~node ~wave with
        | Some (leader, support, chain) ->
          print_string
            (Dagrider.Render.dot_justification ~support ~chain ~legend:true
               ~max_round:rounds dag ~leader)
        | None ->
          Printf.eprintf
            "dot: wave %d has no commit certificate at p%d (skipped or \
             unresolved — try `explain --wave %d`)\n"
            wave node wave;
          exit 1)
      | None ->
        print_string
          (Analyze.dot ?shade_wave ~max_round:rounds ~dag
             (Lazy.force live.report)))
  in
  let rounds_arg =
    Arg.(
      value & opt int 12 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to show.")
  in
  let shade_arg =
    Arg.(
      value & opt (some int) None
      & info [ "shade-wave" ] ~docv:"W"
          ~doc:
            "Shade the causal history of wave $(docv)'s committed leader \
             (default: the newest committed wave).")
  in
  let justify_arg =
    Arg.(
      value & opt (some int) None
      & info [ "justify-wave" ] ~docv:"W"
          ~doc:
            "Shade wave $(docv)'s justification subgraph from its provenance \
             certificate at the process $(b,analyze) reports from: leader \
             gold, supporting quorum palegreen, chain-back leaders orange, \
             causal history gray.")
  in
  let snapshot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:"Render a DAG snapshot saved with --save-snapshot (offline).")
  in
  let save_snapshot_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save-snapshot" ] ~docv:"FILE"
          ~doc:"Also save the rendered DAG's snapshot to $(docv).")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Render the DAG of the process $(b,analyze) reports from as \
          Graphviz DOT in the style of the paper's Figures 1-2: strong \
          edges solid, weak edges dashed, leaders colored by outcome \
          (committed/skipped/elected), and the causal history of a chosen \
          commit shaded.")
    Term.(
      const run $ Common.term $ rounds_arg $ shade_arg $ justify_arg
      $ snapshot_arg $ save_snapshot_arg)

(* ---- render-dag (Figure 1) ---- *)

let build_fleet ?(rule = Dagrider.Ordering.dag_rider) n seed backend schedule
    crashes byzantines block_bytes =
  Common.build
    { Common.n;
      seed;
      backend;
      rule;
      schedule;
      crashes;
      byzantines;
      block_bytes;
      until = 0.0;
      link_faults = None }

let render_dag_cmd =
  let render n seed until dot rounds =
    let fleet =
      build_fleet n seed Harness.Runner.Bracha Harness.Runner.Uniform_random []
        [] 16
    in
    Harness.Runner.run fleet ~until;
    let dag = Dagrider.Node.dag (Harness.Runner.node fleet 0) in
    let max_round = min rounds (Dagrider.Dag.highest_round dag) in
    if dot then print_string (Dagrider.Render.dot_classified ~max_round dag)
    else begin
      Printf.printf
        "Figure 1 regeneration: p0's local DAG after %.0f time units\n\
         ('*' = vertex, '.' = not yet delivered, 'wN' = N weak edges)\n\n"
        until;
      print_string (Dagrider.Render.ascii ~max_round dag);
      print_newline ();
      (* the figure's caption facts, checked live *)
      let f = (n - 1) / 3 in
      let complete = ref 0 in
      for r = 1 to max_round do
        if Dagrider.Dag.round_size dag r >= (2 * f) + 1 then incr complete
      done;
      Printf.printf
        "every completed round has >= 2f+1 = %d vertices: %d/%d rounds complete\n"
        ((2 * f) + 1) !complete max_round;
      let weak =
        List.length
          (List.filter
             (fun v -> v.Dagrider.Vertex.weak_edges <> [])
             (Dagrider.Dag.vertices dag))
      in
      Printf.printf "vertices carrying weak edges: %d\n" weak
    end
  in
  let dot_arg =
    Arg.(
      value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of ASCII.")
  in
  let rounds_arg =
    Arg.(value & opt int 10 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to show.")
  in
  Cmd.v
    (Cmd.info "render-dag"
       ~doc:"Regenerate Figure 1: render a live DAG (ASCII or DOT).")
    Term.(
      const render $ Common.n_arg $ Common.seed_arg $ Common.until_arg
      $ dot_arg $ rounds_arg)

(* ---- render-commit (Figure 2) ---- *)

let render_commit_cmd =
  let render n seed until rule =
    let fleet =
      build_fleet ~rule n seed Harness.Runner.Bracha
        Harness.Runner.Skewed_random [] [] 16
    in
    (* collect commits as they happen via each wave's summary afterwards *)
    Harness.Runner.run fleet ~until;
    let node = Harness.Runner.node fleet 0 in
    let dag = Dagrider.Node.dag node in
    let f = (n - 1) / 3 in
    Printf.printf
      "Figure 2 regeneration: wave-by-wave commit decisions at p0 (rule %s)\n\
       (a wave's leader commits directly when >= %d last-round vertices\n\
       have a strong path to it; skipped leaders are committed\n\
       retroactively by the next committing wave's backward chain)\n\n"
      rule.Dagrider.Ordering.rule_name
      (Dagrider.Ordering.quorum_of rule ~f);
    print_string
      (Dagrider.Render.wave_summary dag ~rule ~f
         ~leader_of:(fun w -> Dagrider.Node.leader_of node ~wave:w));
    Printf.printf
      "\ndecided up to wave %d; leaders of waves without COMMIT above were\n\
       either absent from the wave's first round or under-supported, and\n\
       were committed retroactively if a later leader reaches them.\n"
      (Dagrider.Ordering.decided_wave (Dagrider.Node.ordering node))
  in
  Cmd.v
    (Cmd.info "render-commit"
       ~doc:"Regenerate Figure 2: wave leaders, support counts, commits.")
    Term.(
      const render $ Common.n_arg $ Common.seed_arg $ Common.until_arg
      $ Common.rule_arg)

(* ---- monitor (time-series flight recorder + SLO dashboard) ---- *)

(* Parse "FROM,UNTIL" (also accepts "FROM:UNTIL"). *)
let span_conv =
  let parse s =
    let s = String.map (function ':' -> ',' | c -> c) s in
    match String.split_on_char ',' s with
    | [ a; b ] -> (
      match
        (float_of_string_opt (String.trim a), float_of_string_opt (String.trim b))
      with
      | Some a, Some b when a < b -> Ok (a, b)
      | _ -> Error (`Msg (Printf.sprintf "bad span %S (want FROM,UNTIL)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad span %S (want FROM,UNTIL)" s))
  in
  let print ppf (a, b) = Format.fprintf ppf "%g,%g" a b in
  Arg.conv (parse, print)

let monitor_cmd =
  let run (c : Common.t) interval window rate batch body_bytes max_pending
      stall min_tps max_p99 max_stall max_growth csv_out json_out jsonl_out =
    let mon = Monitor.create ~interval ~window () in
    let workload =
      if rate <= 0.0 then None
      else
        Some
          { Harness.Runner.wl_rate = rate;
            wl_body_bytes = body_bytes;
            wl_max_batch = batch;
            wl_max_pending = max_pending }
    in
    (* SLOs: throughput on the ordered-transaction stream (or delivered
       vertices when the workload is off), commit-gap liveness, tail
       latency — and, only when asked, bounded DAG growth (the paper's
       default has no GC, so growth is expected and healthy) *)
    let tput_series = if workload = None then "node.delivered" else "tx.ordered" in
    Monitor.add_slo mon
      (Monitor.Min_rate
         { series = tput_series; min_per_unit = min_tps; after = 20.0 });
    Monitor.add_slo mon (Monitor.Max_stall { series = "commits"; max_gap = max_stall });
    Monitor.add_slo mon (Monitor.Max_p99 { max_units = max_p99; after = 20.0 });
    (match max_growth with
    | Some g ->
      Monitor.add_slo mon
        (Monitor.Max_slope
           { series = "dag.vertices"; max_per_unit = g; after = 20.0 })
    | None -> ());
    let tracer =
      match jsonl_out with Some _ -> Some (Trace.create ()) | None -> None
    in
    let schedule =
      match stall with
      | None -> c.schedule
      | Some (from_time, until_time) ->
        (* mid-run partition: cross-half traffic slowed two hundredfold
           inside the window — commits stall, the SLOs should notice *)
        Harness.Runner.Custom
          (fun rng ->
            let inner =
              Harness.Runner.make_sched ~schedule:c.schedule ~rng
            in
            let during =
              Net.Sched.partition ~inner
                ~left:(fun i -> i < (c.n + 1) / 2)
                ~factor:200.0
            in
            Net.Sched.with_window ~inner ~from_time ~until_time ~during)
    in
    let options =
      { (Common.options ?trace:tracer c) with schedule; workload;
        monitor = Some mon }
    in
    let fleet = Harness.Runner.build options in
    Harness.Runner.run fleet ~until:c.until;
    print_string (Monitor.render mon);
    (match csv_out with
    | Some path ->
      write_file path (Monitor.to_csv mon);
      Printf.printf "wrote %d time-series rows to %s\n" (Monitor.samples mon)
        path
    | None -> ());
    (match json_out with
    | Some path ->
      write_file path (Stdx.Json.to_string (Monitor.to_json mon));
      Printf.printf "wrote time-series JSON to %s\n" path
    | None -> ());
    (match (jsonl_out, tracer) with
    | Some path, Some tr ->
      write_file path (Trace.to_jsonl tr);
      Printf.printf "wrote trace (health events included) to %s\n" path
    | _ -> ());
    if Monitor.ever_unhealthy mon then exit 1
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"T" ~doc:"Sampling interval (virtual time).")
  in
  let window_arg =
    Arg.(
      value & opt float 10.0
      & info [ "window" ] ~docv:"T"
          ~doc:"Sliding window behind rates, percentiles and slopes.")
  in
  let rate_arg =
    Arg.(
      value & opt float 20.0
      & info [ "rate" ] ~docv:"TX"
          ~doc:
            "Client transactions per time unit per live process (0 disables \
             the workload and falls back to synthetic blocks).")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"K" ~doc:"Mempool transactions per block.")
  in
  let body_arg =
    Arg.(
      value & opt int 32
      & info [ "body-bytes" ] ~docv:"BYTES" ~doc:"Transaction payload size.")
  in
  let max_pending_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-pending" ] ~docv:"K"
          ~doc:"Mempool backpressure cap (default unbounded).")
  in
  let stall_arg =
    Arg.(
      value & opt (some span_conv) None
      & info [ "stall" ] ~docv:"FROM,UNTIL"
          ~doc:
            "Inject a network partition (cross-half delay x200) inside this \
             virtual-time window to exercise the health checks.")
  in
  let min_tps_arg =
    Arg.(
      value & opt float 1.0
      & info [ "min-tps" ] ~docv:"R"
          ~doc:"SLO: minimum windowed ordering rate after warmup.")
  in
  let max_p99_arg =
    Arg.(
      value & opt float 50.0
      & info [ "max-p99" ] ~docv:"T"
          ~doc:"SLO: maximum sliding-window p99 latency after warmup.")
  in
  let max_stall_arg =
    Arg.(
      value & opt float 15.0
      & info [ "max-stall" ] ~docv:"T"
          ~doc:"SLO: maximum gap between commits at the observer.")
  in
  let max_growth_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-growth" ] ~docv:"R"
          ~doc:
            "SLO: maximum DAG growth (vertices per time unit) — off by \
             default because the paper's protocol has no GC and growth is \
             expected; combine with a gc-enabled build to check bounded \
             memory.")
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the time series as CSV.")
  in
  let json_arg =
    Common.json_file_arg
      ~doc:"Export the time series, health states and verdict as JSON."
  in
  let jsonl_arg =
    Common.dump_jsonl_arg
      ~doc:
        "Also trace the run and dump JSONL (health transitions appear as \
         typed events)."
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run a sustained-load fleet under the time-series flight recorder: \
          ASCII dashboard with per-series sparklines, windowed rates, \
          sliding latency percentiles, and SLO health checks (exit 1 if any \
          check ever failed). Use --csv/--json for plotting exports and \
          --stall to inject a partition.")
    Term.(
      const run $ Common.term $ interval_arg $ window_arg $ rate_arg
      $ batch_arg $ body_arg $ max_pending_arg $ stall_arg $ min_tps_arg
      $ max_p99_arg $ max_stall_arg $ max_growth_arg $ csv_arg $ json_arg
      $ jsonl_arg)

(* ---- experiments ---- *)

let experiments_cmd =
  let run seed =
    List.iter
      (fun e ->
        print_string
          (Harness.Experiments.render (e.Harness.Experiments.run ~seed ())))
      Harness.Experiments.all
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Print every experiment table (slow).")
    Term.(const run $ Common.seed_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "dagrider_run" ~version:"1.0.0"
             ~doc:"DAG-Rider simulation driver (PODC 2021 reproduction).")
          [ run_cmd; trace_cmd; analyze_cmd; critpath_cmd; explain_cmd;
            divergence_cmd; profile_cmd; monitor_cmd; dot_cmd; render_dag_cmd;
            render_commit_cmd; experiments_cmd ]))
