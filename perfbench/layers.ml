(* The per-layer pass: one run under Prof with the spans the library
   already has, counts read from public accessors, timed replays of each
   layer's public functions on inputs captured from that run, and the
   observability collectors fed from a captured event stream. *)

(* Generic span names, so every workload reports the same metrics: the
   RBC spans are the backend's ("rbc.bracha.recv" or "rbc.avid.recv")
   and the ordering span is the rule's ("order.wave.dagrider" or
   "order.wave.bullshark"). *)
let span_of (w : Spec.workload) s =
  let backend =
    match w.backend with
    | Harness.Runner.Bracha -> "bracha"
    | Harness.Runner.Avid -> "avid"
    | Harness.Runner.Gossip -> "gossip"
  in
  match s with
  | "rbc.recv" -> "rbc." ^ backend ^ ".recv"
  | "rbc.bcast" -> "rbc." ^ backend ^ ".bcast"
  | "order.wave" -> "order.wave." ^ w.rule.Dagrider.Ordering.rule_name
  | s -> s

let span_names =
  [ "engine.dispatch";
    "rbc.recv";
    "rbc.bcast";
    "node.r_deliver";
    "node.coin";
    "dag.add";
    "dag.path";
    "dag.causal_history";
    "order.wave" ]

(* (name, unit) of every per-layer metric, in print order *)
let metrics =
  List.concat_map
    (fun s ->
      [ (s ^ ".calls", "count");
        (s ^ ".self_ms", "ms");
        (s ^ ".self_alloc_mb", "MB") ])
    span_names
  @ [ ("prof.coverage", "ratio");
      ("prof.overhead_ratio", "ratio");
      ("sim.events_per_vertex", "events/vertex");
      ("net.messages_per_vertex", "msgs/vertex");
      ("link.data_sent", "count");
      ("link.retransmits", "count");
      ("link.gave_up", "count");
      ("dag.retained_vertices", "count");
      ("order.commits", "count");
      ("order.chained_commits", "count");
      ("mempool.pending_end", "count");
      ("gc.minor", "count");
      ("gc.major", "count");
      ("gc.promoted_mb", "MB");
      ("vertex.encode_us", "us");
      ("vertex.decode_validate_us", "us");
      ("crypto.sha256_us_per_kb", "us/KiB");
      ("rbc.bracha.codec_us", "us");
      ("crypto.rs_encode_us", "us");
      ("crypto.rs_decode_us", "us");
      ("crypto.merkle_verify_us", "us");
      ("crypto.coin_combine_us", "us");
      ("dag.insert_us", "us");
      ("dag.weak_walk_us", "us");
      ("dag.history_walk_us", "us");
      ("trace.events_per_vertex", "events/vertex");
      ("analyze.feed_us_per_event", "us");
      ("critpath.feed_us_per_event", "us");
      ("forensics.feed_us_per_event", "us");
      ("obs.overhead_ratio", "ratio") ]

(* Run [f] over every input, again and again until [min_s] of wall time
   has passed; microseconds per input. [setup] rebuilds any state a pass
   consumes and is not timed. *)
let min_s = 0.05

let us_per ?(setup = fun () -> ()) inputs f =
  let count = List.length inputs in
  if count = 0 then nan
  else begin
    let spent = ref 0.0 and passes = ref 0 in
    while !spent < min_s do
      setup ();
      let t0 = Unix.gettimeofday () in
      List.iter f inputs;
      spent := !spent +. (Unix.gettimeofday () -. t0);
      incr passes
    done;
    !spent *. 1e6 /. float_of_int (count * !passes)
  end

(* Replays over the observer's retained vertices (their encodings stand
   in for RBC payloads), its committed leaders and the coin instances it
   decided. *)
let replays ~n ~f ~observer ~coin ~leaders ~decided_wave dag =
  let vertices = Dagrider.Dag.vertices dag in
  let payloads =
    List.map
      (fun (v : Dagrider.Vertex.t) -> (v, Dagrider.Vertex.encode v))
      vertices
  in
  let bytes =
    List.fold_left (fun acc (_, p) -> acc + String.length p) 0 payloads
  in
  let coder = Crypto.Reed_solomon.make ~k:(f + 1) ~n in
  let dispersals =
    List.map
      (fun (_, p) ->
        let frags = Crypto.Reed_solomon.encode coder p in
        (p, frags, Crypto.Merkle.build frags))
      payloads
  in
  let proofs =
    List.concat_map
      (fun (_, frags, tree) ->
        List.init n (fun i ->
            (Crypto.Merkle.root tree, frags.(i), Crypto.Merkle.prove tree i)))
      dispersals
  in
  let shares =
    List.init decided_wave (fun w ->
        ( w + 1,
          List.init (f + 1) (fun holder ->
              Crypto.Threshold_coin.make_share coin ~holder ~instance:(w + 1))
        ))
  in
  (* the replay DAG is rebuilt from the retained vertices in round
     order; a garbage-collected DAG starts above its pruned rounds *)
  let lowest =
    match vertices with [] -> 1 | v :: _ -> v.Dagrider.Vertex.round
  in
  let fresh () =
    let d = Dagrider.Dag.create ~n in
    if lowest > 1 then Dagrider.Dag.prune_below d ~round:lowest;
    d
  in
  let replay = ref (fresh ()) in
  let insert =
    us_per
      ~setup:(fun () -> replay := fresh ())
      vertices
      (fun v -> Dagrider.Dag.add !replay v)
  in
  (* the walk set_weak_edges repeats: reachability from every strong
     edge of each vertex the observer created, over the DAG of the
     rounds below it *)
  let own =
    List.filter (fun (v : Dagrider.Vertex.t) -> v.source = observer) vertices
  in
  let walk_dag = fresh () and walk_s = ref 0.0 and pending = ref vertices in
  List.iter
    (fun (v : Dagrider.Vertex.t) ->
      let rec add_below () =
        match !pending with
        | u :: rest when u.Dagrider.Vertex.round < v.round ->
          Dagrider.Dag.add walk_dag u;
          pending := rest;
          add_below ()
        | _ -> ()
      in
      add_below ();
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun e ->
          ignore
            (Dagrider.Dag.reachable_from walk_dag e ~via_strong_only:false))
        v.strong_edges;
      walk_s := !walk_s +. (Unix.gettimeofday () -. t0))
    own;
  let leaders = List.filter (Dagrider.Dag.contains dag) leaders in
  let sha_us =
    us_per payloads (fun (_, p) -> ignore (Crypto.Sha256.digest_string p))
  in
  [ ( "vertex.encode_us",
      us_per vertices (fun v -> ignore (Dagrider.Vertex.encode v)) );
    ( "vertex.decode_validate_us",
      us_per payloads (fun ((v : Dagrider.Vertex.t), p) ->
          match Dagrider.Vertex.decode ~round:v.round ~source:v.source p with
          | Some u -> ignore (Dagrider.Vertex.validate ~n ~f u)
          | None -> failwith "replay: a retained vertex failed to decode") );
    ( "crypto.sha256_us_per_kb",
      sha_us
      *. float_of_int (List.length payloads)
      *. 1024.0
      /. float_of_int (max 1 bytes) );
    ( "rbc.bracha.codec_us",
      us_per payloads (fun ((v : Dagrider.Vertex.t), payload) ->
          let echo =
            Rbc.Bracha.Echo { origin = v.source; round = v.round; payload }
          in
          ignore (Rbc.Bracha.decode_msg (Rbc.Bracha.encode_msg echo))) );
    ( "crypto.rs_encode_us",
      us_per payloads (fun (_, p) ->
          ignore (Crypto.Reed_solomon.encode coder p)) );
    ( "crypto.rs_decode_us",
      (* the last f+1 fragments, so parity is decoded rather than copied *)
      us_per dispersals (fun (p, frags, _) ->
          let last =
            List.init (f + 1) (fun i -> (n - 1 - i, frags.(n - 1 - i)))
          in
          ignore
            (Crypto.Reed_solomon.decode coder ~data_len:(String.length p) last))
    );
    ( "crypto.merkle_verify_us",
      us_per proofs (fun (root, leaf, proof) ->
          if not (Crypto.Merkle.verify ~root ~leaf_count:n ~leaf proof) then
            failwith "replay: a Merkle proof failed to verify") );
    ( "crypto.coin_combine_us",
      us_per shares (fun (instance, ss) ->
          ignore (Crypto.Threshold_coin.combine coin ~instance ss)) );
    ("dag.insert_us", insert);
    ( "dag.weak_walk_us",
      if own = [] then nan
      else !walk_s *. 1e6 /. float_of_int (List.length own) );
    ( "dag.history_walk_us",
      us_per leaders (fun l -> ignore (Dagrider.Dag.causal_history dag l)) )
  ]

(* ---- the profiled repeat ---- *)

let profiled w ~seed =
  let fleet, probe = Rep.build w ~seed ~observed:false () in
  let prof = Prof.create () in
  Prof.install prof;
  let t0 = Rep.cpu_now () in
  Prof.time "run" (fun () -> Harness.Runner.run fleet ~until:w.Spec.horizon);
  let cpu = Rep.cpu_now () -. t0 in
  Prof.uninstall ();
  let rows = Prof.rows prof in
  let spans =
    List.concat_map
      (fun s ->
        let name = span_of w s in
        let calls, self_s, self_alloc =
          match List.find_opt (fun (r : Prof.row) -> r.r_name = name) rows with
          | Some r -> (r.r_count, r.r_self_s, r.r_self_alloc_bytes)
          | None -> (0, 0.0, 0.0)
        in
        [ (s ^ ".calls", float_of_int calls);
          (s ^ ".self_ms", self_s *. 1e3);
          (s ^ ".self_alloc_mb", self_alloc /. 1e6) ])
      span_names
  in
  let observer, node = Rep.observer_node fleet in
  let ord = Dagrider.Node.ordering node in
  let per_vertex count =
    float_of_int count
    /. float_of_int (max 1 (Dagrider.Ordering.delivered_count ord))
  in
  let link = Harness.Runner.link_stats fleet in
  let pending =
    match Harness.Runner.mempools fleet with
    | None -> 0
    | Some pools ->
      Array.fold_left (fun acc p -> acc + Workload.Mempool.pending p) 0 pools
  in
  let counts =
    [ ("prof.coverage", Prof.coverage prof);
      ( "sim.events_per_vertex",
        per_vertex (Sim.Engine.events_executed (Harness.Runner.engine fleet)) );
      ( "net.messages_per_vertex",
        per_vertex
          (Metrics.Counters.total_messages (Harness.Runner.counters fleet)) );
      ("link.data_sent", float_of_int link.Net.Link.data_sent);
      ("link.retransmits", float_of_int link.Net.Link.retransmits);
      ("link.gave_up", float_of_int link.Net.Link.gave_up);
      ( "dag.retained_vertices",
        float_of_int (Dagrider.Dag.size (Dagrider.Node.dag node)) );
      ("order.commits", float_of_int probe.Rep.commits);
      ( "order.chained_commits",
        float_of_int (probe.Rep.commits - probe.Rep.direct_commits) );
      ("mempool.pending_end", float_of_int pending) ]
  in
  let opts = Harness.Runner.options fleet in
  let replayed =
    replays ~n:opts.n ~f:opts.f ~observer ~coin:(Harness.Runner.coin fleet)
      ~leaders:probe.Rep.leaders
      ~decided_wave:(Dagrider.Ordering.decided_wave ord)
      (Dagrider.Node.dag node)
  in
  let open Stdx.Json in
  Obj
    [ ("cpu_s", Float cpu);
      ( "layers",
        Obj (List.map (fun (k, v) -> (k, Float v)) (spans @ counts @ replayed))
      ) ]

(* ---- the traced repeat: observability cost ---- *)

(* feeding every captured event into fresh collectors would replay the
   whole run; a prefix this long keeps the pass to about a second *)
let max_feed = 200_000

let traced w ~seed =
  let captured = ref [] and kept = ref 0 in
  let capture e =
    if !kept < max_feed then begin
      captured := e :: !captured;
      incr kept
    end
  in
  let fleet, _ = Rep.build w ~seed ~observed:true ~capture () in
  let t0 = Rep.cpu_now () in
  Harness.Runner.run fleet ~until:w.Spec.horizon;
  let cpu = Rep.cpu_now () -. t0 in
  let observer, node = Rep.observer_node fleet in
  let delivered =
    Dagrider.Ordering.delivered_count (Dagrider.Node.ordering node)
  in
  let emitted =
    match (Harness.Runner.options fleet).trace with
    | Some tr -> Trace.emitted tr
    | None -> 0
  in
  let events = List.rev !captured in
  let feed_us create feed =
    let acc = ref (create ()) in
    us_per ~setup:(fun () -> acc := create ()) events (fun e -> feed !acc e)
  in
  let open Stdx.Json in
  Obj
    [ ("cpu_s", Float cpu);
      ( "layers",
        Obj
          [ ( "trace.events_per_vertex",
              Float (float_of_int emitted /. float_of_int (max 1 delivered)) );
            ( "analyze.feed_us_per_event",
              Float (feed_us Analyze.create Analyze.feed) );
            ( "critpath.feed_us_per_event",
              Float
                (feed_us (fun () -> Critpath.create ~observer ()) Critpath.feed)
            );
            ( "forensics.feed_us_per_event",
              Float (feed_us Forensics.create Forensics.feed) ) ] ) ]
