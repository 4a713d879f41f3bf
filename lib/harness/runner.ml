type backend = Bracha | Avid | Gossip

type schedule =
  | Synchronous
  | Uniform_random
  | Skewed_random
  | Custom of (Stdx.Rng.t -> Net.Sched.t)

type fault =
  | Crash of int
  | Byzantine_silent of int
  | Byzantine_live of int
  | Byzantine_attacker of int
  | Adversary of int * Attack.spec

type link_faults = {
  lf_drop : float;
  lf_duplicate : float;
  lf_corrupt : float;
  lf_reorder : float;
}

let default_link_faults =
  { lf_drop = 0.0; lf_duplicate = 0.0; lf_corrupt = 0.0; lf_reorder = 0.0 }

type workload = {
  wl_rate : float;
  wl_body_bytes : int;
  wl_max_batch : int;
  wl_max_pending : int option;
}

let default_workload =
  { wl_rate = 20.0; wl_body_bytes = 32; wl_max_batch = 64; wl_max_pending = None }

type options = {
  n : int;
  f : int;
  seed : int;
  backend : backend;
  schedule : schedule;
  block_bytes : int;
  rule : Dagrider.Ordering.rule;
  enable_weak_edges : bool;
  gc_depth : int option;
  coin_in_dag : bool;
  coin_override : Crypto.Threshold_coin.t option;
  on_deliver :
    (node:int -> block:string -> round:int -> source:int -> time:float -> unit)
    option;
  on_commit : (node:int -> Dagrider.Ordering.commit -> unit) option;
  faults : fault list;
  link_faults : link_faults option;
  sync_trusting : bool;
  trace : Trace.t option;
  workload : workload option;
  monitor : Monitor.t option;
}

let default_options ~n =
  { n;
    f = (n - 1) / 3;
    seed = 42;
    backend = Bracha;
    schedule = Uniform_random;
    block_bytes = 32;
    rule = Dagrider.Ordering.dag_rider;
    enable_weak_edges = true;
    gc_depth = None;
    coin_in_dag = false;
    coin_override = None;
    on_deliver = None;
    on_commit = None;
    faults = [];
    link_faults = None;
    sync_trusting = false;
    trace = None;
    workload = None;
    monitor = None }

(* What the harness needs of one stack's carrier, whatever its message
   type: the fault-injection hooks, the loss-diagnostics counters and
   the in-flight gauges of its network. *)
type carrier = {
  cr_corrupt : drop_in_flight:bool -> int -> unit; (* §2 adaptive *)
  cr_detach : int -> unit; (* stop process i sending/receiving for good *)
  cr_link_stats : unit -> Net.Link.stats;
  cr_retransmits : unit -> ((int * int) * int) list; (* (src,dst) -> count *)
  cr_drop_counts : unit -> (string * int) list;
  cr_in_flight : unit -> int;
  cr_slot_capacity : unit -> int;
}

(* One protocol stack's transport: the port the protocol talks to and
   its carrier. Direct mode wraps a bare network; lossy mode runs the
   stack over Net.Link endpoints on a fault-injected frame network. *)
type 'msg stack = { st_port : 'msg Net.Port.t; st_carrier : carrier }

type t = {
  options : options;
  engine : Sim.Engine.t;
  counters : Metrics.Counters.t;
  coin : Crypto.Threshold_coin.t;
  coin_stack : Dagrider.Node.coin_msg stack;
  sync_stack : Dagrider.Node.sync_msg stack;
  make_rbc : Dagrider.Node.rbc_factory;
  node_config : Dagrider.Node.config;
  nodes : Dagrider.Node.t array;
  carriers : (string * carrier) list; (* coin, sync, rbc *)
  rbc_gauges : (unit -> int * int) array;
      (* per process: its backend's open instances and drops *)
  faulty : bool array;  (* counted as Byzantine *)
  crashed : bool array; (* additionally, never started *)
  attack_drivers : Attack.t option array; (* per-process, iff Adversary *)
  latency : Metrics.Latency.t;
  analyzer : Analyze.t option; (* streaming trace consumer, iff traced *)
  forensics : Forensics.t option; (* certificate collector, iff traced *)
  critpath : Critpath.t option; (* causal path collector, iff traced *)
  mempools : Workload.Mempool.t array option; (* iff workload-driven *)
  mctx : monitor_ctx option; (* iff a monitor is attached *)
  mutable started : bool;
}

and monitor_ctx = {
  mc_mon : Monitor.t;
  mc_observer : int; (* lowest never-faulty process: the vantage point *)
  mc_commits : int ref; (* direct+chained commits seen at the observer *)
}

(* a bare network's hooks and gauges; a lossy stack replaces detach and
   the link counters with its endpoints' *)
let network_carrier net =
  { cr_corrupt =
      (fun ~drop_in_flight i -> Net.Network.corrupt net ~drop_in_flight i);
    cr_detach = (fun i -> Net.Network.unregister net i);
    cr_link_stats = (fun () -> Net.Link.zero_stats);
    cr_retransmits = (fun () -> []);
    cr_drop_counts = (fun () -> Net.Network.drop_counts net);
    cr_in_flight = (fun () -> Net.Network.in_flight net);
    cr_slot_capacity = (fun () -> Net.Network.slot_capacity net) }

let silence cr ~drop_in_flight i =
  cr.cr_corrupt ~drop_in_flight i;
  cr.cr_detach i

let fault_index = function
  | Crash i | Byzantine_silent i | Byzantine_live i | Byzantine_attacker i -> i
  | Adversary (i, _) -> i

let make_sched ~schedule ~rng =
  match schedule with
  | Synchronous -> Net.Sched.synchronous ()
  | Uniform_random -> Net.Sched.uniform_random ~rng
  | Skewed_random -> Net.Sched.skewed_random ~rng
  | Custom f -> f rng

(* Deterministic synthetic block: identifies its proposer and round, and
   pads to the requested size so communication accounting is realistic. *)
let synthetic_block ~block_bytes ~me ~round =
  let tag = Printf.sprintf "blk:p%d:r%d:" me round in
  if String.length tag >= block_bytes then tag
  else tag ^ String.make (block_bytes - String.length tag) 'x'

(* The three per-node closures, shared by [build] and [restart_node] so a
   restarted node keeps the workload/monitor wiring of the original.
   With no workload and no monitor the closures reduce to the historical
   ones — nothing extra touches the engine or any RNG, so delivery logs
   stay byte-identical to builds predating these features. *)
let node_hooks ~options ~engine ~latency ~mempools ~mctx ~me =
  let a_deliver =
    let user_hook =
      match options.on_deliver with
      | None -> fun ~block:_ ~round:_ ~source:_ -> ()
      | Some hook ->
        fun ~block ~round ~source ->
          hook ~node:me ~block ~round ~source ~time:(Sim.Engine.now engine)
    in
    let retire =
      match mempools with
      | None -> fun _ -> ()
      | Some pools ->
        (* every delivered block retires its transactions here, foreign
           ones included (a client may have multi-submitted) *)
        fun block -> ignore (Workload.Mempool.retire_block pools.(me) block)
    in
    let observe =
      match mctx with
      | Some mc when mc.mc_observer = me ->
        fun block ->
          if block <> "" then
            (match Metrics.Latency.proposed_at latency block with
            | Some at ->
              let now = Sim.Engine.now engine in
              Monitor.observe_latency mc.mc_mon ~now (now -. at)
            | None -> ())
      | _ -> fun _ -> ()
    in
    fun ~block ~round ~source ->
      Metrics.Latency.delivered latency block ~process:me
        ~now:(Sim.Engine.now engine);
      retire block;
      observe block;
      user_hook ~block ~round ~source
  in
  let on_commit =
    let user_hook =
      match options.on_commit with
      | None -> fun _ -> ()
      | Some hook -> fun commit -> hook ~node:me commit
    in
    match mctx with
    | Some mc when mc.mc_observer = me ->
      fun commit ->
        incr mc.mc_commits;
        user_hook commit
    | _ -> user_hook
  in
  (* [block_source] fires exactly when this node creates its round
     vertex, so the proposal timestamp lands on the vertex's birth *)
  let block_source =
    match mempools with
    | None ->
      fun ~round ->
        let block =
          synthetic_block ~block_bytes:options.block_bytes ~me ~round
        in
        Metrics.Latency.proposed latency block ~now:(Sim.Engine.now engine);
        block
    | Some pools ->
      fun ~round ->
        let block = Workload.Mempool.assemble_block pools.(me) in
        (* an empty mempool still yields a vertex, just with no payload;
           "" is shared across nodes so it gets no latency record *)
        if block <> "" then
          Metrics.Latency.proposed latency block ~now:(Sim.Engine.now engine);
        (match options.trace with
        | Some tr ->
          Trace.emit tr
            (Trace.Block_assembled
               { node = me;
                 round;
                 txs = List.length (Workload.Txgen.block_txs block) })
        | None -> ());
        block
  in
  (a_deliver, on_commit, block_source)

let build options =
  let { n; f; seed; _ } = options in
  if n < 1 || f < 0 then invalid_arg "Runner.build: bad n/f";
  let root_rng = Stdx.Rng.create seed in
  let sched_rng = Stdx.Rng.split root_rng in
  let coin_rng = Stdx.Rng.split root_rng in
  let gossip_rng = Stdx.Rng.split root_rng in
  (* split AFTER every pre-existing stream and ONLY when lossy links are
     on, so fault-free runs consume exactly the historical RNG sequence
     (and [Check.Scenario.predicted_leader]'s mirror stays valid) *)
  let lossy_rng =
    match options.link_faults with
    | None -> None
    | Some lf ->
      if lf.lf_drop >= 1.0 then
        invalid_arg "Runner.build: lf_drop must be < 1";
      Some (lf, Stdx.Rng.split root_rng)
  in
  (* programmable adversaries (lib/attack): their RNG root splits after
     every pre-existing stream — and only when at least one is declared —
     so attack-free runs consume exactly the historical RNG sequence *)
  let adversaries =
    List.filter_map
      (function Adversary (i, spec) -> Some (i, spec) | _ -> None)
      options.faults
  in
  let adversary_rng =
    if adversaries = [] then None else Some (Stdx.Rng.split root_rng)
  in
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = make_sched ~schedule:options.schedule ~rng:sched_rng in
  let coin =
    match options.coin_override with
    | Some coin -> coin
    | None -> Crypto.Threshold_coin.setup ~rng:coin_rng ~n ~f
  in
  (* tracing is strictly additive: with [trace = None] nothing below is
     installed, so the event schedule is identical to an untraced build *)
  (match options.trace with
  | None -> ()
  | Some tr ->
    Trace.set_clock tr (fun () -> Sim.Engine.now engine);
    Sim.Engine.set_sampler engine ~interval:1.0
      (fun ~time:_ ~executed ~pending ->
        Trace.emit tr (Trace.Engine_sample { executed; pending })));
  (* a traced run also streams into the protocol analyzer, so
     [analysis_report] covers the whole run even when the ring wraps;
     the sink only reads events — it cannot perturb the schedule *)
  let analyzer =
    match options.trace with
    | None -> None
    | Some tr ->
      let acc = Analyze.create () in
      Trace.add_sink tr (Analyze.feed acc);
      Some acc
  in
  (* ...and into the forensics collector, which keeps every provenance
     certificate for explain / divergence / oracle re-validation *)
  let forensics =
    match options.trace with
    | None -> None
    | Some tr ->
      let fx = Forensics.create () in
      Trace.add_sink tr (Forensics.feed fx);
      Some fx
  in
  (* the vantage point for observer-anchored collectors: the lowest
     process no declared fault touches (mid-run silencing can still
     corrupt it — acceptable, same caveat as the monitor's observer) *)
  let vantage =
    let declared = List.map fault_index options.faults in
    let rec first i =
      if i >= n then 0 else if List.mem i declared then first (i + 1) else i
    in
    first 0
  in
  (* ...and into the critical-path collector, streaming at the vantage
     process so per-commit causal chains exist the moment each
     a_deliver fires — segment gauges stay O(1) to read mid-run *)
  let critpath =
    match options.trace with
    | None -> None
    | Some tr ->
      let cp = Critpath.create ~observer:vantage () in
      Trace.add_sink tr (Critpath.feed cp);
      Some cp
  in
  (* One transport stack per protocol; same engine/schedule/counters, so
     semantically a single multiplexed network. Direct mode builds the
     reliable network the harness always used; lossy mode interposes a
     fault-injected frame network with one {!Net.Link} endpoint per
     process. Stacks are created in a fixed order (coin, sync, rbc) and
     every lossy RNG derives from [lossy_rng] in creation order, so
     lossy executions stay pure functions of the seed. *)
  let make_stack (type msg) ~(encode : msg -> string)
      ~(decode : string -> msg option) : msg stack =
    match lossy_rng with
    | None ->
      ignore encode;
      ignore decode;
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      (match options.trace with
      | None -> ()
      | Some tr -> Net.Network.set_trace net tr);
      { st_port = Net.Port.of_network net;
        st_carrier = network_carrier net }
    | Some (lf, lrng) ->
      let net : Net.Link.frame Net.Network.t =
        Net.Network.create ~engine ~sched ~counters ~n
      in
      (match options.trace with
      | None -> ()
      | Some tr -> Net.Network.set_trace net tr);
      Net.Network.set_faults net
        (Net.Faults.lossy ~rng:(Stdx.Rng.split lrng) ~drop:lf.lf_drop
           ~duplicate:lf.lf_duplicate ~corrupt:lf.lf_corrupt
           ~reorder:lf.lf_reorder ());
      Net.Network.set_corrupter net
        (Net.Link.corrupt_frame ~rng:(Stdx.Rng.split lrng));
      let links =
        Array.init n (fun me ->
            Net.Link.attach ~net ~engine ~rng:(Stdx.Rng.split lrng)
              ?trace:options.trace ~me ~encode ~decode ())
      in
      { st_port = Net.Port.of_links links;
        st_carrier =
          { (network_carrier net) with
            cr_detach = (fun i -> Net.Link.detach links.(i));
            cr_link_stats =
              (fun () ->
                Array.fold_left
                  (fun acc l -> Net.Link.add_stats acc (Net.Link.stats l))
                  Net.Link.zero_stats links);
            cr_retransmits =
              (fun () ->
                List.concat
                  (List.mapi
                     (fun src l ->
                       List.map
                         (fun (dst, count) -> ((src, dst), count))
                         (Net.Link.retransmits_by_dst l))
                     (Array.to_list links))) } }
  in
  let coin_stack =
    make_stack ~encode:Dagrider.Node.encode_coin_msg
      ~decode:Dagrider.Node.decode_coin_msg
  in
  let sync_stack =
    make_stack ~encode:Dagrider.Node.encode_sync_msg
      ~decode:Dagrider.Node.decode_sync_msg
  in
  (* [make_rbc_full] also yields the backend's targeted-send capability
     (Bracha Init / AVID dispersal / Gossip seed toward chosen
     destinations) — the attack driver's arsenal. Honest nodes only ever
     see the plain factory below. *)
  let rbc_gauges = Array.make n (fun () -> (0, 0)) in
  let (make_rbc_full :
        me:int ->
        deliver:Rbc.Rbc_intf.deliver ->
        Dagrider.Node.rbc_handle
        * (dsts:int list -> round:int -> payload:string -> unit)),
      rbc_carrier =
    match options.backend with
    | Bracha ->
      let stack =
        make_stack ~encode:Rbc.Bracha.encode_msg ~decode:Rbc.Bracha.decode_msg
      in
      ( (fun ~me ~deliver ->
          let b = Rbc.Bracha.create_port ~port:stack.st_port ~me ~f ~deliver in
          (match options.trace with
          | None -> ()
          | Some tr -> Rbc.Bracha.set_trace b tr);
          rbc_gauges.(me) <-
            (fun () ->
              (Rbc.Bracha.open_instances b, Rbc.Bracha.dropped_below_horizon b));
          ( { Dagrider.Node.rbc_bcast =
                (fun ~payload ~round -> Rbc.Bracha.bcast b ~payload ~round);
              rbc_prune_below = Rbc.Bracha.prune_below b },
            fun ~dsts ~round ~payload ->
              List.iter
                (fun dst -> Rbc.Bracha.inject_init b ~dst ~round ~payload)
                dsts )),
        stack.st_carrier )
    | Avid ->
      let stack =
        make_stack ~encode:Rbc.Avid.encode_msg ~decode:Rbc.Avid.decode_msg
      in
      ( (fun ~me ~deliver ->
          let a = Rbc.Avid.create_port ~port:stack.st_port ~me ~f ~deliver in
          (match options.trace with
          | None -> ()
          | Some tr -> Rbc.Avid.set_trace a tr);
          rbc_gauges.(me) <-
            (fun () ->
              (Rbc.Avid.open_instances a, Rbc.Avid.dropped_below_horizon a));
          ( { Dagrider.Node.rbc_bcast =
                (fun ~payload ~round -> Rbc.Avid.bcast a ~payload ~round);
              rbc_prune_below = Rbc.Avid.prune_below a },
            fun ~dsts ~round ~payload ->
              Rbc.Avid.inject_disperse a ~dsts ~round ~payload )),
        stack.st_carrier )
    | Gossip ->
      let stack =
        make_stack ~encode:Rbc.Gossip.encode_msg ~decode:Rbc.Gossip.decode_msg
      in
      ( (fun ~me ~deliver ->
          let rng = Stdx.Rng.split gossip_rng in
          let g =
            Rbc.Gossip.create_port ~port:stack.st_port ~rng ~me ~f ~deliver
          in
          (match options.trace with
          | None -> ()
          | Some tr -> Rbc.Gossip.set_trace g tr);
          rbc_gauges.(me) <-
            (fun () ->
              (Rbc.Gossip.open_instances g, Rbc.Gossip.dropped_below_horizon g));
          ( { Dagrider.Node.rbc_bcast =
                (fun ~payload ~round -> Rbc.Gossip.bcast g ~payload ~round);
              rbc_prune_below = Rbc.Gossip.prune_below g },
            fun ~dsts ~round ~payload ->
              List.iter
                (fun dst -> Rbc.Gossip.inject_gossip g ~dst ~round ~payload)
                dsts )),
        stack.st_carrier )
  in
  let make_rbc : Dagrider.Node.rbc_factory =
   fun ~me ~deliver -> fst (make_rbc_full ~me ~deliver)
  in
  let carriers =
    [ ("coin", coin_stack.st_carrier);
      ("sync", sync_stack.st_carrier);
      ("rbc", rbc_carrier) ]
  in
  let config =
    { Dagrider.Node.n;
      f;
      rule = options.rule;
      enable_weak_edges = options.enable_weak_edges;
      gc_depth = options.gc_depth;
      coin_mode =
        (if options.coin_in_dag then Dagrider.Node.In_dag
         else Dagrider.Node.Separate_network) }
  in
  let latency = Metrics.Latency.create () in
  let mempools =
    match options.workload with
    | None -> None
    | Some wl ->
      if wl.wl_rate <= 0.0 then
        invalid_arg "Runner.build: wl_rate must be positive";
      Some
        (Array.init n (fun me ->
             Workload.Mempool.create ~max_batch:wl.wl_max_batch
               ?max_pending:wl.wl_max_pending ~owner:me ()))
  in
  let mctx =
    match options.monitor with
    | None -> None
    | Some mon -> Some { mc_mon = mon; mc_observer = vantage; mc_commits = ref 0 }
  in
  let attack_drivers : Attack.t option array = Array.make n None in
  let nodes =
    Array.init n (fun me ->
        let a_deliver, on_commit, block_source =
          node_hooks ~options ~engine ~latency ~mempools ~mctx ~me
        in
        (* an adversary runs the REAL node — real DAG, real codecs, real
           coin participation — but its broadcasts detour through the
           attack driver, which decides what actually hits the wire *)
        let make_rbc_for_me : Dagrider.Node.rbc_factory =
          match List.assoc_opt me adversaries with
          | None -> make_rbc
          | Some spec ->
            fun ~me ~deliver ->
              let handle, send = make_rbc_full ~me ~deliver in
              let arsenal =
                { Attack.ars_n = n;
                  ars_f = f;
                  ars_me = me;
                  ars_send = send;
                  ars_bcast =
                    (fun ~round ~payload ->
                      handle.Dagrider.Node.rbc_bcast ~payload ~round) }
              in
              let rng =
                match adversary_rng with
                | Some root -> Stdx.Rng.split root
                | None -> assert false
              in
              let driver =
                Attack.create ~spec ~arsenal ~rng
                  ~schedule:(fun ~delay k -> Sim.Engine.schedule engine ~delay k)
                  ?trace:options.trace ()
              in
              attack_drivers.(me) <- Some driver;
              { handle with
                Dagrider.Node.rbc_bcast =
                  (fun ~payload ~round ->
                    Attack.on_own_vertex driver ~payload ~round) }
        in
        Dagrider.Node.create ~config ~me ~coin ~coin_net:coin_stack.st_port
          ~make_rbc:make_rbc_for_me ~sync_net:sync_stack.st_port
          ~sync_trusting:options.sync_trusting ?trace:options.trace
          ~block_source ~a_deliver ~on_commit ())
  in
  (* wire each driver's protocol brain, and swap in the lying catch-up
     responder where that strategy was picked (Port.register replaces
     the honest handler Node.create installed) *)
  Array.iteri
    (fun i d ->
      match d with
      | None -> ()
      | Some driver ->
        Attack.set_node driver nodes.(i);
        (match List.assoc_opt i adversaries with
        | Some { Attack.strategy = Attack.Lying_sync; _ } ->
          Attack.lying_sync_handler driver ~sync_net:sync_stack.st_port
        | _ -> ()))
    attack_drivers;
  let faulty = Array.make n false in
  let crashed = Array.make n false in
  List.iter
    (fun fault ->
      let i = fault_index fault in
      if i < 0 || i >= n then invalid_arg "Runner.build: fault index out of range";
      faulty.(i) <- true;
      (match fault with
      | Adversary _ ->
        (* the attacker node starts and runs; its deviations were wired
           into its broadcast path at creation time *)
        ()
      | Crash _ | Byzantine_silent _ ->
        crashed.(i) <- true;
        (* a silent process neither proposes nor relays: silence its RBC
           participation and its coin handler entirely *)
        silence rbc_carrier ~drop_in_flight:false i;
        coin_stack.st_carrier.cr_detach i
      | Byzantine_live _ -> ()
      | Byzantine_attacker _ ->
        crashed.(i) <- true (* the honest node never starts... *);
        (* ...but an attacker endpoint takes its place: it keeps the RBC
           relay machinery (created by Node.create above) and injects a
           rotating menu of malicious broadcasts *)
        let handle =
          make_rbc ~me:i ~deliver:(fun ~payload:_ ~round:_ ~source:_ -> ())
        in
        let attack_rng = Stdx.Rng.create (seed + (1_000 * i)) in
        let genesis =
          List.init n (fun source -> { Dagrider.Vertex.round = 0; source })
        in
        let rec attack step =
          (match step mod 4 with
          | 0 ->
            (* undecodable garbage *)
            handle.Dagrider.Node.rbc_bcast
              ~payload:(String.init 40 (fun _ -> Char.chr (Stdx.Rng.int attack_rng 256)))
              ~round:(1 + (step / 4))
          | 1 ->
            (* structurally invalid vertex: too few strong edges *)
            let v =
              { Dagrider.Vertex.round = 1 + (step / 4);
                source = i;
                block = "bad";
                strong_edges = [ List.hd genesis ];
                weak_edges = [] }
            in
            handle.Dagrider.Node.rbc_bcast ~payload:(Dagrider.Vertex.encode v)
              ~round:(1 + (step / 4))
          | 2 ->
            (* equivocation attempt: a second, different payload for a
               round it already used (reliable broadcast must dedupe) *)
            let v =
              { Dagrider.Vertex.round = 1;
                source = i;
                block = Printf.sprintf "equivocation-%d" step;
                strong_edges = genesis;
                weak_edges = [] }
            in
            handle.Dagrider.Node.rbc_bcast ~payload:(Dagrider.Vertex.encode v)
              ~round:1
          | _ ->
            (* edge sources out of range *)
            let v =
              { Dagrider.Vertex.round = 1 + (step / 4);
                source = i;
                block = "";
                strong_edges =
                  List.init 3 (fun k -> { Dagrider.Vertex.round = step / 4; source = n + k });
                weak_edges = [] }
            in
            handle.Dagrider.Node.rbc_bcast ~payload:(Dagrider.Vertex.encode v)
              ~round:(1 + (step / 4)));
          Sim.Engine.schedule engine ~delay:1.0 (fun () -> attack (step + 1))
        in
        Sim.Engine.schedule engine ~delay:0.5 (fun () -> attack 0));
      coin_stack.st_carrier.cr_corrupt ~drop_in_flight:false i)
    options.faults;
  (* deterministic client traffic: one transaction per period per live
     process, injected by recurring engine events — no RNG stream, so a
     workload-driven run is still a pure function of the seed *)
  (match (options.workload, mempools) with
  | Some wl, Some pools ->
    let period = 1.0 /. wl.wl_rate in
    let gens =
      Array.init n (fun me ->
          Workload.Txgen.gen ~owner:me ~body_bytes:wl.wl_body_bytes)
    in
    for me = 0 to n - 1 do
      if not crashed.(me) then begin
        let rec inject () =
          let accepted =
            Workload.Mempool.submit pools.(me) (Workload.Txgen.next_tx gens.(me))
          in
          (match options.trace with
          | Some tr -> Trace.emit tr (Trace.Tx_submitted { node = me; accepted })
          | None -> ignore accepted);
          Sim.Engine.schedule engine ~delay:period inject
        in
        Sim.Engine.schedule engine ~delay:period inject
      end
    done
  | _ -> ());
  (* monitor probes only read state (and the sampler draws no RNG), so —
     like tracing — an attached monitor leaves delivery logs untouched *)
  (match mctx with
  | None -> ()
  | Some mc ->
    let mon = mc.mc_mon in
    let obs = mc.mc_observer in
    Monitor.add_probe mon ~name:"node.delivered" ~kind:Monitor.Counter
      (fun () ->
        float_of_int
          (Dagrider.Ordering.delivered_count
             (Dagrider.Node.ordering nodes.(obs))));
    Monitor.add_probe mon ~name:"commits" ~kind:Monitor.Counter (fun () ->
        float_of_int !(mc.mc_commits));
    Monitor.add_probe mon ~name:"dag.vertices" ~kind:Monitor.Gauge (fun () ->
        float_of_int (Dagrider.Dag.size (Dagrider.Node.dag nodes.(obs))));
    Monitor.add_probe mon ~name:"net.bits" ~kind:Monitor.Counter (fun () ->
        float_of_int (Metrics.Counters.total_bits counters));
    Monitor.add_probe mon ~name:"net.messages" ~kind:Monitor.Counter
      (fun () -> float_of_int (Metrics.Counters.total_messages counters));
    Monitor.add_probe mon ~name:"net.drops" ~kind:Monitor.Counter (fun () ->
        float_of_int
          (List.fold_left
             (fun acc (_, cr) ->
               List.fold_left (fun a (_, c) -> a + c) acc (cr.cr_drop_counts ()))
             0 carriers));
    List.iter
      (fun (stack, cr) ->
        Monitor.add_probe mon ~name:("net.in_flight." ^ stack)
          ~kind:Monitor.Gauge (fun () -> float_of_int (cr.cr_in_flight ()));
        Monitor.add_probe mon ~name:("net.slot_capacity." ^ stack)
          ~kind:Monitor.Gauge (fun () -> float_of_int (cr.cr_slot_capacity ())))
      carriers;
    Monitor.add_probe mon ~name:"engine.events" ~kind:Monitor.Counter
      (fun () -> float_of_int (Sim.Engine.events_executed engine));
    Monitor.add_probe mon ~name:"engine.slot_capacity" ~kind:Monitor.Gauge
      (fun () -> float_of_int (Sim.Engine.slot_capacity engine));
    Monitor.add_probe mon ~name:"engine.buckets" ~kind:Monitor.Gauge
      (fun () -> float_of_int (Sim.Engine.buckets engine));
    Monitor.add_probe mon ~name:"gc.heap_words" ~kind:Monitor.Gauge (fun () ->
        float_of_int (Gc.quick_stat ()).Gc.heap_words);
    (match mempools with
    | None -> ()
    | Some pools ->
      let sum f = Array.fold_left (fun acc p -> acc + f p) 0 pools in
      Monitor.add_probe mon ~name:"tx.submitted" ~kind:Monitor.Counter
        (fun () -> float_of_int (sum Workload.Mempool.submitted));
      (* the observer retires every ordered transaction, its own and
         foreign alike — fleet ordering throughput from one vantage *)
      Monitor.add_probe mon ~name:"tx.ordered" ~kind:Monitor.Counter
        (fun () -> float_of_int (Workload.Mempool.retired pools.(obs)));
      Monitor.add_probe mon ~name:"mempool.pending" ~kind:Monitor.Gauge
        (fun () -> float_of_int (sum Workload.Mempool.pending));
      Monitor.add_probe mon ~name:"mempool.in_flight" ~kind:Monitor.Gauge
        (fun () -> float_of_int (sum Workload.Mempool.in_flight));
      Monitor.add_probe mon ~name:"mempool.rejected" ~kind:Monitor.Counter
        (fun () -> float_of_int (sum Workload.Mempool.rejected)));
    (* critical-path SLO series: the live segment means the streaming
       collector maintains — where each committed vertex's latency went *)
    (match critpath with
    | None -> ()
    | Some cp ->
      List.iter
        (fun (name, kind) ->
          Monitor.add_probe mon ~name ~kind (fun () ->
              match List.assoc_opt name (Critpath.segment_means cp) with
              | Some v -> v
              | None -> 0.0))
        ([ ("critpath.commits", Monitor.Counter);
           ("critpath.reconciled", Monitor.Counter);
           ("critpath.quorum-wait.mean", Monitor.Gauge);
           ("critpath.transit.mean", Monitor.Gauge);
           ("critpath.order-wait.mean", Monitor.Gauge);
           ("critpath.total.mean", Monitor.Gauge) ]
        @
        (* per-tx mempool dwell only exists on workload-driven runs;
           keep workload-free series free of the always-zero column *)
        match mempools with
        | None -> []
        | Some _ -> [ ("critpath.mempool-wait.mean", Monitor.Gauge) ]));
    (match options.trace with
    | None -> ()
    | Some tr -> Monitor.set_trace mon tr);
    Sim.Engine.set_sampler engine ~interval:(Monitor.interval mon)
      (fun ~time ~executed:_ ~pending:_ -> Monitor.sample mon ~now:time));
  { options;
    engine;
    counters;
    coin;
    coin_stack;
    sync_stack;
    make_rbc;
    node_config = config;
    nodes;
    carriers;
    rbc_gauges;
    faulty;
    crashed;
    attack_drivers;
    latency;
    analyzer;
    forensics;
    critpath;
    mempools;
    mctx;
    started = false }

let engine t = t.engine
let counters t = t.counters
let coin t = t.coin
let nodes t = t.nodes
let options t = t.options
let node t i = t.nodes.(i)
let mempools t = t.mempools
let monitor t = t.options.monitor

let is_correct t i = not t.faulty.(i)

let correct_indices t =
  List.filter (is_correct t) (List.init t.options.n (fun i -> i))

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iteri
      (fun i node -> if not t.crashed.(i) then Dagrider.Node.start node)
      t.nodes
  end

let run t ~until =
  start t;
  ignore (Sim.Engine.run t.engine ~until ())

let delivered_logs t =
  Array.map Dagrider.Node.delivered_log t.nodes

let delivered_refs t =
  Array.map
    (fun node -> List.map Dagrider.Vertex.vref_of (Dagrider.Node.delivered_log node))
    t.nodes

let silence_node t ?(drop_in_flight = true) i =
  if i < 0 || i >= t.options.n then invalid_arg "Runner.silence_node: bad index";
  t.faulty.(i) <- true;
  List.iter (fun (_, cr) -> silence cr ~drop_in_flight i) t.carriers

let run_until_delivered t ~count ~max_time =
  start t;
  let done_ () =
    List.for_all
      (fun i ->
        Dagrider.Ordering.delivered_count (Dagrider.Node.ordering t.nodes.(i))
        >= count)
      (correct_indices t)
  in
  let rec loop horizon =
    if done_ () then Some (Sim.Engine.now t.engine)
    else if horizon >= max_time then None
    else begin
      ignore (Sim.Engine.run t.engine ~until:horizon ());
      loop (horizon +. 1.0)
    end
  in
  loop 1.0

(* logs must be prefix-comparable pairwise; comparing everyone against
   the longest log gives the same answer in one pass *)
let check_total_order t =
  let correct = correct_indices t in
  let logs =
    List.map
      (fun i -> (i, Array.of_list (Dagrider.Node.delivered_log t.nodes.(i))))
      correct
  in
  match logs with
  | [] -> Ok ()
  | _ ->
    let _, longest =
      List.fold_left
        (fun ((_, best) as acc) ((_, log) as cand) ->
          if Array.length log > Array.length best then cand else acc)
        (List.hd logs) (List.tl logs)
    in
    let rec check_one = function
      | [] -> Ok ()
      | (i, log) :: rest ->
        let rec cmp j =
          if j >= Array.length log then check_one rest
          else if
            Dagrider.Vertex.vref_of log.(j)
            <> Dagrider.Vertex.vref_of longest.(j)
          then
            Error
              (Printf.sprintf
                 "node %d diverges at position %d: (r=%d,p=%d) vs (r=%d,p=%d)"
                 i j log.(j).Dagrider.Vertex.round log.(j).Dagrider.Vertex.source
                 longest.(j).Dagrider.Vertex.round longest.(j).Dagrider.Vertex.source)
          else cmp (j + 1)
        in
        cmp 0
    in
    check_one logs

let check_integrity t =
  let correct = correct_indices t in
  let rec check_logs = function
    | [] -> Ok ()
    | i :: rest ->
      let log = Dagrider.Node.delivered_log t.nodes.(i) in
      let seen = Hashtbl.create 256 in
      let rec scan = function
        | [] -> check_logs rest
        | v :: vs ->
          let key = Dagrider.Vertex.vref_of v in
          if Hashtbl.mem seen key then
            Error
              (Printf.sprintf "node %d delivered (r=%d,p=%d) twice" i
                 key.Dagrider.Vertex.round key.Dagrider.Vertex.source)
          else begin
            Hashtbl.add seen key ();
            scan vs
          end
      in
      scan log
  in
  check_logs correct

let honest_bits t =
  Metrics.Counters.total_bits_from t.counters ~senders:(is_correct t)

let latency t = t.latency

(* ---- loss diagnostics: aggregate across the three stacks ---- *)

let link_stats t =
  List.fold_left
    (fun acc (_, cr) -> Net.Link.add_stats acc (cr.cr_link_stats ()))
    Net.Link.zero_stats t.carriers

let merge_counts pairs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (key, count) ->
      let cell =
        match Hashtbl.find_opt tbl key with
        | Some cell -> cell
        | None ->
          let cell = ref 0 in
          Hashtbl.add tbl key cell;
          cell
      in
      cell := !cell + count)
    pairs;
  List.sort compare (Hashtbl.fold (fun k cell acc -> (k, !cell) :: acc) tbl [])

let drop_counts t =
  merge_counts (List.concat_map (fun (_, cr) -> cr.cr_drop_counts ()) t.carriers)

let retransmits_by_link t =
  merge_counts (List.concat_map (fun (_, cr) -> cr.cr_retransmits ()) t.carriers)

let net_slots t =
  List.map
    (fun (stack, cr) -> (stack, cr.cr_in_flight (), cr.cr_slot_capacity ()))
    t.carriers

let rbc_instances t =
  Array.fold_left
    (fun (held, dropped) gauge ->
      let h, d = gauge () in
      (held + h, dropped + d))
    (0, 0) t.rbc_gauges

let metrics_snapshot t =
  let reg = Metrics.Registry.create () in
  (* name the commit rule explicitly ("rule.<name>" = 1) so downstream
     tooling doesn't have to infer it from span names like
     order.wave.<rule>, and export the rule's shape next to it *)
  let rule = t.options.rule in
  Metrics.Registry.incr reg ("rule." ^ rule.Dagrider.Ordering.rule_name) ();
  Metrics.Registry.set_gauge reg "rule.wave_length"
    (float_of_int rule.Dagrider.Ordering.rule_wave_length);
  Metrics.Registry.set_gauge reg "rule.waves_bound"
    rule.Dagrider.Ordering.rule_bound;
  Metrics.Registry.set_gauge reg "rule.commit_quorum"
    (float_of_int (Dagrider.Ordering.quorum_of rule ~f:t.options.f));
  Metrics.Registry.incr reg "net.bits.total"
    ~by:(Metrics.Counters.total_bits t.counters) ();
  Metrics.Registry.incr reg "net.bits.honest" ~by:(honest_bits t) ();
  Metrics.Registry.incr reg "net.messages.total"
    ~by:(Metrics.Counters.total_messages t.counters) ();
  List.iter
    (fun (kind, bits) ->
      Metrics.Registry.incr reg ("net.bits." ^ kind) ~by:bits ())
    (Metrics.Counters.bits_by_kind t.counters);
  Metrics.Registry.set_gauge reg "engine.time" (Sim.Engine.now t.engine);
  Metrics.Registry.set_gauge reg "engine.events"
    (float_of_int (Sim.Engine.events_executed t.engine));
  Metrics.Registry.set_gauge reg "engine.pending"
    (float_of_int (Sim.Engine.pending t.engine));
  Metrics.Registry.set_gauge reg "engine.slot_capacity"
    (float_of_int (Sim.Engine.slot_capacity t.engine));
  Metrics.Registry.set_gauge reg "engine.buckets"
    (float_of_int (Sim.Engine.buckets t.engine));
  List.iter
    (fun (stack, in_flight, capacity) ->
      Metrics.Registry.set_gauge reg ("net.in_flight." ^ stack)
        (float_of_int in_flight);
      Metrics.Registry.set_gauge reg ("net.slot_capacity." ^ stack)
        (float_of_int capacity))
    (net_slots t);
  List.iter
    (Metrics.Registry.observe reg "latency.first_delivery")
    (Metrics.Latency.all_first_delivery_latencies t.latency);
  List.iter
    (Metrics.Registry.observe reg "latency.per_process")
    (Metrics.Latency.all_per_process_latencies t.latency);
  Array.iteri
    (fun i node ->
      Metrics.Registry.incr reg (Printf.sprintf "node.%d.delivered" i)
        ~by:(Dagrider.Ordering.delivered_count (Dagrider.Node.ordering node))
        ())
    t.nodes;
  (* bounded-state gauges, summed across processes *)
  let held, dropped = rbc_instances t in
  Metrics.Registry.set_gauge reg "rbc.open_instances" (float_of_int held);
  Metrics.Registry.set_gauge reg "rbc.dropped_below_horizon"
    (float_of_int dropped);
  Metrics.Registry.set_gauge reg "dag.window_rounds"
    (float_of_int
       (Array.fold_left
          (fun acc node ->
            acc + Dagrider.Dag.window_rounds (Dagrider.Node.dag node))
          0 t.nodes));
  List.iter
    (fun (reason, count) ->
      Metrics.Registry.incr reg ("net.drops." ^ reason) ~by:count ())
    (drop_counts t);
  (if t.options.link_faults <> None then
     let { Net.Link.data_sent;
           retransmits;
           gave_up;
           dup_suppressed;
           corrupt_rejected;
           decode_failures } =
       link_stats t
     in
     Metrics.Registry.incr reg "link.data_sent" ~by:data_sent ();
     Metrics.Registry.incr reg "link.retransmits" ~by:retransmits ();
     Metrics.Registry.incr reg "link.gave_up" ~by:gave_up ();
     Metrics.Registry.incr reg "link.dup_suppressed" ~by:dup_suppressed ();
     Metrics.Registry.incr reg "link.corrupt_rejected" ~by:corrupt_rejected ();
     Metrics.Registry.incr reg "link.decode_failures" ~by:decode_failures ());
  (match t.mempools with
  | None -> ()
  | Some pools ->
    let sum f = Array.fold_left (fun acc p -> acc + f p) 0 pools in
    Metrics.Registry.set_gauge reg "mempool.pending"
      (float_of_int (sum Workload.Mempool.pending));
    Metrics.Registry.set_gauge reg "mempool.in_flight"
      (float_of_int (sum Workload.Mempool.in_flight));
    Metrics.Registry.set_gauge reg "mempool.submitted"
      (float_of_int (sum Workload.Mempool.submitted));
    Metrics.Registry.set_gauge reg "mempool.retired"
      (float_of_int (sum Workload.Mempool.retired));
    Metrics.Registry.set_gauge reg "mempool.rejected"
      (float_of_int (sum Workload.Mempool.rejected)));
  (* tracer ring health: nonzero dropped_events means [Trace.events] is
     a suffix of the run — replay-based tools should warn *)
  (match t.options.trace with
  | None -> ()
  | Some tr ->
    Metrics.Registry.set_gauge reg "trace.emitted"
      (float_of_int (Trace.emitted tr));
    Metrics.Registry.set_gauge reg "trace.dropped_events"
      (float_of_int (Trace.dropped tr));
    Metrics.Registry.set_gauge reg "trace.capacity"
      (float_of_int (Trace.capacity tr));
    Metrics.Registry.set_gauge reg "trace.occupancy"
      (float_of_int (Trace.occupancy tr)));
  (match t.critpath with
  | None -> ()
  | Some cp ->
    List.iter
      (fun (name, v) -> Metrics.Registry.set_gauge reg name v)
      (Critpath.segment_means cp));
  let gcs = Gc.quick_stat () in
  Metrics.Registry.set_gauge reg "gc.minor_collections"
    (float_of_int gcs.Gc.minor_collections);
  Metrics.Registry.set_gauge reg "gc.major_collections"
    (float_of_int gcs.Gc.major_collections);
  Metrics.Registry.set_gauge reg "gc.promoted_words" gcs.Gc.promoted_words;
  Metrics.Registry.set_gauge reg "gc.top_heap_words"
    (float_of_int gcs.Gc.top_heap_words);
  (match Prof.installed () with
  | None -> ()
  | Some prof ->
    List.iter
      (fun (r : Prof.row) ->
        let base = "prof." ^ r.Prof.r_name in
        Metrics.Registry.incr reg (base ^ ".calls") ~by:r.Prof.r_count ();
        Metrics.Registry.set_gauge reg (base ^ ".self_s") r.Prof.r_self_s;
        Metrics.Registry.set_gauge reg (base ^ ".total_s") r.Prof.r_total_s;
        Metrics.Registry.set_gauge reg (base ^ ".alloc_bytes")
          r.Prof.r_alloc_bytes;
        List.iter (Metrics.Registry.observe reg base) r.Prof.r_samples)
      (Prof.rows prof));
  Metrics.Registry.snapshot reg

let analysis_config t =
  let byzantine =
    List.filter (fun i -> t.faulty.(i)) (List.init t.options.n (fun i -> i))
  in
  let observer =
    match correct_indices t with i :: _ -> Some i | [] -> Some 0
  in
  { (Analyze.fleet_config ~rule:t.options.rule ~n:t.options.n ~f:t.options.f
       ~byzantine)
    with
    observer }

let analysis t =
  match t.analyzer with
  | None -> None
  | Some acc -> Some (Analyze.finalize ~config:(analysis_config t) acc)

let analysis_report t = Option.map Analyze.report_to_json (analysis t)

let forensics t = t.forensics

let critpath t = t.critpath

let critpath_report t =
  Option.map (fun cp -> Critpath.finalize cp) t.critpath

type attack_report = {
  ar_node : int;
  ar_spec : Attack.spec;
  ar_victims : int list;
  ar_forks : Attack.fork list;
  ar_lies : Attack.lie list;
  ar_actions : int;
}

let attack_reports t =
  let reports = ref [] in
  Array.iteri
    (fun i d ->
      match d with
      | None -> ()
      | Some driver ->
        let spec =
          List.fold_left
            (fun acc fault ->
              match fault with
              | Adversary (j, spec) when j = i -> Some spec
              | _ -> acc)
            None t.options.faults
        in
        let spec =
          match spec with Some s -> s | None -> assert false
        in
        reports :=
          { ar_node = i;
            ar_spec = spec;
            ar_victims = Attack.victims driver;
            ar_forks = Attack.forks driver;
            ar_lies = Attack.lies driver;
            ar_actions = Attack.actions driver }
          :: !reports)
    t.attack_drivers;
  List.rev !reports

let restart_node t i =
  if i < 0 || i >= t.options.n then invalid_arg "Runner.restart_node: bad index";
  if t.crashed.(i) then
    invalid_arg
      "Runner.restart_node: process never started (crashed/silent from \
       genesis) — there is no state to restart from";
  let ck = Dagrider.Node.checkpoint t.nodes.(i) in
  (* serialize and reload, as a disk-backed restart would *)
  let dag =
    match
      Dagrider.Snapshot.dag_of_string
        (Dagrider.Snapshot.dag_to_string ck.Dagrider.Node.ck_dag)
    with
    | Ok d -> d
    | Error e -> invalid_arg ("Runner.restart_node: snapshot corrupt: " ^ e)
  in
  let delivered_refs =
    match
      Dagrider.Snapshot.delivered_of_string
        (Dagrider.Snapshot.delivered_to_string
           (List.map Dagrider.Vertex.vref_of ck.Dagrider.Node.ck_delivered))
    with
    | Ok refs -> refs
    | Error e -> invalid_arg ("Runner.restart_node: delivered log corrupt: " ^ e)
  in
  (* the delivered log is output the application already holds: a vertex
     below the snapshot's horizon is no longer in the DAG, so it comes
     from the log itself *)
  let horizon = Dagrider.Dag.pruned_below dag in
  let ck =
    { Dagrider.Node.ck_dag = dag;
      ck_delivered =
        List.map2
          (fun (r : Dagrider.Vertex.vref) logged ->
            if r.round < horizon then logged
            else Option.get (Dagrider.Dag.find dag r))
          delivered_refs ck.Dagrider.Node.ck_delivered;
      ck_decided_wave = ck.Dagrider.Node.ck_decided_wave;
      ck_round = ck.Dagrider.Node.ck_round }
  in
  let a_deliver, on_commit, block_source =
    node_hooks ~options:t.options ~engine:t.engine ~latency:t.latency
      ~mempools:t.mempools ~mctx:t.mctx ~me:i
  in
  let restored =
    Dagrider.Node.restore ~config:t.node_config ~me:i ~coin:t.coin
      ~coin_net:t.coin_stack.st_port ~make_rbc:t.make_rbc
      ~sync_net:t.sync_stack.st_port
      ~sync_trusting:t.options.sync_trusting ?trace:t.options.trace
      ~block_source
      ~a_deliver ~on_commit ck
  in
  t.nodes.(i) <- restored;
  (* Re-registration ordering: [restore] re-registered i's handlers on
     the shared ports and issued its first sync request before we made
     the instance visible in [t.nodes]. Responses travel through the
     engine queue, so by the time any arrives the swap below has
     happened — this also makes restarting mid-partition legal (the
     requests are just frames; losing them is what the retries below
     are for). The check guards that ordering against refactors. *)
  assert (t.nodes.(i) == restored);
  (* Follow-up syncs collect vertices whose broadcasts straddled the
     restart. The old schedule was a fixed +5/+10 pair — under loss or
     a partition both were often lost, and on a calm network the second
     was redundant. Replace it with seeded exponential backoff + jitter
     + give-up, mirroring Net.Link's retransmit policy. The stream is
     keyed off the run seed and the process index (not split from the
     build-time chain), so replays stay byte-identical and builds
     without restarts draw nothing. *)
  let rng = Stdx.Rng.create ((t.options.seed lxor 0x5bac0ff) + (7919 * i)) in
  let backoff = 1.6 and max_rto = 20.0 and jitter = 0.3 and max_attempts = 6 in
  let jittered d = d *. (1.0 +. (jitter *. Stdx.Rng.float rng 1.0)) in
  (* caught up = no under-populated round between the GC horizon and
     our frontier, and a frontier no further than one round behind the
     live fleet's; rounds below the horizon are empty by pruning *)
  let caught_up () =
    let node = t.nodes.(i) in
    let dag = Dagrider.Node.dag node in
    let hi = Dagrider.Dag.highest_round dag in
    let quorum = t.options.n - t.options.f in
    let rec hole r =
      if r >= hi then false
      else if Dagrider.Dag.round_size dag r < quorum then true
      else hole (r + 1)
    in
    let fleet_hi = ref 0 in
    Array.iteri
      (fun j other ->
        if j <> i && (not t.faulty.(j)) && not t.crashed.(j) then
          fleet_hi :=
            max !fleet_hi
              (Dagrider.Dag.highest_round (Dagrider.Node.dag other)))
      t.nodes;
    (not (hole (max 1 (Dagrider.Dag.pruned_below dag)))) && hi + 1 >= !fleet_hi
  in
  let emit kind =
    match t.options.trace with
    | None -> ()
    | Some tr -> Trace.emit tr kind
  in
  let rec retry ~attempt ~rto =
    if caught_up () then ()
    else if attempt > max_attempts then
      emit (Trace.Sync_gave_up { node = i; attempts = max_attempts })
    else begin
      let node = t.nodes.(i) in
      emit
        (Trace.Sync_retry
           { node = i;
             attempt;
             from_round =
               Dagrider.Dag.highest_round (Dagrider.Node.dag node) + 1 });
      if Dagrider.Node.request_sync node then begin
        let next_rto = min max_rto (rto *. backoff) in
        Sim.Engine.schedule t.engine ~delay:(jittered next_rto) (fun () ->
            retry ~attempt:(attempt + 1) ~rto:next_rto)
      end
    end
  in
  Sim.Engine.schedule t.engine ~delay:(jittered 3.0) (fun () ->
      retry ~attempt:1 ~rto:3.0)
