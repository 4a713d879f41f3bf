type backend = Bracha | Avid | Gossip

type schedule =
  | Synchronous
  | Uniform_random
  | Skewed_random
  | Custom of (Stdx.Rng.t -> Net.Sched.t)

type fault =
  | Crash of int
  | Byzantine_live of int
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

type monitor_ctx = {
  mc_mon : Monitor.t;
  mc_observer : int; (* lowest never-faulty process: the vantage point *)
  mc_commits : int ref; (* direct+chained commits seen at the observer *)
}

type t = {
  options : options;
  engine : Sim.Engine.t;
  counters : Metrics.Counters.t;
  coin : Crypto.Threshold_coin.t;
  make_node : make_rbc:Dagrider.Node.rbc_factory -> int -> Dagrider.Node.t;
  honest_rbc : Dagrider.Node.rbc_factory;
  nodes : Dagrider.Node.t array;
  carriers : (string * carrier) list; (* coin, sync, rbc *)
  rbc_instances : unit -> int * int; (* open instances, drops *)
  faulty : bool array;  (* counted as Byzantine *)
  crashed : bool array; (* additionally, never started *)
  attack_drivers : Attack.t option array; (* per-process, iff Adversary *)
  latency : Metrics.Latency.t;
  analyzer : Analyze.t option; (* the trace's one sink, iff traced *)
  mempools : Workload.Mempool.t array option; (* iff workload-driven *)
  mutable started : bool;
  (* the process's GC counters when [start] ran: read there, not in
     [build], because one [Gc.quick_stat] costs nearly a third of an
     n=4 build *)
  mutable gc_at_start : Gc.stat option;
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

let traced_network ~engine ~sched ~counters ~n trace =
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  (match trace with None -> () | Some tr -> Net.Network.set_trace net tr);
  net

let silence cr ~drop_in_flight i =
  cr.cr_corrupt ~drop_in_flight i;
  cr.cr_detach i

let fault_index = function Crash i | Byzantine_live i | Adversary (i, _) -> i

let fault_of options i =
  List.find_opt (fun fault -> fault_index fault = i) options.faults

(* every index in range and no process named twice *)
let rec check_faults ~n = function
  | [] -> Ok ()
  | fault :: rest ->
    let i = fault_index fault in
    if i < 0 || i >= n then
      Error (Printf.sprintf "fault index %d out of range (n = %d)" i n)
    else if List.exists (fun other -> fault_index other = i) rest then
      Error (Printf.sprintf "process %d is named by two faults" i)
    else check_faults ~n rest

let validate options =
  let { n; f; _ } = options in
  if n < 1 || f < 0 then Error "bad n/f"
  else
    Result.bind (check_faults ~n options.faults) (fun () ->
        match (options.workload, options.link_faults) with
        | Some wl, _ when wl.wl_rate <= 0.0 -> Error "wl_rate must be positive"
        | _, Some lf when lf.lf_drop >= 1.0 -> Error "lf_drop must be < 1"
        | _ -> Ok ())

(* the vantage point for observer-anchored collectors: the lowest
   process no declared fault touches (mid-run silencing can still
   corrupt it — the monitor's observer has the same caveat) *)
let vantage options =
  let rec first i =
    if i >= options.n then 0
    else if Option.is_none (fault_of options i) then i
    else first (i + 1)
  in
  first 0

(* The run's RNG streams split from one root seeded by [seed], in a fixed
   order: the schedule's, the dealer coin's, gossip's, then — only for
   runs that declare them, so other runs draw exactly what they always
   did — the lossy links' and the adversaries'. *)
let seed_streams seed =
  let root = Stdx.Rng.create seed in
  let sched = Stdx.Rng.split root in
  let coin = Stdx.Rng.split root in
  (root, sched, coin)

let dealer_coin ~seed ~n ~f =
  let _, _, coin = seed_streams seed in
  Crypto.Threshold_coin.setup ~rng:coin ~n ~f

let make_sched ~schedule ~rng =
  match schedule with
  | Synchronous -> Net.Sched.synchronous ()
  | Uniform_random -> Net.Sched.uniform_random ~rng
  | Skewed_random -> Net.Sched.skewed_random ~rng
  | Custom f -> f rng

(* Deterministic synthetic block: identifies its proposer and round, and
   pads to the requested size so communication accounting is realistic. *)
let synthetic_block ~block_bytes ~me ~round =
  (* "blk:p<me>:r<round>:" padded with 'x', written once *)
  let tag = Stdx.Decimal.length me + Stdx.Decimal.length round + 8 in
  let b = Bytes.create (max tag block_bytes) in
  Bytes.blit_string "blk:p" 0 b 0 5;
  let pos = Stdx.Decimal.write b ~pos:5 me in
  Bytes.blit_string ":r" 0 b pos 2;
  let pos = Stdx.Decimal.write b ~pos:(pos + 2) round in
  Bytes.set b pos ':';
  Bytes.fill b (pos + 1) (Bytes.length b - pos - 1) 'x';
  Bytes.unsafe_to_string b

(* The three per-node closures every node is made with (see
   [node_maker]), so a restarted node keeps the workload/monitor wiring
   of the original. With no workload and no monitor the closures reduce
   to the historical
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

(* ---- stage: transport stacks ---- *)

(* A reliable-broadcast backend, described once: its wire codec, how a
   process opens its endpoint on the stack's port, and what [build]
   reads or drives on it. *)
module type Rbc_backend = sig
  type t
  type msg
  val encode_msg : msg -> string
  val decode_msg : string -> msg option
  val open_port : port:msg Net.Port.t -> gossip_rng:Stdx.Rng.t -> me:int ->
    f:int -> deliver:Rbc.Rbc_intf.deliver -> t
  val set_trace : t -> Trace.t -> unit
  val bcast : t -> payload:string -> round:int -> unit
  val prune_below : t -> round:int -> unit
  val open_instances : t -> int
  val dropped_below_horizon : t -> int
  val send : t -> dsts:int list -> round:int -> payload:string -> unit
end

module Bracha_rbc : Rbc_backend = struct
  include Rbc.Bracha
  let open_port ~port ~gossip_rng:_ ~me ~f ~deliver =
    create_port ~port ~me ~f ~deliver
  let send b ~dsts ~round ~payload =
    List.iter (fun dst -> inject_init b ~dst ~round ~payload) dsts
end

module Avid_rbc : Rbc_backend = struct
  include Rbc.Avid
  let open_port ~port ~gossip_rng:_ ~me ~f ~deliver =
    create_port ~port ~me ~f ~deliver
  let send = inject_disperse
end

module Gossip_rbc : Rbc_backend = struct
  include Rbc.Gossip
  (* each endpoint samples its peers from its own split of the stream *)
  let open_port ~port ~gossip_rng ~me ~f ~deliver =
    create_port ~port ~rng:(Stdx.Rng.split gossip_rng) ~me ~f ~deliver
  let send g ~dsts ~round ~payload =
    List.iter (fun dst -> inject_gossip g ~dst ~round ~payload) dsts
end

type stacks = {
  coin_stack : Dagrider.Node.coin_msg stack;
  sync_stack : Dagrider.Node.sync_msg stack;
  rbc_carrier : carrier;
  honest_rbc : Dagrider.Node.rbc_factory;
  armed_rbc :
    me:int ->
    deliver:Rbc.Rbc_intf.deliver ->
    Dagrider.Node.rbc_handle * (dsts:int list -> round:int -> payload:string -> unit);
      (* an adversary's endpoint: its handle, and the backend's targeted
         send (Bracha Init, AVID dispersal, Gossip seed toward chosen
         destinations) — its arsenal *)
  rbc_instances : unit -> int * int;
      (* the endpoints' open instances and drops, summed *)
}

(* One transport stack per protocol; same engine/schedule/counters, so
   semantically a single multiplexed network. Direct mode builds the
   reliable network the harness always used; lossy mode interposes a
   fault-injected frame network with one {!Net.Link} endpoint per
   process. Stacks are created in a fixed order (coin, sync, rbc) and
   every lossy RNG derives from the lossy stream in creation order, so
   lossy executions stay pure functions of the seed. *)
let make_stacks options ~engine ~sched ~counters ~gossip_rng ~lossy =
  let { n; f; trace; _ } = options in
  let make_stack (type msg) ~(encode : msg -> string)
      ~(decode : string -> msg option) : msg stack =
    match lossy with
    | None ->
      let net = traced_network ~engine ~sched ~counters ~n trace in
      { st_port = Net.Port.of_network net; st_carrier = network_carrier net }
    | Some (lf, lrng) ->
      let net : msg Net.Link.frame Net.Network.t =
        traced_network ~engine ~sched ~counters ~n trace
      in
      Net.Network.set_faults net
        (Net.Faults.lossy ~rng:(Stdx.Rng.split lrng) ~drop:lf.lf_drop
           ~duplicate:lf.lf_duplicate ~corrupt:lf.lf_corrupt
           ~reorder:lf.lf_reorder ());
      Net.Network.set_corrupter net
        (Net.Link.corrupt_frame ~rng:(Stdx.Rng.split lrng));
      let wire = Net.Link.wire net ~encode ~decode in
      let links =
        Array.init n (fun me ->
            Net.Link.attach ~wire ~engine ~rng:(Stdx.Rng.split lrng) ?trace ~me
              ())
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
  let (module B : Rbc_backend) =
    match options.backend with
    | Bracha -> (module Bracha_rbc)
    | Avid -> (module Avid_rbc)
    | Gossip -> (module Gossip_rbc)
  in
  let rbc_stack = make_stack ~encode:B.encode_msg ~decode:B.decode_msg in
  (* per process, its latest endpoint (a restart opens a new one) *)
  let endpoints = Array.make n None in
  let open_port ~me ~deliver =
    let b = B.open_port ~port:rbc_stack.st_port ~gossip_rng ~me ~f ~deliver in
    (match trace with None -> () | Some tr -> B.set_trace b tr);
    endpoints.(me) <- Some b;
    b
  in
  let handle b =
    { Dagrider.Node.rbc_bcast = (fun ~payload ~round -> B.bcast b ~payload ~round);
      rbc_prune_below = B.prune_below b }
  in
  { coin_stack;
    sync_stack;
    rbc_carrier = rbc_stack.st_carrier;
    honest_rbc = (fun ~me ~deliver -> handle (open_port ~me ~deliver));
    armed_rbc =
      (fun ~me ~deliver ->
        let b = open_port ~me ~deliver in
        (handle b, B.send b));
    rbc_instances =
      (fun () ->
        Array.fold_left
          (fun ((held, dropped) as acc) -> function
            | None -> acc
            | Some b ->
              (held + B.open_instances b, dropped + B.dropped_below_horizon b))
          (0, 0) endpoints) }

(* ---- stage: nodes ---- *)

(* The one place a node is made: [build] makes every process here, and
   [restart_node] remakes one (with the honest RBC factory), so a
   restarted process keeps its original's config, ports and hooks. *)
let node_maker options ~engine ~coin ~stacks ~latency ~mempools ~mctx =
  let config =
    { Dagrider.Node.n = options.n;
      f = options.f;
      rule = options.rule;
      enable_weak_edges = options.enable_weak_edges;
      gc_depth = options.gc_depth;
      coin_mode =
        (if options.coin_in_dag then Dagrider.Node.In_dag
         else Dagrider.Node.Separate_network) }
  in
  fun ~make_rbc me ->
    let a_deliver, on_commit, block_source =
      node_hooks ~options ~engine ~latency ~mempools ~mctx ~me
    in
    Dagrider.Node.create ~config ~me ~coin ~coin_net:stacks.coin_stack.st_port
      ~make_rbc ~sync_net:stacks.sync_stack.st_port
      ~sync_trusting:options.sync_trusting ?trace:options.trace ~block_source
      ~a_deliver ~on_commit ()

let ignore_deliver ~payload:_ ~round:_ ~source:_ = ()

(* process [me]'s attack driver, acting through its armed endpoint *)
let make_driver options ~engine ~drivers ~rng ~me spec (handle, send) =
  let arsenal =
    { Attack.ars_n = options.n;
      ars_f = options.f;
      ars_me = me;
      ars_send = send;
      ars_bcast =
        (fun ~round ~payload -> handle.Dagrider.Node.rbc_bcast ~payload ~round) }
  in
  let driver =
    Attack.create ~spec ~arsenal ~rng
      ~schedule:(fun ~delay k -> Sim.Engine.schedule engine ~delay k)
      ?trace:options.trace ()
  in
  drivers.(me) <- Some driver;
  driver

(* An adaptive adversary runs a node made like any other, but its own
   broadcasts detour through the attack driver, which decides what
   actually hits the wire. Drivers split their streams off the
   adversary stream in process order. *)
let adversary_rbc options ~engine ~stacks ~drivers ~adversary_rng spec :
    Dagrider.Node.rbc_factory =
 fun ~me ~deliver ->
  let ((handle, _) as armed) = stacks.armed_rbc ~me ~deliver in
  let driver =
    make_driver options ~engine ~drivers ~rng:(Stdx.Rng.split adversary_rng)
      ~me spec armed
  in
  { handle with
    Dagrider.Node.rbc_bcast =
      (fun ~payload ~round -> Attack.on_own_vertex driver ~payload ~round) }

(* ---- stage: faults, in the order [options.faults] lists them ---- *)

let rec wire_faults options ~engine ~stacks ~nodes ~drivers ~faulty ~crashed =
  function
  | [] -> ()
  | fault :: rest ->
    let i = fault_index fault in
    let coin = stacks.coin_stack.st_carrier in
    faulty.(i) <- true;
    (match fault with
    | Byzantine_live _ -> ()
    | Crash _ ->
      (* a crashed process neither proposes nor relays: silence its RBC
         participation and its coin handler entirely *)
      crashed.(i) <- true;
      silence stacks.rbc_carrier ~drop_in_flight:false i;
      coin.cr_detach i
    | Adversary (_, spec) ->
      let driver =
        match spec.Attack.strategy with
        | Attack.Fuzz ->
          (* a fuzz process's node never starts: a second endpoint that
             delivers to nobody replaces the node's on the port, so the
             process relays without hearing, and its driver sprays
             through it from a stream keyed by seed and process *)
          crashed.(i) <- true;
          make_driver options ~engine ~drivers
            ~rng:(Stdx.Rng.create (options.seed + (1_000 * i)))
            ~me:i spec
            (stacks.armed_rbc ~me:i ~deliver:ignore_deliver)
        | _ -> Option.get drivers.(i)
      in
      Attack.arm driver ~node:nodes.(i) ~sync_net:stacks.sync_stack.st_port);
    coin.cr_corrupt ~drop_in_flight:false i;
    wire_faults options ~engine ~stacks ~nodes ~drivers ~faulty ~crashed rest

(* ---- stage: clients ---- *)

(* deterministic client traffic: one transaction per period per live
   process, injected by recurring engine events — no RNG stream, so a
   workload-driven run is still a pure function of the seed *)
let start_clients options ~engine ~mempools ~crashed =
  match (options.workload, mempools) with
  | Some wl, Some pools ->
    let period = 1.0 /. wl.wl_rate in
    let gens =
      Array.init options.n (fun me ->
          Workload.Txgen.gen ~owner:me ~body_bytes:wl.wl_body_bytes)
    in
    (* one callback for every process's ticks, called with the process:
       a tick builds no closure *)
    let rec inject me =
      let accepted =
        Workload.Mempool.submit pools.(me) (Workload.Txgen.next_tx gens.(me))
      in
      (match options.trace with
      | Some tr -> Trace.emit tr (Trace.Tx_submitted { node = me; accepted })
      | None -> ignore accepted);
      Sim.Engine.schedule_call engine ~delay:period inject me
    in
    for me = 0 to options.n - 1 do
      if not crashed.(me) then
        Sim.Engine.schedule_call engine ~delay:period inject me
    done
  | _ -> ()

(* ---- stage: observers ---- *)

(* A traced run streams into one sink, the protocol analyzer, so
   [analysis] covers the whole run even when the ring wraps. It feeds
   the certificate ledger and the critical-path collector, which
   streams at the vantage process so its segment gauges stay O(1) to
   read mid-run. A monitor gets its probes and its sampler.
   All of them only read state and the sampler draws no RNG, so delivery
   logs are the same with and without them; nothing emits while [build]
   runs, so wiring them last misses no event. *)
let observe options ~engine ~counters ~nodes ~carriers ~mempools ~mctx ~vantage =
  let analyzer =
    match options.trace with
    | None -> None
    | Some tr ->
      let analyzer = Analyze.create ~observer:vantage () in
      Trace.add_sink tr (Analyze.feed analyzer);
      Some analyzer
  in
  (match mctx with
  | None -> ()
  | Some mc ->
    let mon = mc.mc_mon in
    let obs = mc.mc_observer in
    let probe name kind read =
      Monitor.add_probe mon ~name ~kind (fun () -> float_of_int (read ()))
    in
    probe "node.delivered" Monitor.Counter (fun () ->
        Dagrider.Ordering.delivered_count (Dagrider.Node.ordering nodes.(obs)));
    probe "commits" Monitor.Counter (fun () -> !(mc.mc_commits));
    probe "dag.vertices" Monitor.Gauge (fun () ->
        Dagrider.Dag.size (Dagrider.Node.dag nodes.(obs)));
    probe "net.bits" Monitor.Counter (fun () ->
        Metrics.Counters.total_bits counters);
    probe "net.messages" Monitor.Counter (fun () ->
        Metrics.Counters.total_messages counters);
    probe "net.drops" Monitor.Counter (fun () ->
        List.fold_left
          (fun acc (_, cr) ->
            List.fold_left (fun a (_, c) -> a + c) acc (cr.cr_drop_counts ()))
          0 carriers);
    List.iter
      (fun (stack, cr) ->
        probe ("net.in_flight." ^ stack) Monitor.Gauge cr.cr_in_flight;
        probe ("net.slot_capacity." ^ stack) Monitor.Gauge cr.cr_slot_capacity)
      carriers;
    probe "engine.events" Monitor.Counter (fun () ->
        Sim.Engine.events_executed engine);
    probe "engine.slot_capacity" Monitor.Gauge (fun () ->
        Sim.Engine.slot_capacity engine);
    probe "engine.buckets" Monitor.Gauge (fun () -> Sim.Engine.buckets engine);
    probe "gc.heap_words" Monitor.Gauge (fun () ->
        (Gc.quick_stat ()).Gc.heap_words);
    (match mempools with
    | None -> ()
    | Some pools ->
      let sum f () = Array.fold_left (fun acc p -> acc + f p) 0 pools in
      probe "tx.submitted" Monitor.Counter (sum Workload.Mempool.submitted);
      (* the observer retires every ordered transaction, its own and
         foreign alike — fleet ordering throughput from one vantage *)
      probe "tx.ordered" Monitor.Counter (fun () ->
          Workload.Mempool.retired pools.(obs));
      probe "mempool.pending" Monitor.Gauge (sum Workload.Mempool.pending);
      probe "mempool.in_flight" Monitor.Gauge (sum Workload.Mempool.in_flight);
      probe "mempool.rejected" Monitor.Counter (sum Workload.Mempool.rejected));
    (* critical-path SLO series: the live segment means the streaming
       collector maintains — where each committed vertex's latency went *)
    (match analyzer with
    | None -> ()
    | Some analyzer ->
      let cp = Analyze.critpath analyzer in
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
  analyzer

(* ---- build: the stages in order ---- *)

let build options =
  (match validate options with
  | Ok () -> ()
  | Error e -> invalid_arg ("Runner.build: " ^ e));
  let { n; f; seed; _ } = options in
  let root, sched_rng, coin_rng = seed_streams seed in
  let gossip_rng = Stdx.Rng.split root in
  let lossy =
    match options.link_faults with
    | None -> None
    | Some lf -> Some (lf, Stdx.Rng.split root)
  in
  let adversary_rng =
    if List.exists (function Adversary _ -> true | _ -> false) options.faults
    then Some (Stdx.Rng.split root)
    else None
  in
  let engine = Sim.Engine.create () in
  (* the trace's engine samples are scheduled before anything else, so
     each keeps its place among the events due at the same time *)
  (match options.trace with
  | None -> ()
  | Some tr ->
    Trace.set_clock tr (fun () -> Sim.Engine.now engine);
    Sim.Engine.set_sampler engine ~interval:1.0
      (fun ~time:_ ~executed ~pending ->
        Trace.emit tr (Trace.Engine_sample { executed; pending })));
  let counters = Metrics.Counters.create () in
  let sched = make_sched ~schedule:options.schedule ~rng:sched_rng in
  let coin =
    match options.coin_override with
    | Some coin -> coin
    | None -> Crypto.Threshold_coin.setup ~rng:coin_rng ~n ~f
  in
  let stacks = make_stacks options ~engine ~sched ~counters ~gossip_rng ~lossy in
  let latency = Metrics.Latency.create () in
  let mempools =
    match options.workload with
    | None -> None
    | Some wl ->
      Some
        (Array.init n (fun me ->
             Workload.Mempool.create ~max_batch:wl.wl_max_batch
               ?max_pending:wl.wl_max_pending ~owner:me ()))
  in
  let vantage = vantage options in
  let mctx =
    match options.monitor with
    | None -> None
    | Some mon -> Some { mc_mon = mon; mc_observer = vantage; mc_commits = ref 0 }
  in
  let make_node =
    node_maker options ~engine ~coin ~stacks ~latency ~mempools ~mctx
  in
  let attack_drivers = Array.make n None in
  let nodes =
    Array.init n (fun me ->
        match (fault_of options me, adversary_rng) with
        | Some (Adversary (_, spec)), Some adversary_rng
          when spec.Attack.strategy <> Attack.Fuzz ->
          make_node me
            ~make_rbc:
              (adversary_rbc options ~engine ~stacks ~drivers:attack_drivers
                 ~adversary_rng spec)
        | _ -> make_node ~make_rbc:stacks.honest_rbc me)
  in
  let faulty = Array.make n false in
  let crashed = Array.make n false in
  wire_faults options ~engine ~stacks ~nodes ~drivers:attack_drivers ~faulty
    ~crashed options.faults;
  start_clients options ~engine ~mempools ~crashed;
  let carriers =
    [ ("coin", stacks.coin_stack.st_carrier);
      ("sync", stacks.sync_stack.st_carrier);
      ("rbc", stacks.rbc_carrier) ]
  in
  let analyzer =
    observe options ~engine ~counters ~nodes ~carriers ~mempools ~mctx ~vantage
  in
  { options;
    engine;
    counters;
    coin;
    make_node;
    honest_rbc = stacks.honest_rbc;
    nodes;
    carriers;
    rbc_instances = stacks.rbc_instances;
    faulty;
    crashed;
    attack_drivers;
    latency;
    analyzer;
    mempools;
    started = false;
    gc_at_start = None }

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
    t.gc_at_start <- Some (Gc.quick_stat ());
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

let rbc_instances (t : t) = t.rbc_instances ()

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
    Metrics.Registry.set_gauge reg "mempool.retained"
      (float_of_int (sum Workload.Mempool.retained));
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
  (match t.analyzer with
  | None -> ()
  | Some analyzer ->
    List.iter
      (fun (name, v) -> Metrics.Registry.set_gauge reg name v)
      (Critpath.segment_means (Analyze.critpath analyzer)));
  (* collections and promotion since this fleet started (none before),
     so a fleet run after others in one process leaves theirs out; the
     top heap is the process's high-water mark, which no difference can
     split by fleet *)
  let gcs = Gc.quick_stat () in
  let base = Option.value t.gc_at_start ~default:gcs in
  Metrics.Registry.set_gauge reg "gc.minor_collections"
    (float_of_int (gcs.Gc.minor_collections - base.Gc.minor_collections));
  Metrics.Registry.set_gauge reg "gc.major_collections"
    (float_of_int (gcs.Gc.major_collections - base.Gc.major_collections));
  Metrics.Registry.set_gauge reg "gc.promoted_words"
    (gcs.Gc.promoted_words -. base.Gc.promoted_words);
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

let analyzer t = t.analyzer

let analysis t =
  Option.map (Analyze.finalize ~config:(analysis_config t)) t.analyzer

let analysis_report t = Option.map Analyze.report_to_json (analysis t)

type attack_report = {
  ar_node : int;
  ar_spec : Attack.spec;
  ar_victims : int list;
  ar_forks : Attack.fork list;
  ar_lies : Attack.lie list;
  ar_actions : int;
}

let attack_reports t =
  List.filter_map
    (fun i ->
      Option.map
        (fun driver ->
          { ar_node = i;
            ar_spec = Attack.spec driver;
            ar_victims = Attack.victims driver;
            ar_forks = Attack.forks driver;
            ar_lies = Attack.lies driver;
            ar_actions = Attack.actions driver })
        t.attack_drivers.(i))
    (List.init t.options.n Fun.id)

let restart_node t i =
  if i < 0 || i >= t.options.n then invalid_arg "Runner.restart_node: bad index";
  if t.crashed.(i) then
    invalid_arg
      "Runner.restart_node: process never started (crashed or fuzzing \
       from genesis) — there is no state to restart from";
  (match fault_of t.options i with
  | Some (Adversary _) ->
    invalid_arg
      "Runner.restart_node: process is an adaptive adversary — a restart \
       would rebuild it honest while it still counts as Byzantine"
  | Some (Crash _ | Byzantine_live _) | None -> ());
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
  let restored = t.make_node ~make_rbc:t.honest_rbc i in
  Dagrider.Node.restore restored ck;
  t.nodes.(i) <- restored;
  (* Re-registration ordering: [make_node] re-registered i's handlers on
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
  let { Net.Link.rto; backoff; max_rto; jitter; _ } = Net.Link.default_config in
  let max_attempts = 6 in
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
  Sim.Engine.schedule t.engine ~delay:(jittered rto) (fun () ->
      retry ~attempt:1 ~rto)
