(** Simulation harness: builds a fleet of DAG-Rider nodes over one
    engine and runs deterministic executions.

    Everything — tests, examples, experiment benches — goes through this
    module so that the wiring (networks per backend, coin setup, seeded
    RNG streams, fault injection) lives in exactly one place. A run is
    fully determined by its {!options}. *)

type backend = Bracha | Avid | Gossip

type schedule =
  | Synchronous
  | Uniform_random
  | Skewed_random
  | Custom of (Stdx.Rng.t -> Net.Sched.t)

type fault =
  | Crash of int
      (** Never starts, never relays and never sends: its RBC and coin
          handlers are detached, and it is counted as Byzantine. *)
  | Byzantine_live of int
      (** Runs the protocol honestly but is counted as Byzantine —
          models a Byzantine process whose best strategy is to
          participate (e.g. to place its blocks in the order); used by
          the chain-quality experiment. *)
  | Adversary of int * Attack.spec
      (** A compromised process driven by an {!Attack} strategy. The
          adaptive strategies run the {e real} node — real DAG, wire
          codecs and coin — but detour its own-vertex broadcasts and,
          under [Lying_sync], its catch-up answers. [Fuzz] never starts
          its node: its RBC endpoint keeps relaying while it sprays
          malformed payloads. Adaptive drivers get RNG streams split
          after every other one, so attack-free runs replay
          byte-identically. *)

val fault_index : fault -> int
(** The process a fault names. *)

type link_faults = {
  lf_drop : float;  (** per-message loss probability *)
  lf_duplicate : float;  (** per-message duplication probability *)
  lf_corrupt : float;  (** per-message bit-corruption probability *)
  lf_reorder : float;  (** per-message extra-delay (reordering) probability *)
}
(** Per-link fault rates applied to every frame of every protocol stack
    (see {!Net.Faults.lossy}). *)

val default_link_faults : link_faults
(** All rates 0.0 — a convenient base for [{ default_link_faults with
    lf_drop = ... }]. *)

type workload = {
  wl_rate : float;  (** transactions per time unit per live process *)
  wl_body_bytes : int;  (** transaction payload size *)
  wl_max_batch : int;  (** mempool batch cap per assembled block *)
  wl_max_pending : int option;  (** mempool backpressure cap (default none) *)
}
(** Sustained client load: with [workload = Some _] every live process
    gets a {!Workload.Mempool} fed by a deterministic per-process
    transaction stream (recurring engine events, no RNG), its
    [block_source] assembles real batches instead of synthetic padding
    blocks, and every a_deliver retires the delivered block's
    transactions — the closed loop the throughput-over-time curves are
    measured on. *)

val default_workload : workload
(** 20 tx/unit/process, 32-byte bodies, batches of 64, no cap. *)

type options = {
  n : int;
  f : int;
  seed : int;
  backend : backend;
  schedule : schedule;
  block_bytes : int; (** synthetic block payload size (0 = empty) *)
  rule : Dagrider.Ordering.rule;
      (** the commit rule the fleet orders with
          ({!Dagrider.Ordering.dag_rider} by default) — the only place
          the wave length and the commit quorum are set. The coin
          cadence derives from it ({!Dagrider.Ordering.coin_wave_length}),
          so the DAG/RBC/coin substrate is the same under both stock
          rules: two builds differing only in [rule] produce
          byte-identical DAGs and message schedules. *)
  enable_weak_edges : bool;
  gc_depth : int option;
  coin_in_dag : bool;
      (** use the paper's footnote-1 coin (shares ride vertices; no
          separate coin messages) *)
  coin_override : Crypto.Threshold_coin.t option;
      (** supply an externally generated coin (e.g. the output of an
          {!Adkg} ceremony) instead of the default trusted-dealer setup *)
  on_deliver :
    (node:int -> block:string -> round:int -> source:int -> time:float -> unit)
    option;
      (** observe every a_deliver with its virtual timestamp (latency
          experiments); [None] costs nothing *)
  on_commit : (node:int -> Dagrider.Ordering.commit -> unit) option;
      (** observe every committed wave leader at every node (the swarm
          checker's leader-support oracle); [None] costs nothing *)
  faults : fault list;
  link_faults : link_faults option;
      (** [Some lf] breaks the §2 reliable-link assumption: every
          protocol stack (RBC, coin, sync) runs over {!Net.Link}
          ack/retransmit endpoints on a fault-injected frame network
          with [lf]'s per-message rates. [None] (the default) keeps the
          historical direct wiring — no extra RNG streams, no frame
          overhead, delivered logs byte-identical to builds predating
          the lossy transport. *)
  sync_trusting : bool;
      (** deliberately weaken every node's catch-up admission back to
          trusting any single sync responder (the pre-hardening
          behavior). Exists {e only} for the checker's
          planted-vulnerability self-test, which proves the oracles
          flag a corrupted catch-up; never set it in an experiment. *)
  trace : Trace.t option;
      (** record structured events from every layer — network
          sends/recvs, RBC phases, DAG/round progress, coin flips,
          leader elections, commits, a_delivers, plus a periodic engine
          sample. [build] wires the tracer's clock to the engine and
          fans it out to every network, RBC instance, and node. [None]
          (the default) installs nothing: the run's event schedule and
          delivered logs are identical to a build without tracing. *)
  workload : workload option;
      (** drive the fleet with sustained client traffic (see
          {!workload}); [None] (the default) keeps the historical
          synthetic-block proposals *)
  monitor : Monitor.t option;
      (** attach a time-series flight recorder: [build] registers probes
          over the lowest never-faulty process's node ([node.delivered],
          [commits], [dag.vertices]), the shared network counters
          ([net.bits]/[net.messages]/[net.drops]), each stack's
          in-flight gauges ([net.in_flight.<stack>]/
          [net.slot_capacity.<stack>], see {!net_slots}), the engine
          ([engine.events], [engine.slot_capacity], [engine.buckets]),
          the GC,
          and — when a workload is on — the mempool fleet
          ([tx.submitted], [tx.ordered], [mempool.pending]/[in_flight]/
          [rejected]); feeds proposal→a_deliver latencies observed at
          that process into the sliding-window percentiles; arms the
          engine sampler at the monitor's interval; and, when a tracer
          is also installed, routes SLO health transitions into it.
          Probes only read state and the sampler draws no randomness, so
          delivery logs are byte-identical with and without a monitor.
          [None] (the default) installs nothing. *)
}

val default_options : n:int -> options
(** [f = (n-1)/3], seed 42, Bracha backend, uniform-random schedule,
    32-byte blocks, the paper's rule and wave parameters, no faults. *)

type t

val validate : options -> (unit, string) result
(** The checks {!build} makes before wiring anything: [n]/[f], a fault
    list with an index out of range or a process named twice, [wl_rate]
    and [lf_drop]. [Error] names the first that fails — what a front end
    reports as a usage error. *)

val build : options -> t
(** @raise Invalid_argument when {!validate} fails, with its message. *)

val make_sched : schedule:schedule -> rng:Stdx.Rng.t -> Net.Sched.t
(** The message schedule [build] makes for [schedule] from the run's
    scheduler stream [rng]. *)

val dealer_coin : seed:int -> n:int -> f:int -> Crypto.Threshold_coin.t
(** The trusted-dealer coin [build] sets up for [seed] when
    [coin_override] is [None]: the same RNG stream, so a caller can
    predict the leaders a run will elect. *)

val engine : t -> Sim.Engine.t
val counters : t -> Metrics.Counters.t
val coin : t -> Crypto.Threshold_coin.t
val nodes : t -> Dagrider.Node.t array
val options : t -> options

val node : t -> int -> Dagrider.Node.t

val mempools : t -> Workload.Mempool.t array option
(** The per-process transaction pools, iff built with a workload. *)

val monitor : t -> Monitor.t option
(** The attached flight recorder, iff one was passed in the options. *)

val is_correct : t -> int -> bool
(** Correct = not listed in [faults]. *)

val correct_indices : t -> int list

val start : t -> unit
(** Start every non-crashed node (crashed ones never join). *)

val run : t -> until:float -> unit
(** Advance virtual time; can be called repeatedly to step through an
    execution. *)

val run_until_delivered :
  t -> count:int -> max_time:float -> float option
(** Run until every correct node has delivered at least [count]
    vertices, returning the virtual time this happened, or [None] if
    [max_time] elapsed first. *)

val delivered_logs : t -> Dagrider.Vertex.t list array
(** Per-node totally ordered outputs. *)

val delivered_refs : t -> Dagrider.Vertex.vref list array
(** Per-node ordered outputs as lightweight (round, source) references —
    the mid-run snapshot the swarm checker's oracle compares across
    checkpoints. *)

val silence_node : t -> ?drop_in_flight:bool -> int -> unit
(** Mid-run adaptive corruption of process [i]: mark it Byzantine (it
    leaves {!correct_indices}), discard its not-yet-delivered messages
    when [drop_in_flight] (default [true], per the §2 adaptive
    adversary), and detach its handlers on every network so it neither
    receives nor reacts from this moment on. The scenario generator must
    keep the total number of ever-faulty processes within [f]. *)

val check_total_order : t -> (unit, string) result
(** Every pair of correct nodes' logs must be prefix-comparable
    (Total order + Agreement). Returns a description of the first
    divergence otherwise. *)

val check_integrity : t -> (unit, string) result
(** No node delivered two vertices with the same (round, source), and no
    vertex appears twice in one log. *)

val honest_bits : t -> int
(** Bits sent by correct processes (the paper's communication measure). *)

val latency : t -> Metrics.Latency.t
(** The harness's built-in proposal-to-delivery recorder. Every
    synthetic block is timestamped when its proposer creates the vertex
    carrying it and again at each process's [a_deliver] — always on, no
    RNG or engine events involved, so it never perturbs the schedule. *)

val link_stats : t -> Net.Link.stats
(** Reliable-transport counters summed over every endpoint of every
    stack (all zero when [link_faults] is [None]). *)

val drop_counts : t -> (string * int) list
(** Deliveries lost on any stack, merged by reason tag ("fault",
    "corrupt", "give-up", "duplicate", "decode", "no-handler",
    "corrupted-src"), sorted by reason. *)

val retransmits_by_link : t -> ((int * int) * int) list
(** [((src, dst), count)] for every directed link with at least one
    retransmission, merged across stacks, sorted — the loss-aware
    diagnostics the analyzer and swarm checker read. *)

val net_slots : t -> (string * int * int) list
(** [(stack, in_flight, slot_capacity)] of each protocol stack's
    network, in the order ["coin"], ["sync"], ["rbc"]: the messages in
    flight now and the most ever in flight at once
    ({!Net.Network.slot_capacity}). A lossy stack's network carries
    link frames. *)

val rbc_instances : t -> int * int
(** The RBC backends' [(open_instances, dropped_below_horizon)], summed
    over processes: instances held now, and messages dropped unopened
    (origin out of range or round below the node's GC horizon). *)

val metrics_snapshot : t -> Metrics.Registry.snapshot
(** One snapshot of the run's health: the active commit rule
    ([rule.<name>] = 1 plus [rule.wave_length] / [rule.waves_bound] /
    [rule.commit_quorum] gauges — explicit so downstream tooling need
    not infer the rule from span names), communication counters (total,
    honest, per message kind), engine gauges (virtual time, events
    executed, events pending, [engine.slot_capacity], the most
    events ever queued, and [engine.buckets], the length of the
    queue's bucket table), each stack's network gauges
    ([net.in_flight.<stack>] and [net.slot_capacity.<stack>], see
    {!net_slots}), latency histograms (first delivery and
    per-process delivery), per-node delivered counts, the bounded-state
    gauges summed across processes ([rbc.open_instances] and
    [rbc.dropped_below_horizon] of the RBC backends, and
    [dag.window_rounds] of the DAG stores), drop counters by
    reason ([net.drops.*]), on workload-driven builds the mempool fleet
    gauges ([mempool.pending]/[in_flight]/[retained]/[submitted]/
    [retired]/[rejected], summed across processes), and — on lossy
    builds — the aggregated reliable-transport counters ([link.*]).
    Traced builds additionally export the tracer's ring health
    ([trace.emitted]/[trace.dropped_events]/[trace.capacity]/
    [trace.occupancy] — nonzero [trace.dropped_events] means the
    retained window is a suffix of the run) and the live critical-path
    segment aggregates ([critpath.*], see {!Critpath.segment_means}).
    Every build exports the OCaml GC gauges: [gc.minor_collections],
    [gc.major_collections] and [gc.promoted_words] count since this
    fleet started (its first {!run}; 0 before it), so fleets run one
    after another in one process each report their own;
    [gc.top_heap_words] is the process-wide high-water mark of the
    major heap, which covers every earlier fleet too. *)

val analyzer : t -> Analyze.t option
(** The run's protocol analyzer: [Some] iff the run was built with a
    tracer. It is the tracer's one sink ({!Trace.add_sink}), so it sees
    the {e whole} event stream even when the ring buffer wrapped, and
    it feeds the run's other collectors: the certificate ledger
    ({!Analyze.ledger}, what [explain]/[divergence] read and the swarm
    oracle re-validates) and the critical-path collector
    ({!Analyze.critpath}), which streams at the vantage process (the
    lowest process no declared fault touches), so
    {!Critpath.segment_means} is cheap at any point mid-run and
    {!Analyze.critpath_report} reports from that process by default.
    Untraced runs return [None] and pay nothing. *)

val analysis : t -> Analyze.report option
(** {!analyzer} finalized with the run's options
    ({!Analyze.fleet_config} of its rule, n and f), the
    currently-faulty processes as the Byzantine set and the lowest
    correct process as observer; callable mid-run for progress
    snapshots. [None] untraced. *)

val analysis_report : t -> Stdx.Json.t option
(** {!analysis} serialized via {!Analyze.report_to_json}. *)

type attack_report = {
  ar_node : int;
  ar_spec : Attack.spec;
  ar_victims : int list;  (** the resolved victim set *)
  ar_forks : Attack.fork list;
      (** every equivocation actually sent (oldest first) — the
          equivocation-exclusion oracle's ground truth *)
  ar_lies : Attack.lie list;
      (** every forged sync vertex actually served — the lie-exclusion
          oracle's ground truth *)
  ar_actions : int;  (** total deliberate deviations *)
}

val attack_reports : t -> attack_report list
(** One report per declared {!fault.Adversary}, in process order; empty
    when none was declared. Read {e after} the run: the oracles compare
    the recorded forks/lies against what correct processes actually
    admitted. *)

val restart_node : t -> int -> unit
(** Crash-and-recover process [i] in place: checkpoint it (through the
    full {!Dagrider.Snapshot} serialization round-trip, as a real
    restart would), rebuild it from the checkpoint on the same
    networks, and let the sync protocol catch it up with the live
    fleet. Follow-up sync requests run on seeded exponential backoff
    with jitter (the initial timeout, factor, cap and jitter of
    {!Net.Link.default_config}, {!Net.Link}'s retransmit shape),
    stopping as soon as the node's DAG has no under-populated round
    below its frontier and that frontier is within one round of the
    live fleet's, or after 6 attempts
    (emitting {!Trace.kind.Sync_retry} per attempt and
    {!Trace.kind.Sync_gave_up} on exhaustion). The backoff stream is
    keyed off the run seed and [i], so replays are byte-identical.
    Restarting mid-partition is legal — lost requests are retried.
    @raise Invalid_argument if [i] never started (declared [Crash], or
    a [Fuzz] adversary): there is no state to restart from; and if [i]
    is any declared {!fault.Adversary}: the restart would rebuild it
    with the honest RBC factory while it still counts as Byzantine and
    stays in {!attack_reports}. *)
