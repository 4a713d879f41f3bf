(** A complete DAG-Rider process: Algorithm 2 (DAG construction) driving
    Algorithm 3 (ordering) over a pluggable reliable-broadcast backend
    and the threshold coin.

    Lifecycle: [create] wires the handlers, [start] broadcasts the
    round-1 vertex; from then on the process is purely reactive —
    reliable-broadcast deliveries fill the buffer, buffered vertices
    whose causal history is present join the DAG, completing a round
    broadcasts the next vertex, completing a wave broadcasts a coin
    share, and a resolved coin triggers the local ordering step. The
    paper's [while true] loop (Algorithm 2 line 5) becomes this event
    chain; no behaviour is lost because every iteration of the paper's
    loop is enabled by exactly one of these events.

    Coin timing: a share for instance [w] is released only when this
    process {e completes} wave [w] (paper §5, "parties flip the global
    coin only after they complete w"), and ordering for wave [w] runs
    only once instances [1..w] have all resolved, so leaders are always
    processed in wave order. *)

type rbc_handle = {
  rbc_bcast : payload:string -> round:int -> unit;
  rbc_prune_below : round:int -> unit;
      (** drop the backend's instances below [round] and every later
          message for them ([prune_below] of the stock backends). The
          node calls it with the bound it gives {!Dag.prune_below}, once
          every vertex of the pruned rounds in its DAG was delivered, so
          it has sent its Ready for each of them and no other process
          waits on it there. *)
}
(** What the node needs from a reliable-broadcast backend. *)

type rbc_factory = me:int -> deliver:Rbc.Rbc_intf.deliver -> rbc_handle
(** Backend constructor; see {!Backend} for the stock ones. *)

type coin_msg = Coin_share of Crypto.Threshold_coin.share
(** Message type of the coin-share network. *)

type sync_msg =
  | Sync_request of { from_round : int }
  | Sync_response of { vertices : (string * int * int) list }
      (** (encoded vertex, round, source) triples *)
(** Catch-up channel for restarted processes: reliable broadcast never
    re-delivers instances that completed while a process was down, so a
    restarted node asks its peers for the missing DAG region. A response
    carries {e bare} vertex encodings and, unlike an RBC delivery, is a
    single peer's unauthenticated claim — so admission is hardened:
    each triple must pass the envelope check (source in range, round
    >= 1), decode, and {!Vertex.validate}; a triple whose
    [(round, source)] slot is already occupied by a different digest is
    rejected as a forgery; and a vertex the node cannot cross-check
    locally is held until [f+1] {e distinct} responders vouch for
    byte-identical content (at most [f] are Byzantine, so at least one
    voucher is honest). Every rejection emits a typed
    {!Trace.kind.Sync_reject} event ("envelope" | "decode" | "invalid"
    | "conflict") for forensic attribution. *)

val encode_coin_msg : coin_msg -> string
(** Canonical wire encoding of a coin share (used when the coin channel
    runs over lossy links, where messages travel as bytes). *)

val decode_coin_msg : string -> coin_msg option
(** Inverse of {!encode_coin_msg}; [None] on any malformed input. *)

val encode_sync_msg : sync_msg -> string

val decode_sync_msg : string -> sync_msg option
(** [None] on any malformed input, including responses claiming more
    vertices than an honest responder would ever send. *)

type coin_mode =
  | Separate_network
      (** shares travel on their own broadcast channel (the default
          wiring; simplest to reason about) *)
  | In_dag
      (** the paper's footnote 1: a process's share for wave [w]'s coin
          rides inside the vertex it broadcasts in round [L * w + 1],
          [L] the coin cadence ({!Ordering.coin_wave_length}) — the
          first vertex it can only create after completing wave [w],
          preserving unpredictability. No separate coin messages are
          sent at all; shares arrive with reliable-broadcast deliveries
          and are bound to their holder by the broadcast's
          authenticated source. *)

type config = {
  n : int;
  f : int;
  rule : Ordering.rule;    (** the commit rule ({!Ordering.dag_rider} by
                               default, {!Ordering.bullshark} for 2-round
                               round-robin waves) — the only source of
                               the wave length and the commit quorum.
                               Ordering waves follow its
                               [rule_wave_length]; coin instances
                               follow {!Ordering.coin_wave_length}, the
                               same cadence under coin-scheduled rules
                               and DAG-Rider's 4 rounds under round-robin
                               ones *)
  enable_weak_edges : bool;(** [false] only for the validity ablation *)
  gc_depth : int option;   (** prune rounds this far behind the decided
                               wave, from the DAG and from the RBC
                               backend alike ({!rbc_handle}); [None]
                               (default) keeps everything *)
  coin_mode : coin_mode;
}

val default_config : n:int -> f:int -> config

type t

val create :
  config:config ->
  me:int ->
  coin:Crypto.Threshold_coin.t ->
  coin_net:coin_msg Net.Port.t ->
  make_rbc:rbc_factory ->
  ?sync_net:sync_msg Net.Port.t ->
  ?sync_trusting:bool ->
  ?trace:Trace.t ->
  ?block_source:(round:int -> string) ->
  ?a_deliver:(block:string -> round:int -> source:int -> unit) ->
  ?on_commit:(Ordering.commit -> unit) ->
  unit ->
  t
(** [block_source] supplies a block when [blocksToPropose] is empty —
    the paper assumes processes always have blocks (Algorithm 2 line
    17); the default returns an empty block. [a_deliver] is the BAB
    output upcall; [on_commit] observes committed leaders (experiment
    instrumentation). [trace] records this process's protocol events
    ({!Trace.Vertex_created}, [Vertex_added], [Round_advanced],
    [Coin_flip], [Leader_elected], one [Commit_cert] or [Skip_cert] per
    ordering decision, [A_deliver], [Sync_reject], [Sync_unavailable]);
    omitted, no event is ever allocated.
    [sync_trusting] (default [false]) deliberately {e weakens} the
    sync admission path back to trusting any single responder —
    exists only so the checker's planted-vulnerability self-test can
    prove the oracles catch a corrupted catch-up; never enable it in
    an experiment. *)

type checkpoint = {
  ck_dag : Dag.t;
  ck_delivered : Vertex.t list; (** the ordered log, oldest first *)
  ck_decided_wave : int;
  ck_round : int; (** the round whose vertex was last broadcast *)
}
(** Everything a process must persist to restart without equivocating:
    its DAG ({!Snapshot} serializes it), its delivered log and decided
    wave (so nothing is re-delivered), and its last broadcast round (so
    it never signs two different vertices for one round). *)

val checkpoint : t -> checkpoint

val restore : t -> checkpoint -> unit
(** Graft a checkpoint into [t], a node fresh from {!create} that was
    never started, and send its first sync request. The node resumes at
    the checkpointed round: it does not re-broadcast that round's vertex
    (it may already be delivered elsewhere — re-broadcasting a fresh
    one would be equivocation) and advances as soon as the round's
    quorum assembles. Coin shares for waves completed before the
    checkpoint are not re-sent; unresolved waves re-resolve from
    incoming shares.
    @raise Invalid_argument if [t] was already started. *)

val start : t -> unit
(** Broadcast the first vertex. Idempotent; a no-op on restored nodes
    (their current round's vertex is already out). *)

val a_bcast : t -> string -> unit
(** Enqueue a transaction block; it rides in this process's next unsent
    vertex (Algorithm 3 lines 32–33). *)

val me : t -> int
val current_round : t -> int
val dag : t -> Dag.t
val ordering : t -> Ordering.t

val delivered_log : t -> Vertex.t list
(** Totally ordered output so far. *)

val buffered : t -> int
(** Vertices delivered by RBC but still missing predecessors. *)

val waves_completed : t -> int
(** Highest {e ordering} wave completed (the commit rule's cadence). *)

val coin_instances_resolved : t -> int

val coin_buckets : t -> int
(** Coin instances holding shares that have not resolved yet: a wave's
    bucket is dropped when its leader resolves, and a later share for it
    is dropped before verification. *)

val leader_of : t -> wave:int -> int option
(** The wave's leader as this node knows it: the coin's choice once
    this node resolved that instance ([None] before f+1 shares
    arrived), or the predefined [(wave - 1) mod n] under a round-robin
    rule. Used by the renderers. *)

val coin_leader_of : t -> wave:int -> int option
(** The raw threshold-coin resolution for [wave], regardless of which
    ordering rule is active (the coin runs at its own cadence under
    every rule). [None] until this node has combined f+1 shares.
    Readers that must stay rule-oblivious — the adaptive adversaries —
    use this instead of {!leader_of}. *)

val request_sync : t -> bool
(** Ask every peer for the DAG region this node is missing. Returns
    [false] — and emits a {!Trace.kind.Sync_unavailable} event — when no
    [sync_net] was wired, so a restart driver cannot mistake a
    misconfigured channel for protocol stall. Called once by {!restore};
    the restart driver should re-call it later (with backoff) to collect
    vertices whose broadcasts straddled the restart. *)
