(** Structured execution tracing for the whole stack.

    A tracer is a fixed-capacity ring buffer of typed events, each
    stamped with the virtual time it was emitted at and a monotone
    sequence number. Every layer takes an optional tracer — network
    sends/receives, reliable-broadcast phase transitions, DAG vertex
    and round progress, coin flips, leader election, the ordering
    decisions, and the BAB [a_deliver] upcalls — so one trace
    interleaves the full causal story of a run. Each ordering decision
    is recorded once, as its provenance certificate ({!Commit_cert} or
    {!Skip_cert}). With no tracer installed ([None] everywhere)
    nothing is allocated and the simulation is byte-identical to an
    untraced build of the same seed.

    The buffer keeps the {e newest} [capacity] events: when it wraps,
    the oldest are overwritten (failures live at the tail). Export is
    JSONL — one compact JSON object per line, decodable by
    {!events_of_jsonl} for offline analysis — and there is an ASCII
    timeline renderer for eyeballs. Dumps written before the
    certificates became the only decision record carry ["commit"] and
    ["leader-skipped"] lines; the decoder rejects them as unknown event
    kinds. *)

type kind =
  | Send of { src : int; dst : int; msg_kind : string; bits : int; id : int }
      (** a message left [src] (kind tags as in {!Metrics.Counters}).
          [id] is the logical-message correlation id ([-1] when the
          sender allocated none): every wire event for one logical
          message — its send, retransmit copies, delivery or drop —
          carries the same id, and the handler that consumes it emits
          its own events with [cause = id], so a causal chain can be
          walked across nodes *)
  | Recv of { src : int; dst : int; msg_kind : string; id : int }
      (** delivery at [dst]'s handler *)
  | Drop of {
      src : int;
      dst : int;
      msg_kind : string;
      reason : string;
      id : int;
    }
      (** a delivery that never reached a handler. Reasons used by the
          stack: "fault" (link-fault policy loss), "corrupt" (fault
          policy corruption with no corrupter installed), "corrupted-src"
          (adaptive adversary discarded an in-flight message of a newly
          corrupted sender), "no-handler" (endpoint unregistered),
          "give-up" (reliable link exhausted its retransmit budget),
          "duplicate" (reliable link suppressed a redelivery),
          "decode" (frame payload failed the protocol decoder) *)
  | Retransmit of {
      src : int;
      dst : int;
      msg_kind : string;
      seq : int;
      attempt : int;
      id : int;
    }
      (** the reliable link timed out waiting for an ack and resent
          frame [seq]; [attempt] counts from 1. [id] matches the
          original send's correlation id, so backoff stalls attach to
          the logical message they delayed *)
  | Corrupt_reject of { src : int; dst : int; msg_kind : string; id : int }
      (** a frame failed its checksum at [dst] and was discarded (the
          sender will retransmit) *)
  | Rbc_phase of { node : int; origin : int; round : int; phase : string }
      (** reliable-broadcast instance [(origin, round)] changed phase at
          [node]: "init"/"disperse"/"gossip", "echo", "ready",
          "deliver", "discard" *)
  | Vertex_created of { node : int; round : int }
      (** Algorithm 2 lines 16-21: [node] built and broadcast its own
          round-[round] vertex *)
  | Vertex_added of { node : int; round : int; source : int }
      (** Algorithm 2 lines 6-9: a buffered vertex joined [node]'s DAG *)
  | Round_advanced of { node : int; round : int }
      (** Algorithm 2 lines 10-15: the 2f+1 quorum for the previous
          round assembled; [round] is the round being entered *)
  | Coin_flip of { node : int; wave : int }
      (** [node] completed wave [wave] and released its coin share *)
  | Leader_elected of { node : int; wave : int; leader : int }
      (** f+1 shares combined at [node]: wave [wave]'s leader is known *)
  | Commit_cert of {
      node : int;
      rule : string;  (** commit rule in force ("dagrider", "bullshark") *)
      sched : string;  (** leader schedule evidence: "coin" | "round-robin" *)
      wave : int;
      leader_round : int;
      leader_source : int;
      direct : bool;
      anchor_wave : int;
          (** the wave whose {e direct} commit fired this decision; equals
              [wave] for direct commits, the directly-committed wave at
              the top of the lines-38-43 chain for chained ones *)
      via_round : int;
      via_source : int;
          (** the next leader up the chain whose strong path justifies a
              chained commit; equals the leader itself when [direct] *)
      support : int list;
          (** direct commits: sources of the wave's last-round vertices
              with a strong path to the leader (the exact quorum the
              Algorithm 3 line 14 / Bullshark vote check counted).
              Chained commits carry the empty list — their evidence is
              [via]'s strong path. *)
      quorum : int;  (** votes required by the rule: 2f+1 or f+1 *)
      delivered : int;  (** fresh vertices ordered by this commit *)
    }
      (** provenance certificate for one commit decision, direct or
          chained (Algorithm 3 lines 36-43) *)
  | Skip_cert of {
      node : int;
      rule : string;
      sched : string;
      wave : int;
      leader_round : int;
      leader_source : int;
      reason : string;
          (** why no commit was legal when the wave was processed:
              "leader-absent" (no leader vertex in the DAG) or
              "under-supported" (support below the rule's quorum) *)
      support : int list;
          (** sources of the last-round vertices that {e did} have a
              strong path to the leader (empty when absent) *)
      quorum : int;
    }
      (** provenance certificate for one skip decision: ordering
          processed the wave's resolved leader without committing it. A
          wave skipped
          at its own time can still be recovered later by a chained
          {!Commit_cert} for the same wave (chain-back found a strong
          path after all); a skip with no later commit is final. *)
  | A_deliver of { node : int; round : int; source : int }
      (** the atomic-broadcast output upcall *)
  | Sync_retry of { node : int; attempt : int; from_round : int }
      (** a restarted node (re)broadcast a catch-up request for rounds
          [>= from_round]; [attempt] counts from 1 across the harness's
          exponential-backoff schedule *)
  | Sync_gave_up of { node : int; attempts : int }
      (** the catch-up retry budget ran out before the node observed
          itself back at the fleet frontier — stalled catch-up is now
          visible instead of silent *)
  | Sync_reject of {
      node : int;
      src : int;
      round : int;
      source : int;
      reason : string;
    }
      (** [node] refused a sync-response vertex claimed for
          [(round, source)] served by peer [src]. Reasons: "decode"
          (payload failed the vertex codec), "invalid" (structural
          validation failed), "envelope" (claimed round/source out of
          range), "conflict" (a different vertex for the same slot is
          already in the DAG or pending with other evidence) *)
  | Sync_unavailable of { node : int }
      (** [request_sync] was called on a node built without a sync
          network — previously a silent no-op *)
  | Attack_event of {
      node : int;
      strategy : string;
      round : int;
      info : string;
    }
      (** an installed Byzantine attacker acted: [strategy] names the
          behavior ("equivocate", "withhold", "disclose", "grind",
          "bias", "lying-sync", "fuzz") and [info] carries the
          attacker-attributed detail (victim sets, variant digests,
          timing decisions) for forensics stories *)
  | Engine_sample of { executed : int; pending : int }
      (** periodic simulator health sample (event count, queue depth) *)
  | Health of { check : string; ok : bool; value : float; threshold : float }
      (** an SLO health check changed state at the monitor's sample
          tick: [check] is the check's name, [value] the measured
          quantity (a windowed rate, p99, stall gap, or growth slope)
          and [threshold] the declared bound it is compared against.
          Emitted on transitions only, so a trace shows exactly when a
          run went unhealthy and when it recovered. *)
  | Tx_submitted of { node : int; accepted : bool }
      (** a client transaction entered (or was rejected by) [node]'s
          mempool; [accepted = false] means dedup or backpressure turned
          it away. Emitted by the workload driver only when tracing. *)
  | Block_assembled of { node : int; round : int; txs : int }
      (** [node] drained [txs] transactions from its mempool into the
          block of its round-[round] vertex (Algorithm 2 line 17's
          proposal payload). With the built-in FIFO mempool, the [txs]
          oldest accepted-and-unretired submissions of [node] are the
          ones drained — which is what lets the critical-path tracer
          attribute per-transaction mempool dwell from the event stream
          alone. *)

type event = { seq : int; time : float; cause : int; kind : kind }
(** [cause] is the correlation id of the message whose delivery handler
    emitted this event, or [-1] when the event was emitted outside any
    handler (or before correlation ids existed). It is stamped
    automatically by {!emit} from the ambient cause installed by
    {!with_cause} — individual call sites never thread it by hand. *)

type t

val default_capacity : int
(** 65536 events. *)

val create : ?capacity:int -> unit -> t
(** The clock initially reads 0.0 everywhere; whoever owns the
    simulation engine calls {!set_clock} (the harness does it in
    [Runner.build]).
    @raise Invalid_argument on a non-positive capacity. *)

val set_clock : t -> (unit -> float) -> unit
(** Install the virtual-time source events are stamped with. *)

val add_sink : t -> (event -> unit) -> unit
(** Register a live consumer called on every {!emit}, after the event is
    written to the ring — the hook a streaming analyzer uses to see the
    {e whole} event stream even when it is longer than the ring (the
    ring then only bounds what {!events} can replay, not what sinks
    observed). Sinks run in registration order, must not emit into the
    same tracer, and see events exactly once. With no sinks registered,
    [emit] costs what it did before this hook existed. *)

val emit : t -> kind -> unit

val fresh_id : t -> int
(** Allocate the next logical-message correlation id (monotone from 0).
    The transport allocates one per {e logical} message: retransmit
    copies of a frame reuse the original's id. *)

val with_cause : t -> int -> (unit -> 'a) -> 'a
(** [with_cause t id f] runs [f] with the ambient cause set to [id];
    every {!emit} inside [f]'s dynamic extent is stamped with
    [cause = id]. The previous ambient cause is restored on exit, also
    on exceptions, so nested deliveries attribute correctly. *)

val current_cause : t -> int
(** The ambient cause {!emit} would stamp right now ([-1] at top
    level). *)

val events : t -> event list
(** Retained events, oldest first. *)

val emitted : t -> int
(** Total events ever emitted (including overwritten ones). *)

val dropped : t -> int
(** Events lost to ring-buffer wrap: [max 0 (emitted - capacity)]. *)

val capacity : t -> int

val occupancy : t -> int
(** Events currently retained in the ring:
    [min emitted capacity]. *)

val node_of : kind -> int option
(** The process a kind is attributed to ([None] for engine samples). *)

val kind_label : kind -> string
(** Stable short name, identical to the JSONL "ev" field. *)

val describe_kind : kind -> string
(** One-line human rendering (the timeline's event column). *)

val event_to_json : event -> Stdx.Json.t

val event_of_json : Stdx.Json.t -> (event, string) result
(** Inverse of {!event_to_json}. *)

val to_jsonl : t -> string
(** One compact JSON object per line, oldest first. *)

val events_of_jsonl : string -> (event list, string) result
(** Parse a JSONL dump (blank lines ignored); error names the line. *)

val events_of_jsonl_file : string -> (event list, string) result
(** {!events_of_jsonl} over a file's contents; an unreadable file is an
    [Error] carrying the [Sys_error] message. *)

val render_events : ?max_lanes:int -> event list -> string
(** ASCII timeline: one row per event with its virtual time, sequence
    number, a lane column marking the process involved ([max_lanes]
    caps the lane width, default 16), and the human description. *)

val render_timeline : ?max_lanes:int -> ?limit:int -> t -> string
(** {!render_events} over the retained events (newest [limit] if given),
    prefixed with an emitted/retained/dropped summary line. *)
