(** Protocol analyzer: turns a {!Trace} event stream into diagnostics
    keyed to the paper's Algorithms 1–3.

    The analyzer is the one fold of a trace: a traced run attaches it
    as its only sink (so runs longer than the ring buffer are analyzed
    in full), and a replay ({!of_events}, over a JSONL dump or a
    tracer's retained window) feeds a fresh one. It owns the run's
    other two collectors and feeds them each event: the certificate
    ledger ({!ledger}) and the critical-path collector ({!critpath}).
    From the stream the analyzer derives:

    - per-wave records: the elected leader, direct vs retroactive
      (chained) commit, skip reason, waves-to-resolve, and the running
      waves-per-commit mean vs the paper's 3/2 bound (Claim 6). The
      outcome, its anchor, the skip reason and the delivered count are
      read off the observer's provenance certificates
      ({!Trace.commit_cert}, {!Trace.skip_cert}) as the analyzer's own
      {!Forensics} ledger folds them — the one fold of each ordering
      decision; the leader's election time comes from
      {!Trace.kind.Leader_elected};
    - per-process round progress and round skew, and RBC
      phase-transition durations;
    - a chain-quality audit over every (2f+1)-multiple prefix of the
      ordered log (paper §3, via {!Metrics.Chain_quality});
    - anomalies: round and commit gaps above 8× the median gap,
      quorum starvation at the trace horizon, runs of 3 or more leader
      skips without a commit, waves whose resolution takes over 4× the
      median, and links whose retransmits exceed both 4× the median and
      20 (or that gave up a frame).

    The create→[a_deliver] latency breakdown is {!Critpath}'s
    ({!critpath_report}): its segments partition each ordered vertex's
    latency, so the analyzer keeps no stage histograms of its own.

    All ordering-level diagnostics are computed from one {e observer}
    process's events (elections, certificates, [a_deliver]s);
    network-level ones (round skew, RBC phases) pool every process.
    Feeding is cheap and config-free — configuration binds at
    {!finalize}, so one accumulator can be finalized under several
    configs. *)

type config = {
  rule : Dagrider.Ordering.rule;
      (** commit rule the trace ran under. Its [rule_wave_length] gives
          the {e ordering} rounds per wave (the DOT export's leader
          rounds derive from it), its name is echoed into the
          report, and its [rule_bound] is the waves-per-commit bound
          audited by [r_claim6_ok]. Under a round-robin schedule
          (Bullshark) wave leaders are inferred as [(w-1) mod n], and
          coin events in the stream — which then run on their own
          cadence with unrelated instance numbering — are kept out of
          the wave records; under a coin schedule coin instance [w]
          {e is} ordering wave [w]. *)
  n : int option;
      (** fleet size, for round-robin leader attribution; [None] infers
          it from the highest process id in the stream *)
  f : int option;  (** fault bound; [None] infers [(n-1)/3] *)
  byzantine : int list;
      (** processes counted Byzantine by the chain-quality audit *)
  observer : int option;
      (** process whose ordering events anchor the report; [None] picks
          the process with the longest [a_deliver] log (lowest id on
          ties) — the observer rule {!critpath_report} falls back on
          too *)
}

val default_config : config
(** The paper's rule ({!Dagrider.Ordering.dag_rider}), everything
    inferred. *)

val fleet_config :
  rule:Dagrider.Ordering.rule -> n:int -> f:int -> byzantine:int list -> config
(** {!default_config} for a known fleet: its rule, size, fault bound and
    Byzantine set. The harness and the swarm checker both build their
    analyzer configs with it. *)

type wave_outcome =
  | Committed_direct  (** commit rule fired in the wave itself *)
  | Committed_chained of int
      (** committed retroactively by the backward chain (Algorithm 3
          lines 38–43) of the given later wave: the certificate's
          [anchor_wave] *)
  | Skipped of string
      (** never committed; the payload is the skip certificate's reason
          ("leader vertex absent" or "leader under-supported") *)
  | Unresolved  (** coin flipped but the observer never elected it *)

type wave_record = {
  w_wave : int;
  w_leader : int option;  (** the coin's choice, where observed *)
  w_elected_at : float option;  (** observer's election time *)
  w_resolution : float option;
      (** first coin share out → observer's election *)
  w_outcome : wave_outcome;
  w_committed_at : float option;  (** the commit certificate's time *)
  w_delivered : int;  (** fresh vertices ordered by this wave's commit *)
  w_running_mean : float;
      (** waves resolved per wave committed, up to and including this
          wave — the running Claim 6 measure *)
}

type anomaly =
  | Round_stall of {
      node : int;
      round : int;  (** the round whose entry was late *)
      at : float;
      gap : float;
      median : float;  (** that node's median inter-round gap *)
    }
  | Commit_stall of {
      node : int;
      after_wave : int;  (** last wave committed before the gap *)
      at : float;
      gap : float;
      median : float;
    }
  | Quorum_starvation of {
      node : int;
      round : int;  (** round it is stuck in at the trace horizon *)
      stuck_for : float;
      have : int;  (** round-[round] vertices in its DAG *)
      need : int;  (** the 2f+1 advance quorum *)
    }
  | Skip_streak of { node : int; first_wave : int; length : int }
  | Slow_wave of { wave : int; took : float; median : float }
  | Lossy_link of {
      src : int;
      dst : int;
      retransmits : int;  (** frames re-sent on this directed link *)
      gave_up : int;  (** frames abandoned after retry exhaustion *)
      median : float;  (** median retransmit count across active links *)
    }
      (** One directed link is starving its destination: its retransmit
          count is far above the median (uniform loss keeps links close
          together, so this singles out targeted loss), or the transport
          exhausted a frame's retry budget on it. *)
  | Attacker_active of { node : int; strategy : string; actions : int }
      (** attacker-attributed events in the trace: process [node] ran
          [actions] deliberate deviations under the named strategy — an
          attacked run always names its adversary in the anomaly list *)
  | Sync_rejections of { node : int; count : int; reasons : string list }
      (** the hardened catch-up validator at [node] refused [count]
          sync-response vertices; [reasons] are the distinct rejection
          causes seen (see {!Trace.kind.Sync_reject}) *)

val describe_anomaly : anomaly -> string
(** One-line human rendering. *)

type report = {
  r_processes : int;
  r_f : int;
  r_wave_length : int;
  r_rule : string;  (** the config rule's [rule_name] *)
  r_waves_bound : float;  (** the config rule's [rule_bound] *)
  r_observer : int;
  r_events : int;  (** events fed *)
  r_truncated : bool;
      (** the stream did not start at sequence 0 (ring-buffer wrap
          before the first event seen) — head-dependent numbers are
          lower bounds *)
  r_span : float * float;  (** first and last event times *)
  r_sends : int;
  r_send_bits : int;
  r_waves : wave_record list;  (** ascending wave number *)
  r_waves_resolved : int;
      (** waves the observer elected a leader for (coin rules), or
          processed to an outcome (round-robin rules, whose leaders
          are all predefined) *)
  r_commits_direct : int;
  r_commits_chained : int;
  r_waves_skipped : int;  (** skipped and never committed *)
  r_waves_per_commit : float;
      (** resolved / committed; [infinity] when nothing committed *)
  r_claim6_ok : bool;  (** [r_waves_per_commit <= r_waves_bound] *)
  r_rounds : (int * int) list;  (** per process: highest round entered *)
  r_round_skew : Stdx.Stats.summary;
      (** per-round spread (last − first process to enter it) *)
  r_rbc_phases : (string * Stdx.Stats.summary) list;
      (** reliable-broadcast phase-transition durations, pooled over
          processes, keyed ["echo->ready"]-style *)
  r_ordered : int;  (** observer's [a_deliver] count *)
  r_chain_quality : Metrics.Chain_quality.report;
  r_chain_quality_bound : float;  (** (f+1)/(2f+1) *)
  r_drops : (string * int) list;
      (** lost deliveries by reason tag, sorted by reason (empty for a
          fault-free trace) *)
  r_retransmits : int;  (** {!Trace.Retransmit} events fed *)
  r_corrupt_rejects : int;  (** {!Trace.Corrupt_reject} events fed *)
  r_link_retransmits : ((int * int) * int) list;
      (** per directed link [(src, dst)], descending by count — the
          loss-aware view behind the {!Lossy_link} anomaly *)
  r_anomalies : anomaly list;
}

(** {1 Accumulation} *)

type t
(** A streaming accumulator; feed in any order-preserving way. *)

val create : ?observer:int -> unit -> t
(** [observer] is the critical-path collector's streaming vantage
    ({!Critpath.create}): a live run passes the process whose segment
    means its monitor probes read mid-run. *)

val feed : t -> Trace.event -> unit
(** O(1) per event; [Trace.add_sink tracer (feed acc)] analyzes a live
    run in full. Feeds the accumulator's {!ledger} and {!critpath}
    too. *)

val of_events : Trace.event list -> t
(** The replay path: a fresh accumulator fed [events] — a JSONL dump
    ({!Trace.events_of_jsonl_file}) or a tracer's retained window
    ({!Trace.events}; [r_truncated] reports whether older events were
    lost). *)

val with_certified_rule : config -> t -> config
(** [config] with the commit rule the ledger's certificates name, when
    it is a known one: what a replay finalizes with, so a dump's own
    rule wins over the caller's, which applies only to a trace with no
    certificate. *)

val ledger : t -> Forensics.t
(** The certificate ledger the accumulator feeds: every certificate and
    [a_deliver] seen, folded once. [finalize] reads the observer's wave
    decisions and delivery log from it; [explain]/[divergence] and the
    certificate oracle read the same ledger. *)

val critpath : t -> Critpath.t
(** The critical-path collector the accumulator feeds — what a live
    run's monitor probes read {!Critpath.segment_means} from. *)

val critpath_report : t -> Critpath.report
(** {!Critpath.finalize} at the default observer: the streaming vantage
    given to {!create}, else the [observer] rule of {!config} (longest
    [a_deliver] log, lowest id on ties). *)

val finalize : ?config:config -> t -> report
(** Compute the report from everything fed so far. Pure with respect to
    the accumulator — feeding can continue and [finalize] can be called
    again (e.g. mid-run progress reports). *)

(** {1 Output} *)

val report_to_json : report -> Stdx.Json.t

val render : report -> string
(** Human-readable report: run shape, wave table (the newest 12
    waves), RBC phases, chain quality, anomalies. *)

val render_anomalies : report -> string
(** Just the anomaly lines ("none detected" when clean) — what the
    swarm checker appends to a failure repro. *)

val dot :
  ?shade_wave:int -> ?max_round:int -> dag:Dagrider.Dag.t -> report -> string
(** Figure 1/2-style Graphviz rendering of [dag] annotated with the
    report's wave outcomes: committed leaders gold, skipped leaders
    red, elected-but-unresolved leaders blue, and the causal history of
    [shade_wave]'s leader (default: the highest committed wave present
    in [dag]) shaded gray. Strong edges solid, weak edges dashed
    (via {!Dagrider.Render.dot_classified}). *)
