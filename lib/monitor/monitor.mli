(** Time-series flight recorder for sustained-load runs.

    Everything built so far (trace, analyzer, profiler, forensics)
    reports a finished run as one aggregate; the monitor shows how a run
    behaves {e over time} — the throughput/latency curves Narwhal-lineage
    papers report for sustained load, and the growth trends that motivate
    the paper's §8 garbage collection.

    The recorder is a set of named probes (closures reading a counter or
    gauge) sampled together at a fixed virtual-time interval — the
    harness arms it on the engine's sampler hook — into bounded
    ring-buffer series sharing one time axis, so every export row is
    aligned. Counter probes additionally get a derived ["<name>/rate"]
    series (windowed rate per time unit), and latency observations fed
    by the delivery path get sliding-window ["latency.p50"] /
    ["latency.p99"] series.

    On top sit declarative SLO health checks (min throughput, max p99,
    max stall gap, bounded growth slope) evaluated at each tick; state
    {e transitions} emit typed {!Trace.Health} events, and the current
    states roll up into a pass/fail verdict for CI and swarm.

    Probes only read state and draw no randomness, so — exactly like the
    tracer and profiler — a monitored run's delivery logs are
    byte-identical to an unmonitored run on the same seed. *)

type t

type probe_kind =
  | Gauge  (** instantaneous level (queue depth, DAG size, heap words) *)
  | Counter
      (** monotone cumulative count (tx submitted, commits, messages) —
          gets a derived windowed-rate series *)

val create : ?capacity:int -> ?interval:float -> ?window:float -> unit -> t
(** [capacity] (default 4096) ticks retained per series (oldest
    overwritten); [interval] (default 1.0) virtual-time units between
    samples — what the owner should arm the engine sampler with;
    [window] (default 10.0) units of history behind derived rates,
    percentiles, and slopes.
    @raise Invalid_argument on non-positive capacity/interval/window. *)

val interval : t -> float
val window : t -> float

val add_probe : t -> name:string -> kind:probe_kind -> (unit -> float) -> unit
(** Register a probe; its series (and, for counters, the ["/rate"]
    companion) appears in every subsequent sample. Probes must all be
    registered before the first {!sample} so the rings stay aligned.
    @raise Invalid_argument on a duplicate name or after sampling
    started. *)

val set_trace : t -> Trace.t -> unit
(** Install the tracer that health-state transitions are emitted into. *)

val observe_latency : t -> now:float -> float -> unit
(** Record one proposal-to-delivery latency observed at virtual time
    [now] (the harness calls this from the observer's a_deliver path);
    feeds the sliding-window percentile series. *)

val sample : t -> now:float -> unit
(** Take one synchronized sample: read every probe, append to the rings,
    derive rates and latency percentiles, then evaluate the SLOs. *)

(** {1 Windowed views} *)

val samples : t -> int
(** Ticks retained (≤ capacity). *)

val total_samples : t -> int
(** Ticks ever taken, including ones the ring has dropped. *)

val series_names : t -> string list
(** All series in registration order (probes, derived rates, latency). *)

val current : t -> string -> float
(** Latest recorded value of a series (0 before any sample, or for an
    unknown name). *)

val rate : t -> string -> float
(** Windowed rate of change per time unit: latest value minus the value
    at the newest tick at least [window] old (falling back to the oldest
    retained tick), over the elapsed time. 0 with fewer than two ticks. *)

val slope : t -> string -> float
(** Least-squares growth per time unit over the ticks inside the window
    — the bounded-memory / bounded-DAG health signal. 0 with fewer than
    two ticks in the window. *)

val stall_gap : t -> string -> float
(** Longest time between strict increases of a cumulative series across
    the retained history, including the still-open gap at the tail — a
    liveness probe: a partition shows up as a large gap in ["commits"]
    even after traffic resumes. 0 before the second sample. *)

val latency_percentile : t -> float -> float
(** Percentile (e.g. 50.0, 99.0) over the latency observations inside
    the sliding window; 0 when the window holds none (stalls are caught
    by {!Max_stall}, not by a vanishing percentile). *)

(** {1 SLO health checks} *)

type slo =
  | Min_rate of { series : string; min_per_unit : float; after : float }
      (** windowed rate of [series] must stay ≥ [min_per_unit] once
          virtual time passes [after] (warmup grace) *)
  | Max_p99 of { max_units : float; after : float }
      (** sliding-window p99 proposal→delivery latency must stay ≤
          [max_units] after warmup *)
  | Max_stall of { series : string; max_gap : float }
      (** {!stall_gap} of [series] must stay ≤ [max_gap] *)
  | Max_slope of { series : string; max_per_unit : float; after : float }
      (** windowed growth of [series] must stay ≤ [max_per_unit] after
          warmup — bounded-memory/bounded-DAG checks *)

val add_slo : t -> ?name:string -> slo -> unit
(** Declare a check ([name] defaults to a "min-rate(series)"-style
    label). Evaluated at every subsequent {!sample}; ok↔failing
    transitions emit {!Trace.Health} into the installed tracer. *)

type health = {
  h_name : string;
  h_ok : bool;
  h_value : float;  (** last measured quantity *)
  h_threshold : float;  (** the declared bound *)
}

val health : t -> health list
(** Current state of every check, in declaration order. Checks inside
    their warmup grace read as ok. *)

val healthy : t -> bool
(** All checks currently ok (vacuously true with none declared). *)

val ever_unhealthy : t -> bool
(** Any check failed at any tick — the CI verdict: a mid-run stall stays
    visible even if the run later recovers. *)

val verdict : t -> string
(** One line: "healthy" or "FAILING: check, check" (currently-failing
    checks), with a "(recovered)" note if only historical failures
    remain. *)

(** {1 Export} *)

val to_csv : t -> string
(** Header [time,<series>,...] then one row per retained tick, oldest
    first — plotting-ready. *)

val to_json : t -> Stdx.Json.t
(** Everything: config, per-series points as [[time, value]] pairs,
    health states, and the verdict booleans. *)

val render : t -> string
(** ASCII dashboard: one row per series with current value, windowed
    rate, and a sparkline over the last 48 ticks; then the latency percentiles and per-check health lines. *)
