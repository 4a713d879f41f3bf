(** Named-metrics registry: counters, gauges, and histograms under one
    roof, with point-in-time snapshots that serialize to JSON.

    This generalizes {!Counters} (which stays as the network layer's
    hot-path accounting): the registry is where a run's whole health
    picture is assembled — communication totals, per-kind breakdowns,
    engine progress, and latency distributions (histograms ride
    {!Stdx.Stats}, so percentile queries reuse its cached sort). The
    harness builds one snapshot per run ([Runner.metrics_snapshot]) and
    the bench serializes them into the [--json] output. *)

type t

val create : unit -> t

val incr : t -> string -> ?by:int -> unit -> unit
(** Bump a named counter (created at zero on first use). *)

val set_gauge : t -> string -> float -> unit
(** Set a point-in-time value (last write wins). *)

val observe : t -> string -> float -> unit
(** Add one observation to a named histogram. *)

val histogram : t -> string -> Stdx.Stats.t
(** Get-or-create the underlying accumulator (bulk feeding). *)

val counter_value : t -> string -> int
(** 0 if never bumped. *)

val gauge_value : t -> string -> float option

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Stdx.Stats.summary) list;
}
(** All three sections sorted by metric name (deterministic output). *)

val snapshot : t -> snapshot

val snapshot_to_json : snapshot -> Stdx.Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {count,
    mean, p50, p99, max}}}] (histograms via
    {!Stdx.Stats.summary_to_json}). *)
