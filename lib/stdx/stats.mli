(** Streaming summary statistics and least-squares fitting helpers used by
    the experiment harnesses to report latency/throughput distributions
    and growth exponents. *)

type t
(** A mutable accumulator of float observations. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** Mean of the observations; 0 if empty. *)

val stddev : t -> float
(** Sample standard deviation; 0 if fewer than two observations. *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]]; nearest-rank on the sorted
    observations. 0 if empty. The sorted array is cached and invalidated
    by {!add}, so alternating queries (p50/p99/...) between additions
    sort at most once. *)

val summary : t -> string
(** One-line human-readable summary: count/mean/p50/p99/max. *)

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p99 : float;
  s_max : float;
}
(** Digest of one distribution (all zeros when empty): what the
    analyzer's round skew and RBC phases, the critical-path segments
    and links, and the metrics registry's histograms report. *)

val empty_summary : summary

val to_summary : t -> summary
(** {!empty_summary} when [t] is empty. *)

val summary_to_json : summary -> Json.t
(** [{"count", "mean", "p50", "p99", "max"}]. *)

val fmt_summary : ?width:int -> ?max_width:int -> summary -> string
(** ["n=… mean=… p50=… p99=… max=…"] with mean, p50 and p99 left-aligned
    in [width] columns (default 8) and max in [max_width] (default 0,
    unpadded); ["(no samples)"] when empty. *)

val linear_fit : (float * float) list -> float * float
(** Least-squares fit [y = a + b*x]; returns [(a, b)].
    @raise Invalid_argument on fewer than two points. *)

val growth_exponent : (float * float) list -> float
(** Log-log slope of [(x, y)] points: the exponent [k] of the best-fit
    [y ~ c * x^k]. Points with non-positive coordinates are dropped. *)
