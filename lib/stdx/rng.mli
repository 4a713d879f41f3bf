(** Deterministic, splittable pseudo-random number generator.

    Every run of the simulator must be reproducible from a single integer
    seed, including runs that fan out into independent logical streams
    (one per process, one for the adversary, one per workload generator).
    The implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014),
    which has a cheap [split] operation producing a statistically
    independent child stream — exactly what a deterministic discrete-event
    simulation needs.

    This module is NOT cryptographically secure and is never used where
    the paper requires unpredictability (the threshold coin has its own
    construction in [Crypto.Threshold_coin]). *)

type t
(** Mutable generator state: the 64-bit SplitMix64 counter, held
    unboxed as two 32-bit halves, so advancing it allocates nothing. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal
    seeds yield equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose future output
    is independent of [t]'s, so sub-components can draw randomness without
    perturbing each other's streams. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] draws uniformly from the inclusive range
    [\[lo, hi\]]. @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] draws a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val sample_without_replacement : t -> k:int -> n:int -> int list
(** [sample_without_replacement t ~k ~n] draws [k] distinct integers from
    [\[0, n)], in random order. @raise Invalid_argument if [k > n]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean; used for message
    delay models. *)

val geometric : t -> p:float -> int
(** Number of Bernoulli(p) trials until the first success (>= 1). *)
