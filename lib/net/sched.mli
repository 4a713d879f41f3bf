(** Message-delivery scheduling policies — the asynchronous adversary.

    In the paper's model the adversary controls the arrival time of every
    message, constrained only by eventual delivery on links between
    correct processes. A policy maps each send to a finite delivery
    delay; the discrete-event engine then delivers in delay order.

    Delay convention: links between correct processes stay within
    [(0, base_max]] with [base_max = 1.0], so one paper "time unit" (the
    maximum correct-link delay, §3) equals one unit of virtual time and
    measured spans are comparable across policies. Targeted policies may
    stretch {e selected} messages far beyond 1.0 — the adversary is
    allowed to do that; it just makes the run's real time-unit larger,
    which is exactly the effect the protocol must survive. *)

type io = { mutable now : float; mutable delay : float }
(** The arguments and result of one decision: the caller sets [now],
    the send's virtual time, and the policy writes [delay]. A record of
    floats only stores its fields unboxed, so a caller that owns one
    {!io} and reuses it for every send passes no float across the
    indirect call and allocates nothing per decision. *)

type t = {
  name : string;
  decide : io -> src:int -> dst:int -> kind:string -> unit;
      (** Reads [now] and sets [delay]; a wrapping policy calls its
          inner one first and then rescales [delay]. *)
}

val synchronous : unit -> t
(** Every message takes exactly 1.0 — the friendliest schedule. *)

val uniform_random : rng:Stdx.Rng.t -> t
(** Delay uniform in (0, 1]; the "random asynchrony" baseline. *)

val skewed_random : rng:Stdx.Rng.t -> t
(** Heavy-tailed: most messages fast, a few slow (exponential with mean
    0.3, capped at 1.0) — models jittery WANs while keeping the
    time-unit normalization. *)

val bimodal : rng:Stdx.Rng.t -> t
(** Most messages uniform in (0, 1], but a quarter of them take up to
    5 times as long. The stragglers
    make per-instance completion times genuinely dispersed, which is
    what exposes the O(log n) max-of-n-slots effect in the SMR
    baselines (experiment E2); all systems in a comparison run under
    the same policy, so relative shape is preserved. *)

val heavy_tailed : rng:Stdx.Rng.t -> t
(** Exponential delays with mean 1.0 and no cap: the upper tail makes
    the completion time of a fixed-size protocol instance itself
    heavy-tailed, so the max over n concurrent instances grows like
    log n — the regime in which the Ben-Or–El-Yaniv bound binds. *)

val mobile_sluggish :
  inner:t -> n:int -> f:int -> period:float -> factor:float -> t
(** The classic "mobile sluggish" adversary: at any time a rotating set
    of [f] processes (indices [(floor(now/period) * f + i) mod n]) has
    its outgoing messages stretched by [factor]. No process is slowed
    forever (liveness is preserved), but a protocol that must wait for a
    {e specific} elected process pays ~[period] whenever the coin picks
    a currently-slowed one — the geometric-views regime in which the
    Ben-Or–El-Yaniv O(log n) bound for slot-parallel SMRs binds, while
    quorum-driven DAG rounds keep advancing on the fast 2f+1. *)

val delay_process : inner:t -> victim:int -> factor:float -> t
(** Stretch every message {e from} [victim] by [factor] (censorship /
    slow-process scenario; used by the fairness experiment E3). *)

val delay_matching :
  inner:t -> pred:(src:int -> dst:int -> kind:string -> bool) -> factor:float -> t
(** Stretch messages selected by [pred]; general targeted adversary (used
    to reproduce Figure 2's "leader hidden from the wave" schedule). *)

val rush_process : inner:t -> favored:int -> t
(** Deliver the favored process's messages (almost) instantly; combined
    with [delay_process] this builds maximally unbalanced schedules. *)

val partition : inner:t -> left:(int -> bool) -> factor:float -> t
(** Stretch every message crossing between [{i | left i}] and its
    complement by [factor] — a (temporary, when wrapped in
    {!with_window}) network partition. Delays stay finite, so eventual
    delivery — the only constraint the paper's adversary has — is
    preserved; a quorum-splitting partition simply stalls waves until
    the window closes. *)

val kind_storm : inner:t -> kinds:string list -> factor:float -> t
(** Stretch every message whose kind starts with one of the given
    prefixes by [factor] — a protocol-phase-targeted delay storm (e.g.
    ["coin-"] starves wave resolution while the DAG keeps growing,
    ["bracha-ready"] holds broadcasts at the brink of delivery).
    Compose with {!with_window} for a bounded storm. *)

val with_window :
  inner:t -> from_time:float -> until_time:float -> during:t -> t
(** Use [during] for sends whose time falls in [\[from_time, until_time)],
    [inner] otherwise — lets an attack run for a bounded phase and then
    release (needed to show eventual liveness after an attack). *)
