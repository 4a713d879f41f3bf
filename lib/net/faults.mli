(** Link-fault injection policies.

    The paper's model (§2) gives every pair of correct processes a
    reliable authenticated link; {!Sched} only chooses {e when} a
    message arrives. A fault policy breaks the reliability half: per
    message it may drop the delivery, schedule extra duplicate copies,
    flag the payload for bit-corruption, or add reordering delay —
    each decided per-link with seeded probabilities, so lossy
    executions stay deterministic replays of their seed. {!Network}
    consults the installed policy on every send (see
    {!Network.set_faults}); the {!Link} transport is the layer that
    rebuilds the reliable abstraction on top. *)

type verdict = {
  drop : bool;  (** lose the message entirely *)
  duplicates : int;  (** deliver this many extra copies *)
  corrupt : bool;  (** flip bits in every delivered copy *)
  extra_delay : float;  (** added to the schedule's delay (reordering) *)
}

val clean : verdict
(** Deliver exactly once, unmodified, on time. *)

type t = {
  name : string;
  decide : Sched.io -> src:int -> dst:int -> kind:string -> verdict;
      (** Reads the send's time from [now] of the caller's {!Sched.io}
          (so the time crosses the call unboxed) and leaves [delay]
          alone. *)
}

val none : t
(** Always {!clean} — the paper's reliable links. *)

val lossy :
  rng:Stdx.Rng.t ->
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?reorder:float ->
  ?reorder_spread:float ->
  unit ->
  t
(** Independent per-message faults: each probability (default 0.0)
    triggers its fault via a seeded draw. A reordered message gains a
    uniform extra delay in [0, reorder_spread) (default spread 3.0 —
    several times the baseline schedules' delays, enough to overtake
    later sends). Draw order is fixed, so a policy built from a split
    of the run's root RNG keeps the execution deterministic.
    @raise Invalid_argument on a probability outside [0,1] or a
    negative spread. *)

val on_links : pred:(src:int -> dst:int -> bool) -> t -> t
(** Restrict a policy to matching links; others get {!clean}. Note the
    inner policy only draws on matching links, so narrowing a policy
    also changes the RNG stream — derive policies from separate splits
    when comparing runs. *)

val with_window : from_time:float -> until_time:float -> t -> t
(** Apply the inner policy only in [[from_time, until_time)] — a burst
    of loss, like {!Sched.with_window} is a burst of latency. *)
