(** Deterministic discrete-event simulation engine.

    The whole reproduction runs on virtual time: every message delivery,
    timer, and protocol step is an event in one priority queue ordered by
    [(time, insertion sequence)], so a run is a pure function of the seed
    and the code — re-running with the same seed replays the exact
    schedule, which is what makes the adversarial-schedule tests
    meaningful.

    The queue is {!Stdx.Pqueue}, a calendar queue that allocates
    nothing per event once it has grown, and an event is a callback plus
    an [int] argument, so a caller can schedule without building a
    closure per event ({!schedule_call}). The event's time, sequence
    number, callback and argument sit in a slot written once when the
    event is queued; the slot is linked into the bucket of virtual time
    its event falls in, and the bucket being drained is sorted by
    [(time, seq)]. Queueing and taking do an amortized constant number
    of steps whatever the number of events in flight, and the order is
    the exact [(time, seq)] order. All bucket work (loading the next bucket,
    re-tuning the bucket width and count) happens in the take inside
    {!step}, so a profiled run charges it to [engine.dispatch]; reading
    the next event's time, as {!run} does before each step, is two
    array reads. A time must be finite: the queue has no bucket for nan
    or an infinite time.

    Virtual time is a [float] in abstract "time units". The paper (§3,
    after Canetti–Rabin) defines a time unit as the maximum message delay
    among correct processes; schedulers in [Net.Sched] keep correct-link
    delays within [(0, 1]] so that measured spans are directly comparable
    to the paper's time-complexity claims. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative and finite; events at equal times run in scheduling
    order.
    @raise Invalid_argument on a negative, nan or infinite delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past are clamped to [now].
    @raise Invalid_argument on a nan or infinite time. *)

val schedule_call : t -> delay:float -> (int -> unit) -> int -> unit
(** [schedule_call t ~delay f arg] runs [f arg] at [now t +. delay].
    Same ordering as {!schedule}: both draw from one sequence counter,
    so thunk and call events interleave strictly by [(time, seq)]. A
    caller that builds [f] once and passes its per-event state as
    [arg] (the network passes an in-flight slot index) schedules an
    event without allocating a closure for it.
    @raise Invalid_argument on a negative, nan or infinite delay. *)

val run : t -> ?max_events:int -> ?until:float -> unit -> int
(** Drain the event queue. Stops when it is empty, after [max_events]
    events (default unlimited), or before the first event later than
    [until] (default unlimited). Returns the number of events executed.
    When stopping on [until], the clock advances to [until]. *)

val step : t -> bool
(** Execute one event. Returns [false] if the queue was empty. *)

val pending : t -> int
(** Events currently queued. *)

val slot_capacity : t -> int
(** The most events ever queued at once, read off the queue's slot
    rows at no per-event cost ({!Stdx.Pqueue.slot_capacity}). *)

val buckets : t -> int
(** Length of the queue's bucket table ({!Stdx.Pqueue.buckets}): 0
    before the first event, then a power of two that follows the
    number of events queued. *)

val bucket_width : t -> float
(** Virtual time one bucket of the queue spans
    ({!Stdx.Pqueue.bucket_width}). *)

val events_executed : t -> int
(** Total events executed since creation (simulation-cost metric). *)

val set_sampler : t -> interval:float -> (time:float -> executed:int -> pending:int -> unit) -> unit
(** Install a periodic observer: every [interval] time units the engine
    runs [f ~time ~executed ~pending] as a regular event. The sampler
    re-arms itself only while other events remain queued, so a drained
    simulation still terminates — but note it does occupy queue slots,
    so only install one when observing (the harness does this exactly
    when tracing is enabled, keeping untraced runs schedule-identical).
    @raise Invalid_argument on a non-positive interval. *)
