(** Minimum-priority queue keyed by [(priority, sequence)] pairs.

    The discrete-event engine takes events in order of virtual time;
    ties are broken by an insertion sequence number, so execution is
    fully deterministic whatever the heap's internals. The keys must be
    pairwise distinct (the engine's sequence numbers are), which makes
    [(priority, seq)] a total order: any correct heap takes the same
    sequence.

    The structure is a binary heap of immediates over slot rows. Each
    entry's value, and the [int] argument carried beside it (the
    engine's events are a callback plus an int), sit in a slot: one row
    of values and one of arguments, indexed by slot, written once by
    {!push} and cleared once by {!take}. The heap itself is three rows
    indexed by heap position: an unboxed [float array] of priorities,
    an [int array] of sequence numbers and an [int array] of slots. A
    sift therefore moves only immediates and never runs the write
    barrier that storing a boxed value costs. Freed slots go on a
    last-in first-out stack and a fresh slot is handed out only when
    it is empty, so no more slots are handed out than the peak length
    ({!slot_capacity}). The rows start empty and double on demand.
    {!take} allocates nothing, nor does {!push} unless the rows double.
    A freed slot's value is overwritten with the [dummy] given to
    {!create}, so the queue keeps no taken value alive.

    Against the four-field heap this replaced, which moved the value
    (and paid the barrier) at every sift level, a closed n=16 engine
    and network loop with no-op handlers went from 433-437 ns to
    311-316 ns per message at 2,250 events in flight, and from
    520-529 ns to 365-374 ns at 16,000 (one 2-core x86-64 VM). A 4-ary
    heap on the four-field layout, and a packed [int] key (the
    priority's bits) interleaved with the slot in one array, measured
    no better. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue. [dummy] fills the slots that hold no entry; it is
    never returned. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> seq:int -> arg:int -> 'a -> unit
(** [push q ~priority ~seq ~arg v] inserts [v] with its argument [arg].
    Lower [priority] is taken first; among equal priorities, lower
    [seq] is taken first. *)

val min_priority : 'a t -> float
(** Priority of the minimum entry.
    @raise Invalid_argument on an empty queue. *)

val min_arg : 'a t -> int
(** Argument of the minimum entry.
    @raise Invalid_argument on an empty queue. *)

val take : 'a t -> 'a
(** Remove the minimum entry and return its value. Read its priority
    and argument first with {!min_priority} and {!min_arg}.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit

val slot_capacity : 'a t -> int
(** Slots handed out since {!create}: the peak {!length}. Reading it
    costs nothing per push; a slot is handed out only when every one
    handed out before is in use. *)
