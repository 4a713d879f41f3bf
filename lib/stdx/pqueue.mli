(** Minimum-priority queue keyed by [(priority, sequence)] pairs.

    The discrete-event engine takes events in order of virtual time;
    ties are broken by an insertion sequence number, so execution is
    fully deterministic whatever the heap's internals. The keys must be
    pairwise distinct (the engine's sequence numbers are), which makes
    [(priority, seq)] a total order: any correct heap takes the same
    sequence.

    The structure is a binary heap stored one array per field: an
    unboxed [float array] of priorities, an [int array] of sequence
    numbers, the values, and an [int] argument carried beside each
    value (the engine's events are a callback plus an int). The arrays
    start empty and double on demand. {!take} allocates nothing and
    overwrites the slot it vacates with the [dummy] given to {!create},
    so the queue keeps no taken value alive. *)

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
