(** Minimum-priority queue keyed by [(priority, sequence)] pairs.

    The discrete-event engine takes events in order of virtual time;
    ties are broken by an insertion sequence number, so execution is
    fully deterministic whatever the queue's internals. The keys must be
    pairwise distinct (the engine's sequence numbers are), which makes
    [(priority, seq)] a total order: any correct queue takes the same
    sequence.

    The structure is a calendar queue (Brown, CACM 1988) over slot
    rows. Each entry sits in a slot: rows of priorities (an unboxed
    [float array]), sequence numbers, values, [int] arguments (the
    engine's events are a callback plus an int) and [next] links, all
    indexed by slot, written once by {!push}. Virtual time is cut into
    buckets of one width; an entry's virtual bucket is
    [int_of_float (priority *. (1 /. width))], and a table of
    {!buckets} list heads, a power of two, holds bucket [b] at
    [b land (buckets - 1)], so one list holds the buckets a "year"
    apart. A list is threaded through the [next] row: filing an entry
    allocates nothing. The bucket being drained is sorted by
    [(priority, seq)] into a small front array, and {!take} pops its
    minimum from the end; when the front runs out, {!take} loads the
    next bucket that holds entries, walking at most one year of lists
    before it jumps to the lowest bucket it saw. {!min_priority} and
    {!min_arg} read the front's minimum and do no other work.

    Width policy: on the first push, and whenever the population has
    doubled or halved since, the queue relinks every entry into
    [pow2 >= max 16 length] buckets whose width is three times the mean
    gap between the 64 smallest priorities (the old width if they are
    all equal). A load that walks more than 12 buckets or brings more
    than 12 entries has the width re-estimated, and the queue relinks
    if the estimate is off by more than a factor of two. A push ordered
    before the front's largest entry (into the drained bucket or below
    it), which the engine rarely makes and the API allows, is inserted
    into the sorted front.

    Why the order is exact: the virtual bucket never decreases as the
    priority grows (a rounded product by a positive constant and a
    truncation are both monotone, and the clamp at [+-2^61] keeps
    them so), so every entry of a lower bucket precedes every entry of
    a higher one, and within a bucket the front is sorted by the full
    key. So the queue takes exactly the [(priority, seq)] order of any
    other correct priority queue, whatever its width and bucket count.

    Freed slots go on a last-in first-out stack and a fresh slot is
    handed out only when it is empty, so no more slots are handed out
    than the peak length ({!slot_capacity}). The rows start empty and
    double on demand; the bucket table and the front keep their capacity
    when the population falls. So {!push} and {!take} allocate nothing
    except when a row, the table or the front grows past its peak. A
    freed slot's value is overwritten with the [dummy] given to
    {!create}, so the queue keeps no taken value alive.

    Against the binary heap of immediates this replaced, replaying the
    recorded seed-42 push and take stream of an n=16 fleet (about 2,400
    events in flight) went from a median of 263 to 115 ns per event,
    and of an n=31 fleet (about 30,000) from 318 to 146 (one 2-core
    x86-64 VM). At an n=100 fleet's 10{^6} events the two read alike,
    900-1000 ns, because every entry's rows are out of cache by the
    time it is taken. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue. [dummy] fills the slots that hold no entry; it is
    never returned. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> priority:float -> seq:int -> arg:int -> 'a -> unit
(** [push q ~priority ~seq ~arg v] inserts [v] with its argument [arg].
    Lower [priority] is taken first; among equal priorities, lower
    [seq] is taken first. Infinite priorities are allowed.
    @raise Invalid_argument on a nan priority. *)

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

val buckets : 'a t -> int
(** Length of the bucket table: 0 before the first push and after
    {!clear}, then a power of two of at least 16 and at least the
    population at the last re-tune. *)

val bucket_width : 'a t -> float
(** Width of one bucket in priority units, as set by the last re-tune
    (1 before the first). *)
