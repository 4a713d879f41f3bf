(** A set of ints drawn from a dense sequence, kept as a watermark.

    The set holds every int below its {e floor}, plus a table of the
    members above it. The floor starts at 0, so every negative int is a
    member from the start. Adding the floor itself raises it past every
    member that now follows it without a gap, so a sequence added in
    order, or out of order within a window, keeps the table empty or
    small: the space is the number of members above the floor, not the
    number ever added. Sparse members cost one table entry each, as in a
    plain hash set.

    The table is created by the first add above the floor, so {!create}
    allocates one small record. *)

type t

val create : unit -> t

val mem : t -> int -> bool

val add : t -> int -> bool
(** [add t x] makes [x] a member. [true] iff it was not one before. *)

val above_floor : t -> int
(** Members above the floor: the entries the table holds. *)
