(** Decimal renderings of ints written straight into a byte buffer.

    [length v] and [write] agree with [string_of_int] (and [%d]) for
    every int, [min_int] included, so a caller can size a buffer once
    and fill it without building the digits as a string first. *)

val length : int -> int
(** [String.length (string_of_int v)]. *)

val write : Bytes.t -> pos:int -> int -> int
(** [write b ~pos v] writes [string_of_int v] into [b] from [pos] and
    returns the position just after it.
    @raise Invalid_argument if it does not fit in [b]. *)
