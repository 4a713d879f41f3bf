(** Transport abstraction the protocol stacks are written against.

    A port is the narrow waist between a protocol (reliable broadcast,
    coin shares, catch-up sync) and whatever carries its messages: a
    bare {!Network} when links are assumed reliable, or an array of
    {!Link} endpoints rebuilding reliability over a lossy network. The
    API mirrors {!Network}'s send/broadcast/register shape, so
    protocol code is transport-agnostic and {!of_network} delegates
    directly — a port over a reliable network behaves byte-identically
    to using the network in place. *)

type 'msg t

val n : 'msg t -> int

val send : 'msg t -> src:int -> dst:int -> kind:string -> bits:int -> 'msg -> unit

val broadcast : 'msg t -> src:int -> kind:string -> bits:int -> 'msg -> unit
(** {!send} to all [n] processes, self included, in index order. Over
    links the message is encoded once ({!Link.broadcast}). *)

val register : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Install process [i]'s handler; re-registering replaces it. *)

val unregister : 'msg t -> int -> unit

val of_network : 'msg Network.t -> 'msg t
(** Direct delegation — same behavior, same schedule, same traces. *)

val of_links : 'msg Link.t array -> 'msg t
(** [send ~src] and [broadcast ~src] go out through [links.(src)]; handlers install on
    the destination endpoint. The array must hold one endpoint per
    process, index-aligned.
    @raise Invalid_argument on an empty array. *)
