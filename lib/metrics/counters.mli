(** Communication accounting.

    The paper measures communication complexity as the total number of
    bits sent by {e honest} processes to order a single transaction
    (§3). The network layer reports every send here, tagged with the
    message kind (e.g. ["bracha-echo"], ["avid-fragment"], ["coin-share"])
    so experiments can break totals down by protocol phase. *)

type t

val create : unit -> t

val record_send : t -> src:int -> kind:string -> bits:int -> unit
(** Charge one message of [bits] from process [src] (a non-negative
    index) to its [kind]. Hashes nothing when [kind] is physically the
    kind of the previous send, as in a broadcast of a literal kind. *)

val total_bits : t -> int
(** All bits sent, all senders. *)

val total_bits_from : t -> senders:(int -> bool) -> int
(** Bits sent by processes selected by the predicate (used to restrict
    accounting to honest processes, per the paper's definition). *)

val total_messages : t -> int

val bits_by_kind : t -> (string * int) list
(** Per-kind totals, sorted descending by bits. *)

val reset : t -> unit
