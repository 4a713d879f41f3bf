(** Proposal-to-delivery latency recording.

    An experiment marks the virtual time a payload was proposed
    ([proposed]) and the time each process delivered it ([delivered]);
    the recorder exposes per-payload first-delivery latency and summary
    statistics, in the paper's "time units". *)

type t

type key = string
(** Payload identifier (any unique string; experiments use the block
    digest or "source:seqno"). *)

val create : ?processes:int -> unit -> t
(** Each payload's record makes room for the deliveries of processes
    [0 .. processes - 1] (default 4); a higher process id grows it. *)

val proposed : t -> key -> now:float -> unit
(** First call wins; re-proposals keep the original timestamp. *)

val delivered : t -> key -> process:int -> now:float -> unit
(** Record [process]'s delivery at [now]; only its first counts.
    Ignored for a payload never proposed. Allocates nothing once the
    payload's record has room for [process].
    @raise Invalid_argument if [process] is negative. *)

val first_delivery_latency : t -> key -> float option
(** Time from proposal to the earliest delivery at any process; [None]
    if not yet delivered or never proposed. *)

val all_first_delivery_latencies : t -> float list
(** Latencies of every payload delivered at least once, sorted
    ascending (the recorder is hash-backed; sorting keeps reports
    independent of table iteration order). *)

val undelivered : t -> key list
(** Proposed payloads no process has delivered yet (liveness audits),
    sorted by key. *)

val proposed_at : t -> key -> float option
(** The recorded proposal timestamp ([None] if never proposed) — lets a
    live observer (the monitor's sliding-window percentiles) compute a
    delivery's latency at the moment it happens. *)

val delivery_count : t -> key -> int
(** Number of distinct processes that delivered the payload. *)

val per_process_latency : t -> key -> (int * float) list
(** Proposal-to-delivery latency at each process that delivered the
    payload, sorted by process id. Only the first delivery at each
    process counts; [[]] if never proposed or not yet delivered. *)

val all_per_process_latencies : t -> float list
(** Every (payload, process) delivery latency pooled together, sorted
    ascending — the distribution a "time to delivery at each process"
    histogram is built from. *)
