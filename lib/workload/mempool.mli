(** Client-facing transaction pool feeding a DAG-Rider node.

    The paper assumes each process always has a block to propose
    (Algorithm 2 line 17); a real deployment sits a mempool between
    clients and the node: clients submit transactions, the node's
    [block_source] drains a batch per vertex, and the a_deliver stream
    retires transactions once they appear in the total order — including
    transactions that arrived via {e other} processes' blocks (clients
    often submit to several processes for latency).

    Dedup is per owner: the seqnos seen (submitted here or ordered) and
    the seqnos ordered are each a {!Stdx.Seqset}, a watermark plus the
    seqnos above it, so a client numbering its transactions densely
    from 0 costs constant space however many it sends. The in-flight
    set is keyed by the transaction's {!Txgen.key}, one [int]; a
    delivered block is scanned in place by {!Txgen.iter_keys}. *)

type t

val create : ?max_batch:int -> ?max_pending:int -> owner:int -> unit -> t
(** [max_batch] (default 64) caps transactions per assembled block.
    [max_pending] (default unbounded) caps the pending queue: submits
    beyond it are shed with backpressure (see {!submit}). *)

val submit : t -> Txgen.tx -> bool
(** Queue a transaction. [false] if it was a duplicate (same owner and
    seqno as a pending or already-retired transaction) and was dropped,
    or if the pending queue is at [max_pending] — a backpressure
    rejection counted in {!rejected}; unlike a duplicate, a rejected
    transaction is {e not} remembered, so the client may retry it once
    the queue drains.
    @raise Invalid_argument if the transaction's owner or seqno is
    outside the range {!Txgen.tx_of_string} accepts. *)

val assemble_block : t -> string
(** Drain up to [max_batch] pending transactions into a block (the
    node's [block_source]). Returns the empty block when nothing is
    pending — the vertex still flies, carrying no payload. Assembled
    transactions move to the in-flight set; they are not re-proposed
    (Validity guarantees the vertex carrying them is eventually
    ordered). *)

val retire_block : t -> string -> int
(** Process a delivered block (from {e any} source): every transaction
    in it ({!Txgen.block_txs}) is marked ordered and will be rejected as
    a duplicate if re-submitted. Returns how many of them were in flight
    here. *)

val pending : t -> int
val in_flight : t -> int
val submitted : t -> int
val retired : t -> int
val rejected : t -> int
(** Counters for experiments and backpressure decisions. [rejected]
    counts submits shed by the [max_pending] cap. *)

val retained : t -> int
(** The dedup state held: owners tracked plus the seqnos above their
    watermarks, over both sets. Stays flat while clients number their
    transactions densely; a gap that is never filled (a submit shed by
    backpressure and never retried, or a Byzantine block's sparse
    seqnos) keeps every later seqno of that owner above the mark. *)
