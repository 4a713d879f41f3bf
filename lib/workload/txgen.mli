(** Transaction and block generation for the experiments.

    The paper measures communication per {e transaction} and assumes
    each broadcast message carries a block (batch) of transactions (§3).
    This module produces deterministic synthetic transactions, batches
    them into blocks, and parses blocks back for auditing (e.g. checking
    that a censored process's transactions were eventually ordered). *)

type tx = {
  owner : int;   (** proposing process *)
  seqno : int;   (** per-owner sequence number *)
  body : string; (** opaque payload *)
}

val tx_to_string : tx -> string

val tx_of_string : string -> tx option
(** Parse ["<owner>\x1f<seqno>\x1f<body>"], the body free of [\x1f].
    Each number must be exactly what [string_of_int] prints, with
    [0 <= owner < 2{^30}] and [0 <= seqno < 2{^32}]: a sign, [0x], [_],
    a leading zero or an overlong field is rejected, so one transaction
    key has one rendering. *)

val key : owner:int -> seqno:int -> int
(** [owner lsl 32 lor seqno]: distinct for distinct in-range pairs, so
    an [int] names a transaction.
    @raise Invalid_argument if [owner] or [seqno] is outside the range
    {!tx_of_string} accepts. *)

val tx_bytes : body_bytes:int -> int
(** Serialized size of a transaction with the given body size (for
    batch-size arithmetic in the experiments). *)

type gen
(** Deterministic per-owner transaction stream. *)

val gen : owner:int -> body_bytes:int -> gen

val next_tx : gen -> tx
val produced : gen -> int

val make_block : gen -> count:int -> string
(** Batch the next [count] transactions into one block. *)

val block_txs : string -> tx list
(** Parse a block back into transactions: the records between [\x1e]
    separators that {!tx_of_string} accepts, in order ([] for blocks
    produced elsewhere, e.g. the harness's padding blocks). *)

val iter_keys : string -> (int -> int -> unit) -> unit
(** [iter_keys block f] calls [f owner seqno] for each transaction
    {!block_txs} would return, in order, through the same parser. It
    reads each byte once and allocates nothing per record. *)

val block_of_txs : tx list -> string
(** The transactions' {!tx_to_string} renderings joined by [\x1e],
    written once into a string of the exact size ([""] for no
    transactions). *)

val block_of_array : tx array -> count:int -> string
(** [block_of_array txs ~count] is [block_of_txs] of the first [count]
    elements of [txs]. *)
