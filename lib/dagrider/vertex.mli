(** DAG vertices and their wire codec (paper Algorithm 1).

    A vertex carries a block of transactions, at least [2f+1] strong
    edges to round [r-1] vertices, and weak edges to older vertices not
    otherwise reachable. Per the paper's footnote 2, edges reference
    vertices by [(round, source)] rather than by value — reliable
    broadcast guarantees at most one vertex per (round, source), so the
    reference is unambiguous.

    [round] and [source] of a delivered vertex are taken from the
    reliable-broadcast layer (Algorithm 2 lines 23–24), not from the
    attacker-controlled payload; the codec therefore serializes only the
    block and the edge lists. *)

type vref = { round : int; source : int }
(** Reference to a vertex. *)

type t = {
  round : int;
  source : int;
  block : string; (* opaque transaction batch; see Workload *)
  strong_edges : vref list;
  weak_edges : vref list;
}

val vref_of : t -> vref

val compare_vref : vref -> vref -> int
(** Round-major, then source — the deterministic order used when
    delivering a leader's causal history. *)

val encode : t -> string
(** Serialize [block]/[strong_edges]/[weak_edges] (length-prefixed
    binary). [round] and [source] travel in the broadcast envelope. *)

val decode : round:int -> source:int -> string -> t option
(** Parse a payload delivered by reliable broadcast, attaching the
    envelope's round and source. [None] on malformed bytes (Byzantine
    senders can put anything in a payload). *)

val decode_prefix : round:int -> source:int -> string -> len:int -> t option
(** {!decode} of the payload's first [len] bytes, read in place: a
    frame that carries more after the vertex is not copied.
    @raise Invalid_argument unless [0 <= len <= String.length payload]. *)

val validate : n:int -> f:int -> t -> (unit, string) result
(** Structural checks from Algorithm 2 line 25 plus edge sanity:
    [round >= 1]; at least [2f+1] strong edges, all to round [round-1];
    weak edges to rounds in [\[1, round-2\]]; all edge sources in
    [\[0, n)]; no duplicate edge targets; no weak edge duplicating a
    strong edge. Returns a reason on failure so tests can assert which
    rule rejected a crafted vertex. *)

val digest : t -> string
(** SHA-256 over the canonical encoding plus envelope, used as payload
    identity in metrics and examples. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering like [v(r=3,p=1,|b|=120,s=4,w=1)]. *)
