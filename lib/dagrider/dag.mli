(** A process's local view of the round-structured DAG (paper §4).

    [DAG_i[r]] is the set of round-[r] vertices the process has
    incorporated; a vertex is only added once all its strong- and
    weak-edge targets are present (Algorithm 2 line 7), so by
    construction every vertex's full causal history is in the store
    (Claim 1) — an invariant [add] enforces.

    Round 0 holds [n] genesis vertices (one per source, no edges) that
    bootstrap round 1's strong edges; see DESIGN.md §6 on this reading
    of the paper's "predefined hardcoded set". *)

type t

val create : n:int -> t
(** Fresh DAG containing only the genesis round. *)

val n : t -> int

val find : t -> Vertex.vref -> Vertex.t option

val contains : t -> Vertex.vref -> bool

val holds : t -> Vertex.t -> bool
(** Is the slot of this vertex's round and source occupied? {!contains}
    without building the reference. *)

val round_vertices : t -> int -> Vertex.t list
(** Vertices of a round, sorted by source (deterministic iteration). *)

val round_refs : t -> int -> Vertex.vref list
(** The references of {!round_vertices}, built in one pass: a new
    vertex's strong edges (Algorithm 2, line 18). *)

val round_size : t -> int -> int

val size : t -> int
(** Total vertices in the store, genesis included — an O(1) probe for
    growth monitoring (the DAG only grows until §8-style garbage
    collection prunes it). *)

val highest_round : t -> int
(** Largest round with at least one vertex (0 for a fresh DAG). *)

val pruned_below : t -> int
(** The garbage-collection horizon: every round below it is empty
    (0 until {!prune_below} first runs). *)

val window_rounds : t -> int
(** Rounds the store holds a row for: from {!pruned_below} up to the
    highest round inserted since, so never more than the retained
    rounds. *)

val mark_delivered : t -> Vertex.vref -> unit
(** Record that the ordering layer has output this vertex: one bit in
    its round's row. A vertex below {!pruned_below} already reads as
    delivered, so marking it is a no-op.
    @raise Invalid_argument if the vertex is not in the store. *)

val is_delivered : t -> Vertex.vref -> bool
(** Has {!mark_delivered} marked this vertex? Every round below
    {!pruned_below} reads as delivered: it lies below the floor of every
    later history walk, so nothing there is output any more, whether it
    was or not. A vertex absent from a retained round is not
    delivered. *)

val vertex_delivered : t -> Vertex.t -> bool
(** {!is_delivered} on a vertex, without building its reference: the
    test an ordering passes to {!causal_history}. *)

val can_add : t -> Vertex.t -> bool
(** All edge targets present and in earlier rounds (Algorithm 2
    line 7)? Targets below {!pruned_below} count as present. Allocates
    nothing. *)

val add : t -> Vertex.t -> unit
(** Insert a vertex. A vertex of a round below {!pruned_below} is
    dropped: that round was garbage-collected and stays empty.
    @raise Invalid_argument if the source is out of range, if a
    predecessor is missing or an edge does not point to an earlier round
    (the buffer in {!Node} must hold the vertex back until {!can_add}),
    or if a different vertex already occupies [(round, source)] —
    reliable broadcast makes that impossible for honest stacks, so it
    indicates a harness bug. Re-adding the identical vertex is a
    no-op. *)

val strong_path : t -> Vertex.vref -> Vertex.vref -> bool
(** [strong_path t v u]: is [u] reachable from [v] via strong edges only
    (Algorithm 1 line 3)? Reflexive: [strong_path t v v = true] when [v]
    is present. *)

val path : t -> Vertex.vref -> Vertex.vref -> bool
(** Reachability via strong or weak edges (Algorithm 1 line 1). *)

val supporters : t -> Vertex.vref -> round:int -> Vertex.t list
(** [supporters t u ~round]: the vertices of [round] with a strong path
    to [u], sorted by source — one upward sweep instead of a
    {!strong_path} query per vertex. *)

val causal_history :
  ?delivered:(Vertex.t -> bool) -> t -> Vertex.vref -> Vertex.t list
(** Every vertex reachable from [v] (inclusive), i.e. the set
    [{u | path v u}], sorted by {!Vertex.compare_vref}. Empty if [v] is
    absent. Genesis vertices are excluded — they carry no blocks — and
    so is every round below {!pruned_below}, the walk's floor.

    With [~delivered], vertices it accepts are neither returned nor
    walked through, so the walk stops at the delivered frontier. The
    result is [{u | path v u}] minus the delivered set whenever that set
    is causally closed (it holds the whole history of each of its
    members), as an ordering's delivered set is. *)

val reachable_from : t -> Vertex.vref -> via_strong_only:bool -> Vertex.vref list
(** Lower-level reachability (inclusive, genesis included), sorted by
    {!Vertex.compare_vref}; used by the renderer and the analyzer. *)

val weak_edges :
  t -> round:int -> strong_edges:Vertex.vref list -> Vertex.vref list
(** Algorithm 2's [setWeakEdges] for a new vertex of [round] with the
    given strong edges: each vertex of rounds [round - 2] down to 1 with
    no path from the new vertex, where a vertex already chosen counts as
    a target. Ordered by increasing round, and by decreasing source
    within a round; the order is on the wire.

    The DAG remembers its latest call of each round parity. When a
    vertex with exactly a remembered call's edges is one of
    [strong_edges] (a call for the round before) or in the DAG at all
    (a call for the round before that), the walk skips what that call
    already settled and visits only the rows above it and the vertices
    inserted since. Otherwise it visits every retained row. The result
    is the same either way. *)

val vertices : t -> Vertex.t list
(** All non-genesis vertices, sorted. *)

val prune_below : t -> round:int -> unit
(** Garbage-collection extension (DESIGN.md §6): drop all rounds
    [< round], delivered bits included. Reachability queries then treat
    missing targets as dead ends, {!causal_history} walks no lower, and
    {!is_delivered} reads those rounds as delivered. Only call with a
    round no process will deliver below: {!Ordering} prunes at the
    floor its committed leaders set, the same on every process. Off by
    default everywhere. *)
