(** DAG rendering: the repo's regeneration of the paper's Figure 1
    (DAG structure) and Figure 2 (cross-wave commit) from live runs.

    Two output formats: an ASCII grid (process rows × round columns,
    like the paper's horizontal layout) and Graphviz DOT for exact
    edge-level inspection. *)

val ascii : ?min_round:int -> ?max_round:int -> Dag.t -> string
(** Grid rendering: one row per process, one column per round. Cells
    show [*] for a present vertex and [.] for an absent one; a weak-edge
    count is appended as [*w2] when a vertex carries weak edges. *)

type vertex_class =
  | Plain
  | Elected_leader  (** coin chose it; ordering has not processed it *)
  | Skipped_leader  (** ordering skipped it (absent / under-supported) *)
  | Committed_leader  (** directly or retroactively committed *)
  | Shaded  (** in the chosen commit's causal history (Figure 2) *)
  | Supporter
      (** last-round vertex of the supporting quorum (strong path to
          the leader — the set Line 36 counted) *)
  | Chained_leader
      (** leader committed by the lines-38-43 chain-back of the
          rendered commit *)

val class_style : vertex_class -> string
(** The Graphviz attribute suffix {!dot_classified} appends to a node of
    the given class ([" [style=filled, fillcolor=gold]"] for
    {!Committed_leader}, [""] for {!Plain}) — exposed so other renderers
    (e.g. the critical-path tracer's DOT export) reuse the exact Figure
    1/2 palette instead of restating color names. *)

val dot_classified :
  ?classify:(Vertex.vref -> vertex_class) ->
  ?legend:bool ->
  ?max_round:int ->
  Dag.t ->
  string
(** Graphviz digraph, rounds ranked as columns, strong edges solid and
    weak edges dashed, with per-vertex styling in the style of the
    paper's Figures 1–2: committed leaders gold, skipped leaders red,
    elected leaders blue, causal-history members gray, everything else
    plain ([classify] defaults to all {!Plain}). [legend] (default
    false) prepends a comment block naming the colors. *)

val dot_justification :
  ?support:Vertex.vref list ->
  ?chain:Vertex.vref list ->
  ?legend:bool ->
  ?max_round:int ->
  Dag.t ->
  leader:Vertex.vref ->
  string
(** {!dot_classified} shading one commit's justification subgraph: the
    leader gold, its supporting-quorum vertices palegreen, the
    chain-back leaders orange, and the leader's causal history gray —
    the visual form of a provenance certificate (role colors override
    history shading where they overlap). *)

val wave_summary :
  Dag.t -> rule:Ordering.rule -> f:int -> leader_of:(int -> int option) ->
  string
(** Per-wave table: leader source, whether the leader vertex is present,
    and its last-round strong-path support count vs the rule's commit
    quorum (2f+1 for DAG-Rider, f+1 for Bullshark) — the data behind
    Figure 2's narrative. *)
