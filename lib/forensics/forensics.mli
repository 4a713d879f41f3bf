(** Commit forensics: reconstruct the {e justification} of every
    ordering decision from the provenance certificates the nodes emit
    ({!Trace.Commit_cert} / {!Trace.Skip_cert}).

    DAG-Rider's correctness argument is local and causal — a commit is
    justified by a wave leader, a quorum of strong paths, and the
    Algorithm 3 lines-38-43 chain-back — and the certificates carry
    exactly that evidence. This module is their one fold: it keeps the
    {!Trace.commit_cert}/{!Trace.skip_cert} records themselves as
    per-node {e wave stories} and in emission order. A ledger is always
    an analyzer's ([Analyze.ledger]), live or replayed, so each
    certificate is folded once per run. The module renders them for
    humans ([explain]) and machines (JSON), and diffs two runs'
    decision streams to the first divergent
    decision ([divergence]) — the tool PR 6's cross-rule differential
    harness was missing when all it could say was "logs differ". *)

(** A certificate as the collector stores it: the {!Trace} record
    itself, stamped with the virtual time it was emitted at. *)
type 'cert stamped = { at : float; cert : 'cert }

type story = {
  st_wave : int;
  st_skip : Trace.skip_cert stamped option;
      (** recorded when the wave was first processed without a commit *)
  st_commit : Trace.commit_cert stamped option;
      (** a later chain-back can recover a skipped wave: both fields
          set means "skipped, then recovered"; skip only means the wave
          was never committed at this node *)
}

(** One certificate in a node's emission order. *)
type decision =
  | Committed of Trace.commit_cert stamped
  | Skipped of Trace.skip_cert stamped

type t

val create : unit -> t

val feed : t -> Trace.event -> unit
(** Certificate and [A_deliver] events update the collector; everything
    else is ignored. *)

val nodes : t -> int list
(** Nodes that emitted at least one certificate, ascending. *)

val observer : t -> int option
(** The node with the most certificates (ties to the lowest id) — the
    default subject for [explain]/[divergence]. *)

val rule_name : t -> string option
(** Rule named by the certificates (they all agree within one run). *)

val stories : t -> node:int -> story list
(** The node's wave stories, ascending by wave. *)

val decisions : t -> node:int -> decision list
(** Every certificate the node emitted, oldest first. A wave can appear
    twice (skipped, then recovered by a chained commit); its story
    keeps the first skip and the last commit. *)

val ordered : t -> node:int -> (int * int) list
(** The node's [A_deliver] log as [(round, source)], oldest first. *)

val find_story : t -> node:int -> wave:int -> story option

val find_vertex :
  t -> node:int -> round:int -> source:int -> Trace.commit_cert option
(** The commit whose causal-history delivery ordered this vertex at the
    node (from the [A_deliver] attribution). *)

val justification :
  t ->
  node:int ->
  wave:int ->
  (Dagrider.Vertex.vref * Dagrider.Vertex.vref list * Dagrider.Vertex.vref list)
  option
(** [(leader, supporters, chain)] of a committed wave: the leader
    vertex, the supporting-quorum vertices (direct commits), and the
    chain-back leaders that share the commit's anchor — the inputs
    {!Dagrider.Render.dot_justification} shades. [None] when the wave
    has no commit certificate. *)

val explain_wave : t -> node:int -> wave:int -> string
(** Human rendering of one wave's certificate chain: schedule evidence,
    supporter set vs quorum, chain-back path, skip evidence, and
    whether a skip was later recovered. Waves with no certificate
    render as unresolved. *)

val explain_wave_json : t -> node:int -> wave:int -> Stdx.Json.t

val explain_vertex : t -> node:int -> round:int -> source:int -> string
(** The certificate chain of the commit that ordered this vertex. *)

val explain_vertex_json :
  t -> node:int -> round:int -> source:int -> Stdx.Json.t

val summary : t -> node:int -> string
(** One line per wave story (the swarm failure artifact's explain
    digest). *)

(** First divergent decision between two certificate streams.

    Same-rule streams compare per-wave final decisions (committed
    leader / skipped / unresolved); cross-rule streams — waves mean
    different things — compare the ordered delivery logs instead. Both
    modes binary-search cumulative digests of the stream prefixes, so
    locating the divergence costs O(log n) prefix probes. *)
type divergence =
  | No_certificates  (** one side has no certificates at all *)
  | Identical of { mode : string; compared : int }
      (** mode "waves" or "log" *)
  | Prefix of { mode : string; compared : int; longer : string; extra : int }
      (** equal up to the shorter stream; [longer] is "A" or "B" *)
  | Diverged_wave of { wave : int; a : story option; b : story option }
  | Diverged_entry of {
      index : int;  (** 0-based position in the ordered logs *)
      a_vertex : int * int;
      b_vertex : int * int;  (** (round, source) *)
      a_commit : Trace.commit_cert option;
      b_commit : Trace.commit_cert option;
    }

val divergence : t -> node_a:int -> t -> node_b:int -> divergence

val render_divergence : t -> node_a:int -> t -> node_b:int -> string
(** {!divergence} plus both sides' full certificate evidence at the
    divergence point. *)

val divergence_to_json : t -> node_a:int -> t -> node_b:int -> Stdx.Json.t
