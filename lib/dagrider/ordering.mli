(** The zero-communication ordering layer, parameterized by a
    {e commit rule} (paper §5, Algorithm 3; Bullshark's partially
    synchronous rule as the second instance).

    The DAG is split into waves of [rule_wave_length] rounds;
    [round (w, k)] is round [L(w-1) + k] for [k] in [1..L]. When a
    process completes a wave it identifies that wave's leader vertex —
    retrospectively via the global coin (DAG-Rider) or by a predefined
    round-robin schedule (Bullshark) — and commits it if at least
    [quorum_of rule ~f] vertices of the wave's last round have a strong
    path to it. Committed leaders chain backwards through waves whose
    commit rule this process missed (Lines 39–43), and each leader's
    not-yet-delivered causal history is output in a deterministic
    order.

    A {!rule} record is the only place the wave length and the commit
    quorum are set; every helper below takes it whole.

    This module is purely local: it reads the DAG and the resolved
    leader schedule and produces delivery events — exactly the paper's
    "zero extra communication" claim, kept testable by construction. *)

type leader_schedule =
  | Coin        (** retrospective threshold-coin election (DAG-Rider) *)
  | Round_robin (** predefined leader [(w-1) mod n] (Bullshark PS) *)

type quorum_rule =
  | Two_f_plus_one (** supermajority of the wave's last round *)
  | F_plus_one     (** one correct vote suffices (Bullshark fast path) *)
  | Fixed of int
      (** a constant vote count below the safe thresholds — planted
          only, by the checker's sabotage self-test (quorum 0) and the
          Lemma-1 counterexample (quorum f), to show why the paper's
          quorum is needed; never in an experiment *)

type rule = {
  rule_name : string;        (** stable CLI / JSON / span identifier *)
  rule_wave_length : int;    (** rounds per wave (4 resp. 2) *)
  rule_schedule : leader_schedule;
  rule_quorum : quorum_rule; (** direct-commit vote threshold *)
  rule_bound : float;
      (** advisory waves-per-commit bound the analyzer audits:
          DAG-Rider's expected 1.5 (Claim 6); for Bullshark 2.0 — the
          round-robin rotation commits every correct leader's wave in
          synchronous periods ([n/(n-f) <= 1.5] of the waves), with
          slack for timeout-fallback schedules where leader slots are
          skipped and recovered by the chain-back *)
}

val dag_rider : rule
(** The paper's Algorithm 3: 4-round waves, coin-chosen retrospective
    leaders, [2f+1] strong-path supporters. *)

val bullshark : rule
(** The partially synchronous Bullshark rule on the same DAG substrate:
    2-round waves, round-robin predefined leaders, [f+1] first-round
    votes. The timeout-driven leader skip of the real protocol maps to
    wave completion here: a process that assembles the wave's last
    round without the leader (or without [f+1] votes for it) skips the
    wave and relies on a later leader's chain-back. *)

val rules : rule list

val rule_of_name : string -> rule option
(** Look a rule up by [rule_name] ("dagrider" / "bullshark"). *)

val quorum_of : rule -> f:int -> int
(** The rule's direct-commit quorum: [2f+1], [f+1], or the fixed count. *)

val coin_wave_length : rule -> int
(** The coin cadence in rounds, derived from the rule: coin-scheduled
    rules flip coin instance [w] as ordering wave [w] completes, so it is
    their own [rule_wave_length]; round-robin rules never read the coin
    but keep it flipping on {!dag_rider}'s 4-round cadence, so the rule
    choice cannot perturb the message schedule or the RNG chain. *)

val round_robin_leader : n:int -> wave:int -> int
(** The predefined Bullshark leader of a wave: [(wave - 1) mod n].
    @raise Invalid_argument if [wave < 1]. *)

type t

type commit = {
  wave : int;               (** wave whose leader this is *)
  leader : Vertex.t;        (** the committed leader vertex *)
  delivered : Vertex.t list;(** newly delivered causal history, in order *)
  direct : bool;            (** committed by its own wave's commit rule
                                ([false] = chained from a later wave) *)
  support : Vertex.vref list;
      (** provenance of a direct commit: the wave's last-round vertices
          with a strong path to the leader — the exact set the Line 36
          vote count was taken over. Empty for chained commits, whose
          evidence is [via]. *)
  anchor : int;
      (** the wave whose direct commit fired this decision; equals
          [wave] for direct commits, the wave at the top of the
          lines-38-43 chain for chained ones *)
  via : Vertex.vref;
      (** the next committed leader up the chain whose strong path to
          this leader justified a chained commit; the leader itself
          when [direct] *)
}

type skip_reason =
  | Leader_absent    (** no leader vertex in the local DAG (Line 47) *)
  | Under_supported  (** leader present, support below the quorum *)

val skip_reason_label : skip_reason -> string
(** Stable identifiers "leader-absent" / "under-supported" (the trace
    certificate encoding). *)

val create : ?rule:rule -> ?gc_depth:int -> f:int -> unit -> t
(** Defaults to {!dag_rider}. Variants are plain record updates: the
    wave-length ablation runs [{ dag_rider with rule_wave_length = l }]
    (shorter coin waves break the common-core argument, DESIGN.md §5),
    and the quorum-f counterexample in the integration tests runs
    [{ dag_rider with rule_quorum = Fixed f }] (a weaker quorum breaks
    Lemma 1). [gc_depth] (default none) garbage-collects the DAG, see
    {!process_wave}. @raise Invalid_argument if [rule_wave_length < 1]
    or [gc_depth < 0]. *)

val round_of : wave_length:int -> wave:int -> k:int -> int
(** [round(w, k) = L(w-1) + k] for wave length [L]; [k] must be in
    [1..L]. @raise Invalid_argument otherwise. *)

val wave_of_completed_round : wave_length:int -> int -> int option
(** [Some w] if completing this round completes wave [w]
    (i.e. the round is [round(w, L)]), else [None]. *)

val leader_vertex :
  rule:rule -> dag:Dag.t -> wave:int -> leader_source:int -> Vertex.t option
(** [get_wave_vertex_leader] (Line 46): the chosen process's vertex in
    the wave's first round, if the local DAG has it. *)

val supporters :
  rule:rule -> dag:Dag.t -> wave:int -> leader:Vertex.t -> Vertex.t list
(** The vertices of [round(w, L)] with a strong path to the leader —
    the set whose size Line 36 compares against the quorum, in DAG
    order (sorted by source). *)

val skip_evidence :
  rule:rule -> dag:Dag.t -> wave:int -> leader_source:int ->
  skip_reason * Vertex.t list
(** Why a wave's commit rule is not met right now, with the partial
    supporter set as evidence ([Leader_absent] carries the empty list).
    Pure DAG probe — meaningful whenever {!process_wave} returned no
    commit for the wave. *)

val commit_rule_met :
  rule:rule -> f:int -> dag:Dag.t -> wave:int -> leader:Vertex.t -> bool
(** Line 36: do [>= quorum_of rule ~f] vertices in [round(w, L)] have a
    strong path to the leader? Under {!bullshark} (2-round waves, [f+1])
    this is exactly Bullshark's first-round vote count — a strong path
    between consecutive rounds is a strong edge. *)

val process_wave :
  t ->
  dag:Dag.t ->
  wave:int ->
  choose_leader:(int -> int) ->
  commit list
(** Handle [wave_ready w] with the leaders of all waves [<= w]
    available through [choose_leader] (coin outputs, or the round-robin
    schedule). Returns the commits produced (in delivery order:
    earliest wave first), each with its newly delivered vertices. Empty
    when the commit rule is not met — the wave is then left for a later
    wave's backward chain, exactly as in the paper. Waves at or below
    the decided wave are ignored. Profiled under the per-rule span
    ["order.wave.<rule_name>"].

    Which vertices are delivered is kept in [dag] itself, one bit per
    vertex ({!Dag.mark_delivered}): each delivered vertex is marked
    there, and a history walk stops at marked vertices and at the
    garbage-collection horizon. Under a [gc_depth] it also prunes [dag]
    after each leader it delivers, at that leader's round minus
    [gc_depth]: the next walk's floor, the same on every process that
    commits the same leaders. So one [dag] belongs to one ordering
    state, and the same [dag] must be passed on every call. *)

val restore :
  t -> dag:Dag.t -> delivered:Vertex.t list -> decided_wave:int -> unit
(** Reload persisted progress into a {e fresh} ordering state: the
    vertices become the delivered log (in the given order) and are
    marked delivered in [dag], and the decided wave is set, so a
    restarted node neither re-delivers nor re-decides old waves. The
    list must be causally closed, as a delivered log is: later history
    walks stop at delivered vertices ({!Dag.causal_history}). Its
    vertices below [dag]'s horizon already read as delivered; the others
    must be in [dag], which must already sit at the horizon
    {!process_wave} left, as a restored {!Snapshot} does: it is the
    next walk's floor. @raise Invalid_argument if the state is not
    fresh or a vertex at or above the horizon is missing. *)

val rule : t -> rule
(** The rule this state runs, as given to {!create}. *)

val decided_wave : t -> int

val delivered_log : t -> Vertex.t list
(** Every vertex delivered so far, oldest first — the process's totally
    ordered output (for cross-process agreement checks). *)

val delivered_count : t -> int
