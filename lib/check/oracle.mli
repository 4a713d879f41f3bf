(** Invariant oracles for swarm-tested executions.

    Each check asserts one of the paper's correctness properties over
    the observable state of a fleet — delivered logs, per-node DAGs, and
    the stream of commit events — and returns a list of violations
    (empty = the property held). The checks are deliberately
    re-derivations: they recompute support counts and path predicates
    from the DAG instead of trusting the protocol's own bookkeeping, so
    a protocol bug cannot hide by corrupting the state it is judged by.

    The log-level checks take plain data so tests can feed hand-built
    histories; {!check_fleet} bundles every end-of-run invariant over a
    live {!Harness.Runner.t}. *)

type violation = {
  invariant : string;
      (** which property broke: ["agreement"], ["extension"],
          ["integrity"], ["dag-wf"], ["equivocation"],
          ["leader-support"], ["skip-legality"], ["certificate"],
          ["chain-quality"], ["fork-outcome"], ["sync-lie"], or
          ["validity"] *)
  node : int; (** the process at which the violation was observed *)
  detail : string;
}

val pp : violation -> string

val check_agreement :
  logs:(int * Dagrider.Vertex.vref list) list -> violation list
(** Total order + Agreement (paper §2): every pair of correct logs must
    be prefix-comparable. Implemented by comparing each log positionwise
    against the longest one, which is equivalent and single-pass. *)

val check_extension :
  node:int ->
  before:Dagrider.Vertex.vref list ->
  after:Dagrider.Vertex.vref list ->
  violation list
(** A process's ordered output is append-only: a snapshot taken later
    must have the earlier snapshot as a prefix. Run between the swarm
    driver's periodic checkpoints. *)

val check_no_duplicates :
  logs:(int * Dagrider.Vertex.vref list) list -> violation list
(** Integrity: no (round, source) is delivered twice in one log. *)

type commit_record = {
  cr_node : int;   (** process that committed *)
  cr_wave : int;
  cr_leader : Dagrider.Vertex.vref;
  cr_direct : bool; (** by its own wave's rule, vs chained backwards *)
}
(** One {!Dagrider.Ordering.commit} as observed through
    {!Harness.Runner.options.on_commit}. *)

val check_direct_commit :
  rule:Dagrider.Ordering.rule ->
  f:int ->
  dag:Dagrider.Dag.t ->
  node:int ->
  wave:int ->
  leader:Dagrider.Vertex.t ->
  violation list
(** The commit-time form of the leader-support invariant: call from the
    [on_commit] hook (which fires synchronously inside the ordering
    step) for a {e direct} commit, with the committing node's DAG.
    Because strong-path support only grows after the commit, this is
    strictly stronger than auditing the final DAG — it is the check that
    catches a sabotaged quorum even when the support gap closes later.
    [rule] is the scenario's honest rule (2f+1 for DAG-Rider, f+1 for
    Bullshark), never the rule the run was built with, so a weakened
    quorum cannot weaken the oracle judging it. *)

val check_leader_support :
  rule:Dagrider.Ordering.rule ->
  f:int ->
  commits:commit_record list ->
  dag_of:(int -> Dagrider.Dag.t option) ->
  violation list
(** End-of-run leader audit over each node's own commit sequence:
    every {e direct} commit must satisfy [rule]'s strong-path quorum in
    its wave's last round (support only grows after the commit, so the
    final DAG is sound to judge by), and every {e chained} commit must
    be strong-path-reachable from the next wave that node committed
    (Algorithm 3's line 39–43 backward walk). *)

val check_skip_legality :
  rule:Dagrider.Ordering.rule ->
  commits:commit_record list ->
  dag_of:(int -> Dagrider.Dag.t option) ->
  leader_of:(int -> int -> int option) ->
  violation list
(** The skip-side complement of [check_leader_support]: a wave a node
    never committed is audited against the next wave it {e did} commit.
    If the skipped wave's leader vertex is in the node's final DAG and
    the next committed leader reaches it by a strong path, the backward
    chain was obliged to commit it — causal history is closed at vertex
    insertion, so any such path already existed when the chain ran, and
    the skip is a bug. [leader_of node wave] supplies the schedule:
    round-robin rules answer for every wave, coin rules only for
    instances that node resolved ([None] exempts the wave). This is the
    oracle that catches an illegally aggressive leader-skip rule, e.g.
    a Bullshark fallback that skips a leader its successor can see. *)

val check_certificates :
  rule:Dagrider.Ordering.rule ->
  f:int ->
  forensics:Forensics.t ->
  dag_of:(int -> Dagrider.Dag.t option) ->
  violation list
(** Re-validate every provenance certificate a traced run emitted
    against the final DAGs — a certificate the checker cannot verify is
    itself a failure. Per commit certificate: the rule name and quorum
    match the run's rule (re-derived from [rule] and [f], never the
    certificate's own claim), the leader sits in the wave's first round
    and exists in the node's final DAG, a direct commit's cited
    supporter set is [>= quorum] and each cited supporter reaches the
    leader by a strong path, and a chained commit's [via] leader is a
    later committed wave of the same chain that reaches it by a strong
    path (all monotone facts, so the final DAG is sound to judge by).
    Per final skip certificate: the cited support is below quorum and
    consistent with the reason, each cited supporter is confirmed, and
    no later committed leader reaches the skipped leader by a strong
    path (the skip-legality argument of {!check_skip_legality}).
    Certificates for waves below a GC'd DAG's lowest retained round
    keep only the field checks — pruned vertices cannot witness either
    way. *)

type fork_outcome =
  | Fork_excluded
      (** no honest process holds any variant of the forked slot —
          reliable broadcast starved both sides of a quorum *)
  | Fork_converged of string
      (** every honest holder agrees on the variant with this digest *)
(** How the honest fleet resolved one recorded equivocation. Both
    outcomes are legal; what is {e illegal} is a split. *)

val fork_outcome :
  dags:(int * Dagrider.Dag.t) list ->
  attacker:int ->
  Attack.fork ->
  (fork_outcome, (int * string) list) result
(** Judge one fork from the attacker's {!Attack.forks} ledger against
    the correct processes' final DAGs. [Error held] is the violation
    case — honest processes accepted {e different} variants — with the
    (node, digest) evidence. *)

val check_fork_outcomes :
  reports:Harness.Runner.attack_report list ->
  dags:(int * Dagrider.Dag.t) list ->
  violation list
(** The equivocation-exclusion oracle, attack-informed: every fork the
    adversary driver actually sent must be excluded or converged — a
    split fleet, or convergence onto a digest the attacker never sent,
    is a ["fork-outcome"] violation. Sharper than the black-box
    equivocation check because it also {e proves} the safe outcomes,
    fork by fork, instead of only noticing disagreements. *)

val check_lie_exclusion :
  reports:Harness.Runner.attack_report list ->
  dags:(int * Dagrider.Dag.t) list ->
  violation list
(** No honest DAG may contain any forged catch-up vertex from a lying
    sync peer's {!Attack.lies} ledger (matched by slot {e and} digest —
    the honest vertex for the same slot is of course fine). A match is
    a ["sync-lie"] violation: the hardened sync admission path let a
    single Byzantine responder poison a restarted node. *)

val check_fleet :
  rule:Dagrider.Ordering.rule ->
  runner:Harness.Runner.t ->
  commits:commit_record list ->
  expect_validity:bool ->
  violation list
(** End-of-run sweep of every invariant over the correct processes,
    judged by [rule] — the scenario's honest rule, passed in explicitly
    because the run itself may be built with a sabotaged one:

    - {b agreement} and {b integrity} on the delivered logs (above);
    - {b dag-wf}: every vertex in every correct DAG passes
      {!Dagrider.Vertex.validate} — [>= 2f+1] strong edges, all to the
      previous round, edge sources in range;
    - {b equivocation}: no two correct processes hold different vertices
      (by digest) for one (round, source) — reliable broadcast must have
      filtered equivocators;
    - {b leader-support}: every {e directly} committed leader has the
      rule's quorum of last-round vertices with a strong path to it
      (2f+1 for DAG-Rider, f+1 for Bullshark), recomputed from the DAG
      with the honest rule's quorum regardless of the quorum the run
      committed with (this is what catches a sabotaged quorum); every
      {e chained} leader is strong-path-reachable from the next
      committed leader;
    - {b skip-legality}: no skipped wave's leader is strong-path
      reachable from the next committed leader (above);
    - {b certificate} (traced runs only): every provenance certificate
      the run emitted re-validates against the final DAGs
      ({!check_certificates});
    - {b chain-quality}: the [(f+1)/(2f+1)]-per-prefix bound
      ({!Metrics.Chain_quality.audit});
    - {b fork-outcome} and {b sync-lie} (attacked runs only): every
      deviation in the adversary drivers' ledgers
      ({!Harness.Runner.attack_reports}) was excluded or converged
      ({!check_fork_outcomes}, {!check_lie_exclusion});
    - {b validity} (only when [expect_validity], i.e. fault-free
      scenarios): once a log is long enough to show steady state
      ([>= 3n] entries), every correct process's proposals appear in
      it. *)
