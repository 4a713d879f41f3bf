(** Randomized adversarial scenarios, fully determined by one seed.

    A scenario bundles everything the swarm driver needs to replay an
    execution bit-for-bit: fleet shape (n, f), reliable-broadcast
    backend, a composed delay schedule (base asynchrony plus windowed
    partitions, kind-targeted delay storms, slow processes, sluggish
    rotations), and a timed fault script (build-time crashes and
    Byzantine variants, mid-run adaptive corruptions, crash-recovery
    restarts). [generate ~seed] samples all of it from the seed alone,
    so a failing seed printed by the swarm IS the repro. *)

type base_sched = Uniform | Skewed | Bimodal | Heavy_tailed

type sched_layer =
  | Partition_window of {
      from_time : float;
      until_time : float;
      left : int list; (** one side of the cut *)
      factor : float;
    }
  | Kind_storm_window of {
      from_time : float;
      until_time : float;
      kinds : string list; (** message-kind prefixes to stretch *)
      factor : float;
    }
  | Slow_process of { victim : int; factor : float }
  | Hide_process of { victim : int; factor : float }
      (** stretch the victim's outgoing messages to everyone {e but}
          itself — its own chain stays intact while the rest of the
          fleet sees its vertices late (the sabotage attack's lever) *)
  | Sluggish of { period : float; factor : float }
      (** {!Net.Sched.mobile_sluggish} over the whole run *)

type fault_action =
  | Static of Harness.Runner.fault (** present from the start *)
  | Corrupt_at of { time : float; node : int }
      (** mid-run adaptive corruption ({!Harness.Runner.silence_node}:
          in-flight messages dropped per {!Net.Network.corrupt}) *)
  | Restart_at of { time : float; node : int }
      (** crash-recover a {e correct} process in place
          ({!Harness.Runner.restart_node}) *)

type t = {
  seed : int;
  quick : bool;
  sabotage : bool;
  n : int;
  f : int;
  backend : Harness.Runner.backend;
  rule : Dagrider.Ordering.rule;
      (** the honest commit rule, which the oracles judge by; the DAG
          substrate and the sampled schedule are rule-independent. A
          sabotage scenario builds its fleet with this rule's quorum
          replaced by [Fixed 0] (see {!to_options}) *)
  base : base_sched;
  layers : sched_layer list;
  faults : fault_action list;
  horizon : float;
  link_faults : Harness.Runner.link_faults option;
      (** lossy links under every protocol stack (drop / duplicate /
          corrupt / reorder per message; see
          {!Harness.Runner.options.link_faults}) *)
  lossy_forced : bool;
      (** [link_faults] came from the caller, not the seed — the repro
          command must carry the rates explicitly *)
  attack : (int * Attack.spec) option;
      (** the programmable adversary, if any — also present in [faults]
          as [Static (Adversary _)]; kept here so the CLI and repro
          rendering can reach the spec without pattern-matching the
          script *)
  attack_forced : bool;
      (** the adversary came from the caller ([~attack]), not the seed —
          the repro command must carry the [--attack] flag *)
  sync_weakened : bool;
      (** run the fleet with the deliberately weakened sync validator
          ([sync_trusting]; planted-vulnerability self-test only) *)
  gc_depth : int option;
      (** garbage collection at this depth on every process
          ({!Dagrider.Node.config.gc_depth}); only ever set by the caller,
          so the repro command must carry it *)
}

val generate :
  ?sabotage:bool ->
  ?quick:bool ->
  ?lossy:Harness.Runner.link_faults ->
  ?attack:Attack.spec ->
  ?weaken_sync:bool ->
  ?gc_depth:int ->
  ?rule:Dagrider.Ordering.rule ->
  seed:int ->
  unit ->
  t
(** Sample a scenario. The fault script never makes more than [f]
    processes faulty in total (static plus mid-run), so every paper
    invariant must hold — any oracle violation is a bug. With
    [~sabotage:true] the fault script is empty but the fleet's commit
    quorum is weakened (commit-on-sight, below the rule's quorum) while the
    schedule hides the predicted leader's vertices, which breaks the
    quorum-intersection argument behind Lemma 2: the oracle must catch
    the resulting agreement / leader-support violations, proving it is
    not vacuous. See the comment in [scenario.ml] for why intermediate
    quorums such as [f+1] are still safe under honest reliable
    broadcast. [~quick] shrinks fleet sizes and the horizon for smoke
    runs.

    [~rule] (default {!Dagrider.Ordering.dag_rider}) selects the commit
    rule; it changes no sampled draw, so seed [s] under Bullshark runs
    the same fleet shape, schedule, and fault script as seed [s] under
    DAG-Rider. The sabotage attack is rule-aware: the slowed victim is
    the target wave's round-robin leader rather than the replayed
    coin's choice.

    Honest scenarios also sample lossy links (1 in 4), drawn after
    everything else so the rest of the scenario is unchanged vs the
    same seed without them; [~lossy] forces specific rates instead
    (ignored by sabotage scenarios, whose attack depends on exact
    delivery timing). Lossy scenarios double the horizon — the
    retransmit timeout stretches every quorum — and drop the validity
    promise while keeping every safety oracle.

    A programmable adversary ({!Attack.spec}) is drawn last of all —
    after even the lossy links — roughly 1 in 3 honest seeds whose
    sampled fault budget left room, so pre-adversary seeds replay
    unchanged. [~attack] forces a spec instead, consuming no draws: the
    forced adversary {e replaces} the sampled static faults (restarts
    are kept, and a forced [Lying_sync] run gains one if the seed
    sampled none) so the run stays within the [f] budget. [~weaken_sync]
    runs the fleet with the deliberately weakened sync validator
    ({!Harness.Runner.options.sync_trusting}) — the
    planted-vulnerability mode the self-test uses to prove the sync
    oracles are not vacuous; never combine it with an expectation of a
    clean run. [~gc_depth] runs every process with garbage collection at
    that depth; like [~lossy] it consumes no draws, so the rest of the
    scenario is the seed's own. *)

val build_sched : t -> Stdx.Rng.t -> Net.Sched.t
(** Compose the schedule: base policy wrapped by each layer (partitions
    and storms inside {!Net.Sched.with_window}). Pass as
    [Harness.Runner.Custom]. *)

val to_options : t -> Harness.Runner.options
(** Runner options for this scenario (schedule, static faults, and the
    rule — with the quorum weakened to [Fixed 0] in sabotage mode); the
    driver adds its observation hooks on top. *)

val faulty_nodes : t -> int list
(** Distinct indices ever made faulty by the script (excludes
    restarts). *)

val expect_validity : t -> bool
(** Only fault-free honest scenarios promise that every process's
    proposals appear in every log within the horizon. *)

val describe : t -> string
(** One-line human summary (backend, schedule stack, fault script). *)

val describe_fault : fault_action -> string
