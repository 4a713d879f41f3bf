(** Sample-based probabilistic reliable broadcast, after Guerraoui et
    al., "Scalable Byzantine Reliable Broadcast" (DISC 2019) — the
    O(n log n) instantiation of Table 1 row "DAG-Rider + [25]".

    Structure (simplified from the paper's Murmur/Sieve/Contagion stack,
    keeping the sample-based costs and the ε-failure trade-off):
    - {b dissemination} (Murmur): the sender gossips the payload to a
      random sample of [G = ceil (3 ln n)] peers; every
      process relays on first receipt to its own sample — an epidemic
      that reaches all correct processes whp;
    - {b consistency} (Sieve): on first receipt a process sends a
      digest-only [Echo] to a random sample of size [E = ceil (4 ln n)];
      a process that has accumulated [ceil (0.5 E)] echoes for one
      digest becomes {e ready};
    - {b totality} (Contagion): ready processes send digest-only [Ready]
      to a sample of size [R = ceil (4 ln n)]; [ceil (0.33 R)] readies
      (plus the payload itself) trigger delivery, and readies are
      re-gossiped once on a feedback threshold.

    Unlike Bracha/AVID the guarantees hold with probability [1 - ε]
    rather than 1 — the paper's reliable-broadcast abstraction is stated
    with probability-1 clauses precisely so that such gossip protocols
    qualify (§2). Per-process cost is [O(log n)] messages of size
    [O(|m|)] (dissemination) plus [O(log n)] digests, hence the
    [O(n log n (|m| + λ))] total. *)

type msg =
  | Gossip of { origin : int; round : int; payload : string }
  | Echo of { origin : int; round : int; digest : string }
  | Ready of { origin : int; round : int; digest : string }

val encode_msg : msg -> string
val decode_msg : string -> msg option

type t

val create_port :
  port:msg Net.Port.t ->
  rng:Stdx.Rng.t ->
  me:int ->
  f:int ->
  deliver:Rbc_intf.deliver ->
  t
(** Transport-agnostic constructor (see {!Net.Port}); a network is
    [Net.Port.of_network net]. *)

val set_trace : t -> Trace.t -> unit
(** Emit {!Trace.Rbc_phase} events ("init", "gossip", "echo", "ready",
    "deliver") for every instance transition at this process from now
    on. *)

val bcast : t -> payload:string -> round:int -> unit

val delivered_instances : t -> int

val prune_below : t -> round:int -> unit
(** Raise the horizon to [round] and drop every instance below it
    ({!Rbc_intf.Rows}); a later message for such a round is dropped.
    Lowering it is a no-op. *)

val open_instances : t -> int
(** Number of instances this process holds now: every
    [(origin, round)] at or above the horizon that some accepted message
    named. A message whose origin is outside [[0, n)] or whose round is
    below the horizon opens none. *)

val dropped_below_horizon : t -> int
(** Messages dropped unopened: their origin is out of range or their
    round is below the horizon. *)

val inject_gossip : t -> dst:int -> round:int -> payload:string -> unit
(** Byzantine-attacker capability: gossip a chosen payload for this
    process's instance [(me, round)] to a single destination — the
    equivocation/withholding primitive. When samples cover the whole
    network (small n) the hardened quorum floors make correct processes
    exclude or converge the fork; in the sampled regime the guarantee is
    the paper's probabilistic one. Attack harness only. *)
