(** Programmable Byzantine attackers (paper §2 adversary, instantiated).

    The paper assumes an adversary that controls up to [f] processes,
    sees all messages, and schedules delivery; the swarm checker's
    schedule sampling already covers the scheduling half. This module
    supplies the other half: {e compromised processes} that run the real
    protocol stack — real vertex codec, real reliable-broadcast wire
    messages, real sync envelopes — but deviate adaptively, in the
    styles the literature actually exploits:

    - {b Equivocate}: fork the process's own round vertex and show
      different variants to different destination sets, pushed through
      the backend's genuine Init/Disperse/Gossip messages. Honest
      reliable broadcast must {e exclude} the fork (no side reaches a
      quorum) or {e converge} it (everyone ends on one variant); the
      {!forks} record lets an oracle prove which happened.
    - {b Withhold}: selective vertex withholding / delayed disclosure
      against chosen victims — the fairness-degradation lever.
    - {b Grind}: HashGraph-style coin grinding — watch the threshold
      coin's resolved leaders and time own proposals to rush waves the
      attacker leads and starve the rest (under [In_dag] coin mode this
      also delays the attacker's embedded share).
    - {b Bias}: the round-robin analogue against Bullshark's predefined
      schedule — rush own leader slots, stall victims' slots.
    - {b Lying_sync}: a lying catch-up peer serving corrupted
      [Sync_response] state (forged attribution to honest processes,
      garbage payloads, out-of-range envelopes) to restarting nodes;
      {!lies} records every forgery so an oracle can prove none was
      admitted.
    - {b Fuzz}: a process that never runs the protocol (the harness
      never starts its node, whose RBC endpoint relays but delivers to
      nobody). From +0.5, then every time unit, it broadcasts the next
      of undecodable garbage, a vertex with too few strong edges, a
      second payload for round 1, and a vertex with out-of-range edge
      sources.

    The driver is deliberately decoupled from the harness: it acts only
    through an {!arsenal} of backend capabilities the harness
    constructs, and observes only its own node's DAG/coin state plus a
    seeded RNG — so attacked runs stay a pure function of the seed, and
    attack decisions are rule-oblivious (they read the coin instances
    and the static round-robin table, never the ordering rule), which
    keeps the DAG substrate identical across commit rules for the
    differential harness. *)

type strategy = Equivocate | Withhold | Grind | Bias | Lying_sync | Fuzz

val adaptive_strategies : strategy list
(** Every strategy but [Fuzz]: the ones that run the real node. *)

val all_strategies : strategy list
(** {!adaptive_strategies}, then [Fuzz]. *)

val strategy_label : strategy -> string
(** "equivocate" | "withhold" | "grind" | "bias" | "lying-sync" | "fuzz". *)

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_label} (CLI parsing). *)

type spec = {
  strategy : strategy;
  victims : int list;
      (** targeted processes; [[]] lets the driver sample up to [f]
          victims from its seeded RNG at install time ([Fuzz] targets
          everyone and samples none) *)
}

val describe : node:int -> spec -> string
(** e.g. ["p3 equivocate vs {1}"] — scenario/repro rendering. *)

type fork = {
  fork_round : int;
  fork_digests : string list;
      (** {!Dagrider.Vertex.digest} of every variant sent for the
          attacker's own [(fork_round, me)] slot *)
}

type lie = { lie_round : int; lie_source : int; lie_digest : string }
(** One forged sync vertex: a payload served under honest process
    [lie_source]'s name whose digest differs from anything that process
    broadcast. No honest DAG may ever contain it. *)

type arsenal = {
  ars_n : int;
  ars_f : int;
  ars_me : int;
  ars_send : dsts:int list -> round:int -> payload:string -> unit;
      (** deliver [(me, round)]'s payload toward exactly [dsts],
          through the backend's real wire messages (Bracha Init, AVID
          dispersal fragments, Gossip) *)
  ars_bcast : round:int -> payload:string -> unit;
      (** the honest broadcast (pass-through) *)
}

type t

val create :
  spec:spec ->
  arsenal:arsenal ->
  rng:Stdx.Rng.t ->
  schedule:(delay:float -> (unit -> unit) -> unit) ->
  ?trace:Trace.t ->
  unit ->
  t
(** [schedule] is the simulation's timer (delayed disclosure, grinding
    delays); [rng] must be a dedicated stream so attacked runs replay
    byte-identically. *)

val arm :
  t -> node:Dagrider.Node.t -> sync_net:Dagrider.Node.sync_msg Net.Port.t -> unit
(** Install the attacker's protocol brain — the real node whose DAG and
    resolved coins the adaptive strategies watch — and start what acts
    on its own: [Lying_sync] registers the lying catch-up responder on
    the attacker's sync endpoint (replacing its honest handler), and
    [Fuzz] schedules its first broadcast. Must be called once, before
    the run starts (the harness does). *)

val spec : t -> spec

val victims : t -> int list
(** The resolved victim set (sampled at {!create} when the spec left it
    empty). *)

val on_own_vertex : t -> payload:string -> round:int -> unit
(** The interception point: the harness routes the attacker node's
    [rbc_bcast] here instead of the backend, and the strategy decides
    what actually goes on the wire (fork, withhold, delay, or pass
    through). *)

val forks : t -> fork list
(** Every equivocation actually sent, oldest first. *)

val lies : t -> lie list
(** Every forged sync vertex actually served, oldest first. *)

val actions : t -> int
(** Total deliberate deviations (trace-visible attacker actions). *)
