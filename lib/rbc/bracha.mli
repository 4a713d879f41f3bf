(** Bracha reliable broadcast (Bracha 1987), the classic O(n^2 |m|)
    instantiation (Table 1 row "DAG-Rider + [11]").

    Protocol, per instance [(origin, round)]:
    - the sender broadcasts [Init payload];
    - on the {e first} [Init] received for the instance, a process
      broadcasts [Echo payload];
    - on [2f+1] [Echo]s for the same payload, or [f+1] [Ready]s for
      the same payload, a process broadcasts [Ready payload] (once);
    - on [2f+1] [Ready]s for the same payload it delivers.

    Votes are grouped by the payload bytes themselves, so receiving a
    vote computes no SHA-256 digest. Instances sit in per-round rows
    indexed by origin; each keeps one record per distinct payload voted
    for, with its voters as an n-bit set, so a vote costs a row lookup,
    a payload compare (usually a physical-equality hit) and a bit test.
    The rows are a {!Rbc_intf.Rows} store: a message naming an origin
    outside [\[0, n)] or a round below the horizon that {!prune_below}
    sets (0 at first) is dropped before it allocates anything.

    Quorum intersection of the Echo stage prevents two correct processes
    from becoming ready for different payloads of an equivocating
    Byzantine sender; the [f+1]-Ready amplification gives totality.
    Echo/Ready carry the full payload (the textbook protocol — this is
    exactly why the complexity row is quadratic in [|m|]). *)

type msg =
  | Init of { round : int; payload : string }
  | Echo of { origin : int; round : int; payload : string }
  | Ready of { origin : int; round : int; payload : string }
(** Exposed so tests can inject Byzantine traffic directly. *)

val encode_msg : msg -> string
(** Canonical wire encoding; senders charge exactly its size. *)

val decode_msg : string -> msg option
(** Inverse of {!encode_msg}; [None] on any malformed input. *)

val msg_bits : msg -> int
(** Wire size in bits, [8 * String.length (encode_msg msg)], computed
    from the field sizes without encoding. *)

type t

val create_port :
  port:msg Net.Port.t -> me:int -> f:int -> deliver:Rbc_intf.deliver -> t
(** Registers process [me]'s handler on the port — a direct network or
    reliable links over a lossy one; the protocol is transport-agnostic
    (its handlers are idempotent, so even transport-level duplicates
    are harmless). A network is [Net.Port.of_network net]. *)

val set_trace : t -> Trace.t -> unit
(** Emit {!Trace.Rbc_phase} events ("init", "echo", "ready", "deliver")
    for every instance transition at this process from now on. *)

val bcast : t -> payload:string -> round:int -> unit
(** [r_bcast] of the abstraction. A correct process calls this at most
    once per round (the DAG layer guarantees it). *)

val delivered_instances : t -> int
(** Number of instances this process has delivered (for tests). *)

val prune_below : t -> round:int -> unit
(** Raise the horizon to [round] and drop every instance below it; a
    later message for such a round is dropped. Lowering it is a no-op. *)

val open_instances : t -> int
(** Number of instances this process holds now: every
    [(origin, round)] at or above the horizon that some accepted message
    named. *)

val dropped_below_horizon : t -> int
(** Messages dropped unopened: their origin is out of range or their
    round is below the horizon. *)

val inject_init : t -> dst:int -> round:int -> payload:string -> unit
(** Byzantine-attacker capability: send a raw [Init] for this process's
    instance [(me, round)] to a {e single} destination — the primitive
    an equivocating or withholding sender uses to show different
    payloads (or nothing) to different victims. Runs the real wire
    codec; honest processes must exclude or converge the resulting
    forks via Echo-quorum intersection. Attack harness only. *)
