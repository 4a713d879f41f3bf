(** Reliable transport endpoints over a lossy {!Network}.

    When a {!Faults} policy breaks the §2 reliable-link assumption,
    this module rebuilds it: each process attaches one endpoint per
    protocol stack to a shared network of {!frame}s, and typed
    messages travel as sequence-numbered, checksummed data frames.
    The sender retransmits every unacked frame on a timeout schedule
    with exponential backoff, multiplicative jitter and a cap, giving
    up only after [max_attempts] (so a crashed peer cannot pin memory
    forever); the receiver acks every intact data frame — duplicates
    included, since the previous ack may be the copy that was lost —
    suppresses redeliveries through a per-sender sliding window, and
    rejects corrupted frames by checksum so retransmission recovers
    them. Under any fault rate < 1 every message between correct
    attached endpoints is eventually delivered exactly once (up to the
    astronomically unlikely exhaustion of the retransmit budget),
    which is the contract the RBC layer assumes.

    All timers run on the simulation engine and all jitter comes from
    the supplied RNG: lossy executions remain pure functions of the
    seed. *)

type frame = private
  | Data of { seq : int; kind : string; bytes : string; sum : int }
  | Ack of { seq : int; sum : int }
      (** Sequence numbers are per (sender, destination) stream; [sum]
          is a FNV-1a/32 checksum over the rest of the frame —
          including acks, so a bit-flipped ack cannot acknowledge a
          frame that was never delivered.

          A data frame an endpoint sends carries [sum = -1], which no
          FNV-1a/32 value equals: the frame is pristine, intact by
          construction, and {!frame_intact} accepts it without hashing
          its bytes. {!corrupt_frame} stores the real checksum before it
          flips a bit, so a corrupted frame is still checked byte for
          byte. The type is private so that only this module can build
          a pristine frame; tests build frames with {!data_frame} and
          {!ack_frame}. *)

val data_frame : seq:int -> kind:string -> bytes:string -> sum:int -> frame
val ack_frame : seq:int -> sum:int -> frame
(** Frames with an explicit checksum, right or wrong (for tests).
    @raise Invalid_argument if [sum] is outside [[0, 2{^32})]. *)

type config = {
  rto : float;  (** initial retransmission timeout *)
  backoff : float;  (** timeout multiplier per retry (>= 1) *)
  max_rto : float;  (** backoff cap *)
  jitter : float;
      (** each retry waits [timeout * (1 + jitter * U[0,1))] —
          desynchronizes retransmit storms *)
  max_attempts : int;  (** retransmissions before giving up *)
}

val default_config : config
(** rto 3.0 (a few times the baseline schedules' one-way delays),
    backoff 1.6, cap 20.0, jitter 0.3, 25 attempts. *)

type stats = {
  data_sent : int;  (** first transmissions (not counting retries) *)
  retransmits : int;
  gave_up : int;  (** frames abandoned after [max_attempts] *)
  dup_suppressed : int;  (** redeliveries absorbed by the dedup window *)
  corrupt_rejected : int;  (** frames (data or ack) failing the checksum *)
  decode_failures : int;
      (** intact frames whose payload the protocol decoder rejected *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type 'msg t

val attach :
  net:frame Network.t ->
  engine:Sim.Engine.t ->
  rng:Stdx.Rng.t ->
  ?config:config ->
  ?trace:Trace.t ->
  me:int ->
  encode:('msg -> string) ->
  decode:(string -> 'msg option) ->
  unit ->
  'msg t
(** Create process [me]'s endpoint and register it on the frame
    network. Messages are encoded to bytes on send and decoded on
    delivery, so lossy runs exercise the protocol's real wire codecs.
    With a tracer, the endpoint emits {!Trace.Retransmit},
    {!Trace.Corrupt_reject}, and {!Trace.Drop} (reasons "give-up",
    "duplicate", "decode", "no-handler").
    @raise Invalid_argument on a nonsensical [config]. *)

val set_handler : 'msg t -> (src:int -> 'msg -> unit) -> unit
(** Install (or replace) the upcall for delivered messages. *)

val clear_handler : 'msg t -> unit
(** Deliveries are dropped (reason "no-handler") until re-set; the
    transport keeps acking, like a kernel with no listening socket. *)

val send : 'msg t -> dst:int -> kind:string -> bits:int -> 'msg -> unit
(** Queue one reliable delivery. [bits] is the protocol-level size;
    the frame header (sequence number, checksum, kind tag) is charged
    on top, and again on every retransmission. *)

val broadcast : 'msg t -> kind:string -> bits:int -> 'msg -> unit
(** {!send} to all [n] processes, self included, in index order; the
    message is encoded once and every frame carries those bytes. *)

val detach : 'msg t -> unit
(** Silence the endpoint for good: unregister from the frame network,
    drop the handler, and cancel all pending retransmissions (used by
    the harness's adaptive corruption). Idempotent; there is no
    re-attach. *)

val stats : 'msg t -> stats

val retransmits_by_dst : 'msg t -> (int * int) list
(** [(dst, retransmit count)] for destinations with at least one
    retransmission — the per-link counters the analyzer aggregates. *)

val corrupt_frame : rng:Stdx.Rng.t -> frame -> frame
(** Flip one random bit of the frame (payload or sequence number)
    without fixing the checksum — install as the frame network's
    {!Network.set_corrupter}. *)

val frame_sum : frame -> int
(** The checksum the frame should carry (exposed for tests). *)

val frame_intact : frame -> bool
(** Does the stored checksum match the content? [true] for a pristine
    frame without computing the checksum. *)
