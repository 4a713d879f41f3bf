(** Reliable transport endpoints over a lossy {!Network}.

    When a {!Faults} policy breaks the §2 reliable-link assumption,
    this module rebuilds it: each process attaches one endpoint per
    protocol stack to a shared {!wire} (a network of {!frame}s and the
    one codec of its messages), and typed messages travel as
    sequence-numbered, checksummed data frames.
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

type 'msg frame = private
  | Data of {
      seq : int;
      kind : string;
      bytes : string;
      sum : int;
      decoded : 'msg option;
    }
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
          {!ack_frame}.

          [decoded] is the wire's decode of [bytes], made once by the
          send that encoded them, and a receiver delivers it only from
          a pristine frame. A frame with a real checksum (from
          {!corrupt_frame} or {!data_frame}) carries [None] there and
          its receiver decodes its bytes itself. *)

val data_frame : seq:int -> kind:string -> bytes:string -> sum:int -> 'msg frame
val ack_frame : seq:int -> sum:int -> 'msg frame
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

type 'msg wire
(** A frame network together with its codec: the one encoder and
    decoder of every endpoint attached to it. *)

val wire :
  'msg frame Network.t ->
  encode:('msg -> string) ->
  decode:(string -> 'msg option) ->
  'msg wire
(** Build a frame network's wire; attach every endpoint of the network
    to this one wire. *)

type 'msg t

val attach :
  wire:'msg wire ->
  engine:Sim.Engine.t ->
  rng:Stdx.Rng.t ->
  ?config:config ->
  ?trace:Trace.t ->
  me:int ->
  unit ->
  'msg t
(** Create process [me]'s endpoint and register it on the wire's frame
    network. A send encodes the message to bytes and decodes those
    bytes once, with the wire's codec, so lossy runs exercise the
    protocol's real wire codecs: a {!broadcast} makes one decode for
    all [n] frames, not one per receiver. A receiver delivers that
    decoded value from an intact pristine frame, and decodes the bytes
    itself only from a frame with a real checksum (one that was
    corrupted, or built by {!data_frame}). Either way it delivers what
    its own decode of the bytes returns, since the codec is the wire's
    and messages are immutable values; a payload the decoder rejects
    is dropped (reason "decode") and counted in [decode_failures].
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
    message is encoded and decoded once and every frame carries those
    bytes and that decode. *)

val detach : 'msg t -> unit
(** Silence the endpoint for good: unregister from the frame network,
    drop the handler, and cancel all pending retransmissions (used by
    the harness's adaptive corruption). Idempotent; there is no
    re-attach. *)

val stats : 'msg t -> stats

val retransmits_by_dst : 'msg t -> (int * int) list
(** [(dst, retransmit count)] for destinations with at least one
    retransmission — the per-link counters the analyzer aggregates. *)

val corrupt_frame : rng:Stdx.Rng.t -> 'msg frame -> 'msg frame
(** Flip one random bit of the frame (payload or sequence number)
    without fixing the checksum — install as the frame network's
    {!Network.set_corrupter}. The result carries no sender-side
    decode. *)

val frame_sum : 'msg frame -> int
(** The checksum the frame should carry (exposed for tests). *)

val frame_intact : 'msg frame -> bool
(** Does the stored checksum match the content? [true] for a pristine
    frame without computing the checksum. *)
