(** Reliable authenticated point-to-point links over the simulator.

    Matches the paper's model (§2): between correct processes every sent
    message is eventually delivered and the recipient knows the sender's
    identity (delivery hands the handler the true source — authentication
    is by construction). The adversary appears twice: the {!Sched.t}
    policy controls every arrival time, and [corrupt] lets an adaptive
    adversary drop the not-yet-delivered messages of a newly corrupted
    process.

    The network is polymorphic in the message type; each protocol stack
    instantiates it with its own variant. Every send is charged to the
    {!Metrics.Counters.t} with a caller-supplied bit size and kind tag.

    A message in flight occupies one slot of the network's in-flight
    rows (source, destination, send operation, trace id, kind and
    message, one array each), and its delivery is one
    {!Sim.Engine.schedule_call} event carrying the slot index, so a send
    allocates no closure. The schedule (and fault policy) decide
    through one {!Sched.io} the network owns, so an untraced, fault-free
    send allocates nothing at all in the default build. A delivery frees
    its slot before the handler runs; freed slots are reused last-in
    first-out, so the rows never grow past the peak number of messages
    in flight. *)

type 'msg t

val create :
  engine:Sim.Engine.t ->
  sched:Sched.t ->
  counters:Metrics.Counters.t ->
  n:int ->
  'msg t

val set_trace : 'msg t -> Trace.t -> unit
(** Attach a tracer: from now on every send emits {!Trace.Send}
    (stamped before the scheduler decides the delay), every delivery
    that reaches a registered handler emits {!Trace.Recv}, and every
    delivery that does not emits {!Trace.Drop} with a reason tag
    ("fault", "corrupt", "corrupted-src", or "no-handler"). Without a
    tracer the hot path is unchanged. *)

val set_faults : 'msg t -> Faults.t -> unit
(** Install a link-fault policy: every subsequent send asks it for a
    {!Faults.verdict} and may be dropped, duplicated, delayed further,
    or corrupted (see {!set_corrupter}). Without a policy installed the
    send path is exactly the reliable original — no extra RNG draws or
    engine events, so fault-free runs are byte-identical. *)

val set_corrupter : 'msg t -> ('msg -> 'msg) -> unit
(** How to bit-corrupt a message when the fault policy asks for it
    (e.g. {!Link.corrupt_frame} for frame networks). Corruption
    verdicts on a network with no corrupter degrade to drops (reason
    "corrupt") — a typed message that cannot be mutated in a
    representable way is simply lost. *)

val drop_counts : 'msg t -> (string * int) list
(** Deliveries that never reached a handler, counted by reason tag,
    sorted by reason. Empty until something is dropped. *)

val n : 'msg t -> int

val register : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Install process [i]'s message handler. Re-registering replaces the
    handler (used by restart tests).
    @raise Invalid_argument on a bad index. *)

val unregister : 'msg t -> int -> unit
(** Remove process [i]'s handler; subsequent deliveries to [i] are
    dropped silently. Models a crashed endpoint (fault injection);
    {!register} revives it.
    @raise Invalid_argument on a bad index. *)

val send :
  ?mid:int ->
  'msg t ->
  src:int ->
  dst:int ->
  kind:string ->
  bits:int ->
  'msg ->
  unit
(** Asynchronous unicast; delivery is scheduled per the policy. Sends to
    self also go through the queue (a process never handles its own
    message re-entrantly).

    When traced, the send carries a logical-message correlation id:
    [mid] if given (how {!Link} keeps one id across retransmit copies of
    the same frame), a {!Trace.fresh_id} otherwise. The {!Trace.Send},
    {!Trace.Recv}, and {!Trace.Drop} events all carry it, and the
    receiving handler runs under {!Trace.with_cause}, so every event it
    emits names this message as its cause. Untraced, [mid] is ignored
    and no id is allocated. *)

val broadcast : 'msg t -> src:int -> kind:string -> bits:int -> 'msg -> unit
(** Best-effort send to all [n] processes including the sender. This is
    NOT reliable broadcast — it is the all-to-all primitive reliable
    broadcast protocols are built from. *)

val corrupt : 'msg t -> ?drop_in_flight:bool -> int -> unit
(** Mark a process Byzantine from the current time on. With
    [drop_in_flight] (default [true]) its messages sent before this
    moment but not yet delivered are discarded, per the adaptive
    adversary in §2. The process keeps running — Byzantine behaviour
    itself is whatever handler/driver the test installs. *)

val is_corrupted : 'msg t -> int -> bool

val correct : 'msg t -> int -> bool
(** Complement of {!is_corrupted}; shaped for the metrics predicates. *)

val in_flight : 'msg t -> int
(** Messages sent and scheduled but not yet delivered or dropped at
    delivery. *)

val slot_capacity : 'msg t -> int
(** In-flight slots ever handed out: the peak of {!in_flight} so far. *)

val delivered_count : 'msg t -> int
(** Total deliveries so far (debugging / progress assertions). *)
