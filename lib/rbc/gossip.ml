open Rbc_intf

type msg =
  | Gossip of { origin : int; round : int; payload : string }
  | Echo of { origin : int; round : int; digest : string }
  | Ready of { origin : int; round : int; digest : string }

let decode_msg src =
  Wire.decode src (fun r ->
      match Wire.get_u8 r with
      | 1 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let payload = Wire.get_bytes r in
        Wire.finish r (Gossip { origin; round; payload })
      | 2 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let digest = Wire.get_bytes r in
        if String.length digest <> 32 then None
        else Wire.finish r (Echo { origin; round; digest })
      | 3 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let digest = Wire.get_bytes r in
        if String.length digest <> 32 then None
        else Wire.finish r (Ready { origin; round; digest })
      | _ -> None)

(* [8 * String.length (encode_msg msg)], the size [encode_msg] writes:
   a tag byte, a u32 each for the origin and the round, and a u32
   length before the payload or digest. *)
let msg_bits msg =
  let body =
    match msg with
    | Gossip { payload; _ } -> payload
    | Echo { digest; _ } | Ready { digest; _ } -> digest
  in
  8 * (1 + 4 + 4 + 4 + String.length body)

let encode_msg msg =
  let w = Wire.writer ~bits:(msg_bits msg) in
  (match msg with
  | Gossip { origin; round; payload } ->
    Wire.put_u8 w 1;
    Wire.put_u32 w origin;
    Wire.put_u32 w round;
    Wire.put_bytes w payload
  | Echo { origin; round; digest } ->
    Wire.put_u8 w 2;
    Wire.put_u32 w origin;
    Wire.put_u32 w round;
    Wire.put_bytes w digest
  | Ready { origin; round; digest } ->
    Wire.put_u8 w 3;
    Wire.put_u32 w origin;
    Wire.put_u32 w round;
    Wire.put_bytes w digest);
  Wire.contents w

(* the gossip, echo and ready samples are these multiples of ln n, and
   an instance turns ready / delivers on these fractions of its echo /
   ready sample *)
let gossip_factor = 3.0
let echo_sample = 4.0
let ready_sample = 4.0
let echo_threshold = 0.5
let ready_threshold = 0.33

(* The tally's keys are digests; a key's state is [Some payload] for a
   variant seen after the first acceptance: the repair store a minority
   side of an equivocation converges from ([alts] of them, at most
   [max_alts]). *)
type instance = {
  mutable payload : string option;
  mutable accepted_digest : string option;
  mutable relayed : bool;
  mutable echo_sent : bool;
  mutable ready_sent : bool;
  mutable delivered : bool;
  mutable alts : int;
  votes : string option Tally.t;
}

let max_alts = 4

type t = {
  net : msg Net.Port.t;
  rng : Stdx.Rng.t;
  me : int;
  n : int;
  deliver : deliver;
  gossip_size : int;
  echo_size : int;
  ready_size : int;
  echo_need : int;
  ready_need : int;
  ready_feedback : int;
  instances : instance Rows.t;
  mutable trace : Trace.t option;
}

let set_trace t tr = t.trace <- Some tr

let phase t ~origin ~round p =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Rbc_phase { node = t.me; origin; round; phase = p })

let sample_size n factor =
  let ln_n = log (float_of_int (max 2 n)) in
  min n (max 1 (int_of_float (ceil (factor *. ln_n))))

let new_instance n () =
  { payload = None;
    accepted_digest = None;
    relayed = false;
    echo_sent = false;
    ready_sent = false;
    delivered = false;
    alts = 0;
    votes = Tally.create ~n ~empty:None }

let count_for inst digest kind =
  match Tally.find inst.votes digest 0 with
  | key -> Tally.count key kind
  | exception Not_found -> 0

let send_sample t ~size ~kind ~bits msg =
  let peers = Stdx.Rng.sample_without_replacement t.rng ~k:size ~n:t.n in
  List.iter
    (fun dst -> Net.Port.send t.net ~src:t.me ~dst ~kind ~bits msg)
    peers

(* Equivocation repair: if the network's ready evidence has committed to
   a digest other than the one we first accepted (we were on the minority
   side of a fork) and we know that variant's payload, re-accept it — the
   fork then converges instead of leaving us unable to ever deliver the
   instance. We deliberately do NOT re-send Echo/Ready for the new digest
   (a correct process votes at most once per instance); the quorum that
   justified the switch already carries delivery. If several variants
   qualify, the first in the tally's order (the order their digests
   were first seen) wins, so the choice depends only on the messages
   received, not on how a table hashes digests. *)
let try_switch t inst =
  if (not inst.delivered) && inst.alts > 0 then
    match
      Tally.find_first inst.votes (fun key ->
          Tally.count key Tally.Ready >= t.ready_need
          && key.Tally.state <> None
          && Some key.Tally.id <> inst.accepted_digest)
    with
    | key ->
      inst.payload <- key.Tally.state;
      inst.accepted_digest <- Some key.Tally.id
    | exception Not_found -> ()

(* Re-examine the instance after any state change: become ready when the
   echo threshold (or the ready feedback threshold) is met for the digest
   we accepted, and deliver on the ready threshold. *)
let progress t inst ~origin ~round =
  try_switch t inst;
  match inst.accepted_digest with
  | None -> ()
  | Some digest ->
    let echo_count = count_for inst digest Tally.Echo in
    let ready_count = count_for inst digest Tally.Ready in
    if
      (not inst.ready_sent)
      && (echo_count >= t.echo_need || ready_count >= t.ready_feedback)
    then begin
      inst.ready_sent <- true;
      phase t ~origin ~round "ready";
      let msg = Ready { origin; round; digest } in
      send_sample t ~size:t.ready_size ~kind:"gossip-ready"
        ~bits:(msg_bits msg) msg
    end;
    if (not inst.delivered) && ready_count >= t.ready_need then
      match inst.payload with
      | Some payload ->
        inst.delivered <- true;
        phase t ~origin ~round "deliver";
        t.deliver ~payload ~round ~source:origin
      | None -> ()

let on_gossip t inst ~origin ~round ~payload =
  if inst.payload <> None then begin
    (* a variant of an instance we already accepted: remember it so the
       repair in [try_switch] can converge if the network commits to it *)
    let digest = Crypto.Sha256.digest_string payload in
    if Some digest <> inst.accepted_digest && inst.alts < max_alts then begin
      let key = Tally.find_or_add inst.votes digest 0 in
      if key.Tally.state = None then begin
        key.Tally.state <- Some payload;
        inst.alts <- inst.alts + 1
      end
    end;
    progress t inst ~origin ~round
  end;
  if inst.payload = None then begin
    let digest = Crypto.Sha256.digest_string payload in
    inst.payload <- Some payload;
    inst.accepted_digest <- Some digest;
    if not inst.relayed then begin
      inst.relayed <- true;
      phase t ~origin ~round "gossip";
      let msg = Gossip { origin; round; payload } in
      send_sample t ~size:t.gossip_size ~kind:"gossip-relay"
        ~bits:(msg_bits msg) msg
    end;
    if not inst.echo_sent then begin
      inst.echo_sent <- true;
      phase t ~origin ~round "echo";
      let msg = Echo { origin; round; digest } in
      send_sample t ~size:t.echo_size ~kind:"gossip-echo"
        ~bits:(msg_bits msg) msg
    end;
    progress t inst ~origin ~round
  end

let handle t ~src msg =
  let sp = Prof.enter "rbc.gossip.recv" in
  (try
     match msg with
  | Gossip { origin; round; payload } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst -> on_gossip t inst ~origin ~round ~payload
    | None -> ())
  | Echo { origin; round; digest } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      let key = Tally.find_or_add inst.votes digest 0 in
      ignore (Tally.vote key Tally.Echo src);
      progress t inst ~origin ~round
    | None -> ())
  | Ready { origin; round; digest } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      let key = Tally.find_or_add inst.votes digest 0 in
      ignore (Tally.vote key Tally.Ready src);
      progress t inst ~origin ~round
    | None -> ())
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let create_port ~port ~rng ~me ~f ~deliver =
  let n = Net.Port.n port in
  let gossip_size = sample_size n gossip_factor in
  let echo_size = sample_size n echo_sample in
  let ready_size = sample_size n ready_sample in
  let echo_need =
    max 1 (int_of_float (ceil (echo_threshold *. float_of_int echo_size)))
  in
  let ready_need =
    max 1 (int_of_float (ceil (ready_threshold *. float_of_int ready_size)))
  in
  (* Byzantine floors for the degenerate small-n regime: when a sample
     covers the whole network the epidemic is just broadcast, and the
     fractional thresholds above can fall below quorum-intersection
     bounds — an equivocating sender could then split echoes/readies and
     make correct processes deliver divergent payloads. Lift them to the
     Bracha quorums (2f+1 echoes and readies, f+1 ready feedback)
     exactly in that regime; partial samples keep the paper's
     probabilistic thresholds and its ε failure trade-off. *)
  let echo_need = if echo_size >= n then max echo_need ((2 * f) + 1) else echo_need in
  let ready_need =
    if ready_size >= n then max ready_need ((2 * f) + 1) else ready_need
  in
  let feedback_floor = if ready_size >= n then f + 1 else 1 in
  let t =
    { net = port;
      rng;
      me;
      n;
      deliver;
      gossip_size;
      echo_size;
      ready_size;
      echo_need;
      ready_need;
      ready_feedback = max feedback_floor (ready_need / 2);
      instances = Rows.create ~n ~make:(new_instance n);
      trace = None }
  in
  Net.Port.register port me (fun ~src msg -> handle t ~src msg);
  t

let bcast t ~payload ~round =
  let sp = Prof.enter "rbc.gossip.bcast" in
  (try
     phase t ~origin:t.me ~round "init";
     (* the sender seeds the epidemic through its own gossip sample and also
        processes the message locally (send-to-self through the queue) *)
     let msg = Gossip { origin = t.me; round; payload } in
     send_sample t ~size:t.gossip_size ~kind:"gossip-init"
       ~bits:(msg_bits msg) msg;
     Net.Port.send t.net ~src:t.me ~dst:t.me ~kind:"gossip-init"
       ~bits:(msg_bits msg) msg
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let inject_gossip t ~dst ~round ~payload =
  let msg = Gossip { origin = t.me; round; payload } in
  Net.Port.send t.net ~src:t.me ~dst ~kind:"gossip-init" ~bits:(msg_bits msg)
    msg

let prune_below t ~round = Rows.prune_below t.instances ~round

let open_instances t = Rows.open_instances t.instances

let dropped_below_horizon t = Rows.dropped_below_horizon t.instances
