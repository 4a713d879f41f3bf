(* Reliable link endpoints over a lossy frame network: sequence-numbered
   data frames, acks, timeout-driven retransmission with exponential
   backoff + jitter, receiver-side dedup, and a checksum gate. One
   endpoint per process per protocol stack; together they rebuild the
   paper's §2 reliable-link abstraction on top of a Faults-afflicted
   Network. *)

type 'msg frame =
  | Data of {
      seq : int;
      kind : string;
      bytes : string;
      sum : int;
      decoded : 'msg option;
    }
  | Ack of { seq : int; sum : int }

(* ---- checksum (FNV-1a/32 over a canonical rendering) ---- *)

let fnv_prime = 0x01000193
let fnv_basis = 0x811c9dc5
let mix h byte = (h lxor (byte land 0xFF)) * fnv_prime land 0xFFFFFFFF

let mix_int h v =
  let h = mix h (v lsr 24) in
  let h = mix h (v lsr 16) in
  let h = mix h (v lsr 8) in
  mix h v

let mix_string h s = String.fold_left (fun h c -> mix h (Char.code c)) h s

let data_sum ~seq ~kind ~bytes =
  let h = mix fnv_basis (Char.code 'D') in
  let h = mix_int h seq in
  let h = mix_string h kind in
  let h = mix h 0 in
  mix_string h bytes

let ack_sum ~seq = mix_int (mix fnv_basis (Char.code 'A')) seq

let frame_sum = function
  | Data { seq; kind; bytes; _ } -> data_sum ~seq ~kind ~bytes
  | Ack { seq; _ } -> ack_sum ~seq

(* A data frame built by [make_data] carries [pristine] for its sum: no
   FNV-1a/32 value is negative, so it can never match a real checksum.
   Such a frame is intact by construction (only [corrupt_frame] alters a
   frame, and it stores the real sum first), so checking it needs no
   hash; the checksum is computed only for a frame that was corrupted.
   Only a pristine frame's [decoded] is read: it is the sender's decode
   of the frame's bytes, with the codec every receiver on the wire uses.
   A frame with a real sum is decoded by its receiver. *)
let pristine = -1

let frame_intact = function
  | Data { sum; _ } when sum = pristine -> true
  | Data { seq; kind; bytes; sum; _ } -> sum = data_sum ~seq ~kind ~bytes
  | Ack { seq; sum } -> sum = ack_sum ~seq

let make_data ~seq ~kind ~bytes ~decoded =
  Data { seq; kind; bytes; sum = pristine; decoded }

let make_ack ~seq = Ack { seq; sum = ack_sum ~seq }

let check_sum fn sum =
  if sum < 0 || sum > 0xFFFFFFFF then invalid_arg (fn ^ ": not a 32-bit sum")

let data_frame ~seq ~kind ~bytes ~sum =
  check_sum "Link.data_frame" sum;
  Data { seq; kind; bytes; sum; decoded = None }

let ack_frame ~seq ~sum =
  check_sum "Link.ack_frame" sum;
  Ack { seq; sum }

(* Flip one uniformly chosen bit of the frame's payload-or-seq without
   touching the stored checksum — what the Faults corrupt verdict does
   to frame networks (Network.set_corrupter). A pristine frame gets its
   real sum first, so the flipped bit is caught byte for byte, and the
   frame drops its sender-side decode. *)
let corrupt_frame ~rng frame =
  let flip_seq seq = seq lxor (1 lsl Stdx.Rng.int rng 32) in
  match frame with
  | Data { seq; kind; bytes; sum; _ } ->
    let sum = if sum = pristine then data_sum ~seq ~kind ~bytes else sum in
    let payload_bits = 8 * String.length bytes in
    let target = Stdx.Rng.int rng (32 + payload_bits) in
    if target < 32 then
      Data { seq = seq lxor (1 lsl target); kind; bytes; sum; decoded = None }
    else
      let bit = target - 32 in
      let bytes =
        String.mapi
          (fun i c ->
            if i = bit / 8 then Char.chr (Char.code c lxor (1 lsl (bit mod 8)))
            else c)
          bytes
      in
      Data { seq; kind; bytes; sum; decoded = None }
  | Ack { seq; sum } -> Ack { seq = flip_seq seq; sum }

(* ---- wire-size accounting ---- *)

(* u32 seq + u32 checksum + u32 kind length + the kind tag itself ride
   every data frame; acks are u8 tag + u32 seq + u32 checksum *)
let data_overhead_bits ~kind = 8 * (12 + String.length kind)
let ack_bits = 8 * 9

(* ---- endpoint ---- *)

type config = {
  rto : float;
  backoff : float;
  max_rto : float;
  jitter : float;
  max_attempts : int;
}

let default_config =
  { rto = 3.0; backoff = 1.6; max_rto = 20.0; jitter = 0.3; max_attempts = 25 }

type stats = {
  data_sent : int;
  retransmits : int;
  gave_up : int;
  dup_suppressed : int;
  corrupt_rejected : int;
  decode_failures : int;
}

let zero_stats =
  { data_sent = 0;
    retransmits = 0;
    gave_up = 0;
    dup_suppressed = 0;
    corrupt_rejected = 0;
    decode_failures = 0 }

let add_stats a b =
  { data_sent = a.data_sent + b.data_sent;
    retransmits = a.retransmits + b.retransmits;
    gave_up = a.gave_up + b.gave_up;
    dup_suppressed = a.dup_suppressed + b.dup_suppressed;
    corrupt_rejected = a.corrupt_rejected + b.corrupt_rejected;
    decode_failures = a.decode_failures + b.decode_failures }

type 'msg outstanding = {
  o_kind : string;
  o_frame : 'msg frame;
  o_bits : int;
  o_id : int; (* logical-message correlation id; every send copy reuses it *)
  mutable o_attempt : int;
  mutable o_timeout : float; (* the delay its pending timer was armed with *)
}

(* sequence numbers of one (sender, destination) stream *)
module Seqs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash seq = seq
end)

type 'msg wire = {
  frames : 'msg frame Network.t;
  encode : 'msg -> string;
  decode : string -> 'msg option;
}

let wire frames ~encode ~decode = { frames; encode; decode }

type 'msg t = {
  wire : 'msg wire;
  engine : Sim.Engine.t;
  rng : Stdx.Rng.t;
  config : config;
  me : int;
  trace : Trace.t option;
  mutable handler : (src:int -> 'msg -> unit) option;
  mutable detached : bool;
  (* the endpoint's one retransmit-timer callback, called with
     [seq * n + dst] (see [arm]) *)
  mutable on_timer : int -> unit;
  next_seq : int array; (* per destination *)
  unacked : 'msg outstanding Seqs.t array; (* per destination, by seq *)
  (* receiver dedup, per source: the seqs delivered, a watermark plus
     the out-of-order arrivals above it — a sliding window *)
  seen : Stdx.Seqset.t array;
  per_dst_retransmits : int array;
  mutable data_sent : int;
  mutable retransmits : int;
  mutable gave_up : int;
  mutable dup_suppressed : int;
  mutable corrupt_rejected : int;
  mutable decode_failures : int;
}

(* receiver-side events happen inside the delivery of some frame: the
   ambient cause IS that frame's correlation id. Both test [t.trace]
   before they build the event, so an untraced link allocates nothing *)
let tr_rx_drop t ~src ~kind reason =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr
      (Trace.Drop
         { src; dst = t.me; msg_kind = kind; reason;
           id = Trace.current_cause tr })

let tr_corrupt t ~src ~kind =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr
      (Trace.Corrupt_reject
         { src; dst = t.me; msg_kind = kind; id = Trace.current_cause tr })

let mid_opt id = if id >= 0 then Some id else None

let stats (t : _ t) =
  { data_sent = t.data_sent;
    retransmits = t.retransmits;
    gave_up = t.gave_up;
    dup_suppressed = t.dup_suppressed;
    corrupt_rejected = t.corrupt_rejected;
    decode_failures = t.decode_failures }

let retransmits_by_dst t =
  Array.to_list t.per_dst_retransmits
  |> List.mapi (fun dst count -> (dst, count))
  |> List.filter (fun (_, count) -> count > 0)

let set_handler t handler = t.handler <- Some handler

let clear_handler t = t.handler <- None

(* A timer is an engine call event carrying [seq * n + dst], so arming
   one builds no closure; the delay it was armed with stays on the
   outstanding frame, where the next backoff starts from. *)
let arm t ~dst ~seq (o : _ outstanding) ~timeout =
  o.o_timeout <- timeout;
  Sim.Engine.schedule_call t.engine ~delay:timeout t.on_timer
    ((seq * Network.n t.wire.frames) + dst)

let on_timer t arg =
  let n = Network.n t.wire.frames in
  let seq = arg / n and dst = arg mod n in
  if not t.detached then
    match Seqs.find t.unacked.(dst) seq with
    | exception Not_found -> () (* acked in the meantime *)
    | o ->
      if o.o_attempt >= t.config.max_attempts then begin
        Seqs.remove t.unacked.(dst) seq;
        t.gave_up <- t.gave_up + 1;
        match t.trace with
        | None -> ()
        | Some tr ->
          Trace.emit tr
            (Trace.Drop
               { src = t.me; dst; msg_kind = o.o_kind; reason = "give-up";
                 id = o.o_id })
      end
      else begin
        let sp = Prof.enter "link.retransmit" in
        (try
           o.o_attempt <- o.o_attempt + 1;
           t.retransmits <- t.retransmits + 1;
           t.per_dst_retransmits.(dst) <- t.per_dst_retransmits.(dst) + 1;
           (match t.trace with
           | None -> ()
           | Some tr ->
             Trace.emit tr
               (Trace.Retransmit
                  { src = t.me; dst; msg_kind = o.o_kind; seq;
                    attempt = o.o_attempt; id = o.o_id }));
           Network.send ?mid:(mid_opt o.o_id) t.wire.frames ~src:t.me ~dst
             ~kind:o.o_kind ~bits:o.o_bits o.o_frame;
           let next =
             Float.min (o.o_timeout *. t.config.backoff) t.config.max_rto
           in
           let jittered =
             next *. (1.0 +. (t.config.jitter *. Stdx.Rng.float t.rng 1.0))
           in
           arm t ~dst ~seq o ~timeout:jittered
         with e -> Prof.leave_reraise sp e);
        Prof.leave sp
      end

(* One reliable delivery of an already-encoded message and the wire's
   decode of its bytes. *)
let send_bytes t ~dst ~kind ~bits bytes decoded =
  if not t.detached then begin
    let seq = t.next_seq.(dst) in
    t.next_seq.(dst) <- seq + 1;
    let frame = make_data ~seq ~kind ~bytes ~decoded in
    (* allocate the logical id here, not in Network.send, so retransmit
       copies of this frame share it *)
    let mid =
      match t.trace with None -> -1 | Some tr -> Trace.fresh_id tr
    in
    let o =
      { o_kind = kind;
        o_frame = frame;
        o_bits = bits + data_overhead_bits ~kind;
        o_id = mid;
        o_attempt = 0;
        o_timeout = t.config.rto }
    in
    Seqs.replace t.unacked.(dst) seq o;
    t.data_sent <- t.data_sent + 1;
    Network.send ?mid:(mid_opt mid) t.wire.frames ~src:t.me ~dst ~kind
      ~bits:(bits + data_overhead_bits ~kind)
      frame;
    arm t ~dst ~seq o ~timeout:o.o_timeout
  end

(* A message is encoded, and its bytes decoded, once per send: every
   receiver of an intact, pristine frame is handed that one decode, which
   is what its own decoder would return (one codec per wire, and every
   message type is immutable). *)
let send t ~dst ~kind ~bits msg =
  if not t.detached then begin
    let bytes = t.wire.encode msg in
    send_bytes t ~dst ~kind ~bits bytes (t.wire.decode bytes)
  end

(* encoded and decoded once, then one frame per destination *)
let broadcast t ~kind ~bits msg =
  if not t.detached then begin
    let bytes = t.wire.encode msg in
    let decoded = t.wire.decode bytes in
    for dst = 0 to Network.n t.wire.frames - 1 do
      send_bytes t ~dst ~kind ~bits bytes decoded
    done
  end

let on_frame t ~src frame =
  let sp = Prof.enter "link.on_frame" in
  (try
     if not t.detached then
    match frame with
    | Data { seq; kind; bytes; sum; decoded } ->
      if not (frame_intact frame) then begin
        t.corrupt_rejected <- t.corrupt_rejected + 1;
        tr_corrupt t ~src ~kind
        (* no ack: the sender's retransmission recovers the frame *)
      end
      else begin
        (* ack every intact data frame, duplicates included — the
           original ack may have been the copy the link lost *)
        Network.send t.wire.frames ~src:t.me ~dst:src ~kind:"link-ack"
          ~bits:ack_bits (make_ack ~seq);
        if not (Stdx.Seqset.add t.seen.(src) seq) then begin
          t.dup_suppressed <- t.dup_suppressed + 1;
          tr_rx_drop t ~src ~kind "duplicate"
        end
        else
          match if sum = pristine then decoded else t.wire.decode bytes with
          | None ->
            (* transport did its job; the payload itself is garbage
               (Byzantine sender) — count it and move on *)
            t.decode_failures <- t.decode_failures + 1;
            tr_rx_drop t ~src ~kind "decode"
          | Some msg -> (
            match t.handler with
            | Some handler -> handler ~src msg
            | None ->
              tr_rx_drop t ~src ~kind "no-handler")
      end
    | Ack { seq; _ } ->
      if not (frame_intact frame) then begin
        (* a corrupted ack must not acknowledge anything: drop it and
           let the (re-acked) retransmission settle the frame *)
        t.corrupt_rejected <- t.corrupt_rejected + 1;
        tr_corrupt t ~src ~kind:"link-ack"
      end
      else Seqs.remove t.unacked.(src) seq
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let attach ~wire ~engine ~rng ?(config = default_config) ?trace ~me () =
  if config.rto <= 0.0 || config.backoff < 1.0 || config.max_rto < config.rto
  then invalid_arg "Link.attach: bad timer config";
  if config.jitter < 0.0 then invalid_arg "Link.attach: negative jitter";
  if config.max_attempts < 1 then invalid_arg "Link.attach: max_attempts < 1";
  let net = wire.frames in
  let n = Network.n net in
  let t =
    { wire;
      engine;
      rng;
      config;
      me;
      trace;
      handler = None;
      detached = false;
      on_timer = ignore;
      next_seq = Array.make n 0;
      unacked = Array.init n (fun _ -> Seqs.create 16);
      seen = Array.init n (fun _ -> Stdx.Seqset.create ());
      per_dst_retransmits = Array.make n 0;
      data_sent = 0;
      retransmits = 0;
      gave_up = 0;
      dup_suppressed = 0;
      corrupt_rejected = 0;
      decode_failures = 0 }
  in
  t.on_timer <- on_timer t;
  Network.register net me (fun ~src frame -> on_frame t ~src frame);
  t

let detach t =
  if not t.detached then begin
    t.detached <- true;
    t.handler <- None;
    Array.iter Seqs.reset t.unacked;
    Network.unregister t.wire.frames t.me
  end
