open Rbc_intf

type msg =
  | Init of { round : int; payload : string }
  | Echo of { origin : int; round : int; payload : string }
  | Ready of { origin : int; round : int; payload : string }

let decode_msg src =
  Wire.decode src (fun r ->
      match Wire.get_u8 r with
      | 1 ->
        let round = Wire.get_u32 r in
        let payload = Wire.get_bytes r in
        Wire.finish r (Init { round; payload })
      | 2 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let payload = Wire.get_bytes r in
        Wire.finish r (Echo { origin; round; payload })
      | 3 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let payload = Wire.get_bytes r in
        Wire.finish r (Ready { origin; round; payload })
      | _ -> None)

(* [8 * String.length (encode_msg msg)], the size [encode_msg] writes:
   a tag byte, one u32 per identifier and a u32 length before the
   payload. *)
let msg_bits msg =
  let ids, payload =
    match msg with
    | Init { payload; _ } -> (1, payload)
    | Echo { payload; _ } | Ready { payload; _ } -> (2, payload)
  in
  8 * (1 + (4 * ids) + 4 + String.length payload)

let encode_msg msg =
  let w = Wire.writer ~bits:(msg_bits msg) in
  (match msg with
  | Init { round; payload } ->
    Wire.put_u8 w 1;
    Wire.put_u32 w round;
    Wire.put_bytes w payload
  | Echo { origin; round; payload } ->
    Wire.put_u8 w 2;
    Wire.put_u32 w origin;
    Wire.put_u32 w round;
    Wire.put_bytes w payload
  | Ready { origin; round; payload } ->
    Wire.put_u8 w 3;
    Wire.put_u32 w origin;
    Wire.put_u32 w round;
    Wire.put_bytes w payload);
  Wire.contents w

(* Votes are keyed by the payload bytes themselves, so no digest (and
   no digest collision) is involved. The copies of one payload that a
   correct Init fans out are physically equal, so the byte compare
   behind [==] almost never runs. *)
type instance = {
  mutable echoed : bool;
  mutable ready_sent : bool;
  mutable delivered : bool;
  votes : unit Tally.t;
}

type t = {
  net : msg Net.Port.t;
  me : int;
  f : int;
  deliver : deliver;
  instances : instance Rows.t;
  mutable trace : Trace.t option;
}

let set_trace t tr = t.trace <- Some tr

let phase t ~origin ~round p =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Rbc_phase { node = t.me; origin; round; phase = p })

let new_instance n () =
  { echoed = false;
    ready_sent = false;
    delivered = false;
    votes = Tally.create ~n ~empty:() }

let quorum t = (2 * t.f) + 1
let amplify t = t.f + 1

let send_echo t ~origin ~round ~payload =
  phase t ~origin ~round "echo";
  let msg = Echo { origin; round; payload } in
  Net.Port.broadcast t.net ~src:t.me ~kind:"bracha-echo"
    ~bits:(msg_bits msg) msg

let send_ready t inst ~origin ~round ~payload =
  if not inst.ready_sent then begin
    inst.ready_sent <- true;
    phase t ~origin ~round "ready";
    let msg = Ready { origin; round; payload } in
    Net.Port.broadcast t.net ~src:t.me ~kind:"bracha-ready"
      ~bits:(msg_bits msg) msg
  end

let try_deliver t inst ~origin ~round ~payload ~count =
  if (not inst.delivered) && count >= quorum t then begin
    inst.delivered <- true;
    phase t ~origin ~round "deliver";
    t.deliver ~payload ~round ~source:origin
  end

let handle t ~src msg =
  let sp = Prof.enter "rbc.bracha.recv" in
  (try
     match msg with
  | Init { round; payload } -> (
    let origin = src in
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      if not inst.echoed then begin
        inst.echoed <- true;
        send_echo t ~origin ~round ~payload
      end
    | None -> ())
  | Echo { origin; round; payload } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      let key = Tally.find_or_add inst.votes payload 0 in
      let count = Tally.vote key Tally.Echo src in
      if count >= quorum t then send_ready t inst ~origin ~round ~payload
    | None -> ())
  | Ready { origin; round; payload } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      let key = Tally.find_or_add inst.votes payload 0 in
      let count = Tally.vote key Tally.Ready src in
      if count >= amplify t then send_ready t inst ~origin ~round ~payload;
      try_deliver t inst ~origin ~round ~payload ~count
    | None -> ())
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let create_port ~port ~me ~f ~deliver =
  let n = Net.Port.n port in
  let t =
    { net = port;
      me;
      f;
      deliver;
      instances = Rows.create ~n ~make:(new_instance n);
      trace = None }
  in
  Net.Port.register port me (fun ~src msg -> handle t ~src msg);
  t

let bcast t ~payload ~round =
  let sp = Prof.enter "rbc.bracha.bcast" in
  (try
     phase t ~origin:t.me ~round "init";
     let msg = Init { round; payload } in
     Net.Port.broadcast t.net ~src:t.me ~kind:"bracha-init"
       ~bits:(msg_bits msg) msg
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let inject_init t ~dst ~round ~payload =
  let msg = Init { round; payload } in
  Net.Port.send t.net ~src:t.me ~dst ~kind:"bracha-init" ~bits:(msg_bits msg)
    msg

let prune_below t ~round = Rows.prune_below t.instances ~round

let open_instances t = Rows.open_instances t.instances

let dropped_below_horizon t = Rows.dropped_below_horizon t.instances
