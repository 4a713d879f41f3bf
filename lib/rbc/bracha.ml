open Rbc_intf

type msg =
  | Init of { round : int; payload : string }
  | Echo of { origin : int; round : int; payload : string }
  | Ready of { origin : int; round : int; payload : string }

let encode_msg msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Init { round; payload } ->
    Wire.put_u8 buf 1;
    Wire.put_u32 buf round;
    Wire.put_bytes buf payload
  | Echo { origin; round; payload } ->
    Wire.put_u8 buf 2;
    Wire.put_u32 buf origin;
    Wire.put_u32 buf round;
    Wire.put_bytes buf payload
  | Ready { origin; round; payload } ->
    Wire.put_u8 buf 3;
    Wire.put_u32 buf origin;
    Wire.put_u32 buf round;
    Wire.put_bytes buf payload);
  Buffer.contents buf

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

(* [8 * String.length (encode_msg msg)] without building the encoding:
   a tag byte, one u32 per identifier and a u32 length before the
   payload. *)
let msg_bits msg =
  let ids, payload =
    match msg with
    | Init { payload; _ } -> (1, payload)
    | Echo { payload; _ } | Ready { payload; _ } -> (2, payload)
  in
  8 * (1 + (4 * ids) + 4 + String.length payload)

(* One vote per distinct payload: its voters as an n-bit set and their
   count. Equal bytes are the same vote, so no digest (and no digest
   collision) is involved. The copies of one payload that a correct
   Init fans out are physically equal, so the byte compare behind [==]
   almost never runs. *)
type vote = { payload : string; voters : Bytes.t; mutable count : int }

type instance = {
  mutable echoed : bool;
  mutable ready_sent : bool;
  mutable delivered : bool;
  echoes : vote list ref;
  readies : vote list ref;
}

type t = {
  net : msg Net.Port.t;
  me : int;
  n : int;
  f : int;
  deliver : deliver;
  instances : instance Rows.t;
  mutable delivered_count : int;
  mutable trace : Trace.t option;
}

let set_trace t tr = t.trace <- Some tr

let phase t ~origin ~round p =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Rbc_phase { node = t.me; origin; round; phase = p })

let new_instance () =
  { echoed = false;
    ready_sent = false;
    delivered = false;
    echoes = ref [];
    readies = ref [] }

let quorum t = (2 * t.f) + 1
let amplify t = t.f + 1

(* what [find_vote] returns when no vote matches; never stored *)
let no_vote = { payload = ""; voters = Bytes.empty; count = 0 }

let rec find_vote payload = function
  | [] -> no_vote
  | v :: rest ->
    if v.payload == payload || String.equal v.payload payload then v
    else find_vote payload rest

(* records [voter]'s vote for [payload]; returns the payload's count *)
let add_voter t votes payload voter =
  let v =
    let v = find_vote payload !votes in
    if v != no_vote then v
    else begin
      let v =
        { payload; voters = Bytes.make ((t.n + 7) / 8) '\000'; count = 0 }
      in
      votes := v :: !votes;
      v
    end
  in
  let byte = Char.code (Bytes.get v.voters (voter lsr 3)) in
  let bit = 1 lsl (voter land 7) in
  if byte land bit = 0 then begin
    Bytes.set v.voters (voter lsr 3) (Char.chr (byte lor bit));
    v.count <- v.count + 1
  end;
  v.count

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
    t.delivered_count <- t.delivered_count + 1;
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
      let count = add_voter t inst.echoes payload src in
      if count >= quorum t then send_ready t inst ~origin ~round ~payload
    | None -> ())
  | Ready { origin; round; payload } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      let count = add_voter t inst.readies payload src in
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
      n;
      f;
      deliver;
      instances = Rows.create ~n ~make:new_instance;
      delivered_count = 0;
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

let delivered_instances t = t.delivered_count

let prune_below t ~round = Rows.prune_below t.instances ~round

let open_instances t = Rows.open_instances t.instances

let dropped_below_horizon t = Rows.dropped_below_horizon t.instances
