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

(* Instances live in per-round rows indexed by origin, the [Dag] row
   shape; [last_round]/[last_row] cache the row used last. Rounds are
   never negative, so [-1] marks an empty cache. *)
type t = {
  net : msg Net.Port.t;
  me : int;
  n : int;
  f : int;
  deliver : deliver;
  rows : (int, instance option array) Hashtbl.t;
  mutable last_round : int;
  mutable last_row : instance option array;
  mutable instances : int;
  mutable delivered_count : int;
  mutable trace : Trace.t option;
}

let set_trace t tr = t.trace <- Some tr

let phase t ~origin ~round p =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Rbc_phase { node = t.me; origin; round; phase = p })

let row t round =
  if round = t.last_round then t.last_row
  else begin
    let row =
      match Hashtbl.find_opt t.rows round with
      | Some row -> row
      | None ->
        let row = Array.make t.n None in
        Hashtbl.add t.rows round row;
        row
    in
    t.last_round <- round;
    t.last_row <- row;
    row
  end

let get_instance t ~origin ~round =
  let row = row t round in
  match row.(origin) with
  | Some inst -> inst
  | None ->
    let inst =
      { echoed = false;
        ready_sent = false;
        delivered = false;
        echoes = ref [];
        readies = ref [] }
    in
    row.(origin) <- Some inst;
    t.instances <- t.instances + 1;
    inst

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

(* a vote naming an origin outside [0, n) or a negative round opens no
   instance: no process could have sent its Init *)
let valid t ~origin ~round = origin >= 0 && origin < t.n && round >= 0

let handle t ~src msg =
  let sp = Prof.enter "rbc.bracha.recv" in
  (try
     match msg with
  | Init { round; payload } ->
    let origin = src in
    if valid t ~origin ~round then begin
      let inst = get_instance t ~origin ~round in
      if not inst.echoed then begin
        inst.echoed <- true;
        send_echo t ~origin ~round ~payload
      end
    end
  | Echo { origin; round; payload } ->
    if valid t ~origin ~round then begin
      let inst = get_instance t ~origin ~round in
      let count = add_voter t inst.echoes payload src in
      if count >= quorum t then
        send_ready t inst ~origin ~round ~payload
    end
  | Ready { origin; round; payload } ->
    if valid t ~origin ~round then begin
      let inst = get_instance t ~origin ~round in
      let count = add_voter t inst.readies payload src in
      if count >= amplify t then
        send_ready t inst ~origin ~round ~payload;
      try_deliver t inst ~origin ~round ~payload ~count
    end
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
      rows = Hashtbl.create 64;
      last_round = -1;
      last_row = [||];
      instances = 0;
      delivered_count = 0;
      trace = None }
  in
  Net.Port.register port me (fun ~src msg -> handle t ~src msg);
  t

let create ~net ~me ~f ~deliver =
  create_port ~port:(Net.Port.of_network net) ~me ~f ~deliver

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

let open_instances t = t.instances
