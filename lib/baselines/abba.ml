open Rbc.Rbc_intf

type msg =
  | Bval of { round : int; value : bool }
  | Aux of { round : int; value : bool }
  | Decided of { value : bool }
      (* halting layer: on deciding, broadcast Decided; f+1 matching
         Decided messages let stragglers decide without more rounds;
         2f+1 let a process halt entirely (quiescence) *)

(* a tag byte, then a u32 round for [Bval]/[Aux], then the value byte *)
let msg_bits = function Bval _ | Aux _ -> 8 * 6 | Decided _ -> 8 * 2

let encode_msg msg =
  let w = Wire.writer ~bits:(msg_bits msg) in
  (match msg with
  | Bval { round; value } ->
    Wire.put_u8 w 1;
    Wire.put_u32 w round;
    Wire.put_bool w value
  | Aux { round; value } ->
    Wire.put_u8 w 2;
    Wire.put_u32 w round;
    Wire.put_bool w value
  | Decided { value } ->
    Wire.put_u8 w 3;
    Wire.put_bool w value);
  Wire.contents w

type round_state = {
  mutable bval_received : Iset.t * Iset.t; (* senders for false, true *)
  mutable bval_sent : bool * bool; (* relayed false / true *)
  mutable bin_values : bool list;
  mutable aux_sent : bool;
  mutable aux_received : (int * bool) list; (* sender, value *)
  mutable done_ : bool;
}

type t = {
  net : msg Net.Network.t;
  coin : Crypto.Threshold_coin.t;
  me : int;
  f : int;
  tag : int;
  decide_cb : bool -> unit;
  rounds : (int, round_state) Hashtbl.t;
  mutable round : int;
  mutable est : bool;
  mutable decided : bool option;
  mutable halted : bool;
  mutable started : bool;
  mutable decided_senders : Iset.t * Iset.t; (* Decided senders per value *)
}

let round_state t r =
  match Hashtbl.find_opt t.rounds r with
  | Some st -> st
  | None ->
    let st =
      { bval_received = (Iset.empty, Iset.empty);
        bval_sent = (false, false);
        bin_values = [];
        aux_sent = false;
        aux_received = [];
        done_ = false }
    in
    Hashtbl.add t.rounds r st;
    st

let quorum t = (2 * t.f) + 1

(* The common coin for this instance's round r. The coin returns a
   process index; its parity is an unpredictable fair bit. *)
let coin_bit t ~round =
  let instance = (((t.tag * 1_000_003) + round) * 7) + 3 in
  let shares =
    (* local deterministic derivation: every process can compute every
       share, so the combine is a pure function of (tag, round) — this
       models the "coin already set up" case; the DAG-Rider stack uses
       the full share-exchange transport instead *)
    List.init
      (Crypto.Threshold_coin.threshold t.coin)
      (fun holder -> Crypto.Threshold_coin.make_share t.coin ~holder ~instance)
  in
  match Crypto.Threshold_coin.combine t.coin ~instance shares with
  | Some leader -> leader land 1 = 1
  | None -> false (* unreachable: threshold shares supplied *)

let send_bval t ~round ~value =
  let st = round_state t round in
  let sent_f, sent_t = st.bval_sent in
  let already = if value then sent_t else sent_f in
  if not already then begin
    st.bval_sent <- (if value then (sent_f, true) else (true, sent_t));
    let msg = Bval { round; value } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"abba-bval"
      ~bits:(msg_bits msg) msg
  end

let send_aux t ~round ~value =
  let st = round_state t round in
  if not st.aux_sent then begin
    st.aux_sent <- true;
    let msg = Aux { round; value } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"abba-aux"
      ~bits:(msg_bits msg) msg
  end

let announce_decide t v =
  if t.decided = None then begin
    t.decided <- Some v;
    let msg = Decided { value = v } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"abba-decided"
      ~bits:(msg_bits msg) msg;
    t.decide_cb v
  end

let rec try_progress t ~round =
  if round = t.round then begin
    let st = round_state t round in
    (* step 2: first value entering bin_values triggers our AUX *)
    (match st.bin_values with
    | v :: _ when not st.aux_sent -> send_aux t ~round ~value:v
    | _ -> ());
    (* step 3: 2f+1 AUX from distinct senders, all carrying values that
       made it into bin_values *)
    if (not st.done_) && st.aux_sent then begin
      let valid =
        List.filter (fun (_, v) -> List.mem v st.bin_values) st.aux_received
      in
      let senders =
        List.sort_uniq compare (List.map fst valid)
      in
      if List.length senders >= quorum t then begin
        st.done_ <- true;
        let vals =
          List.sort_uniq compare (List.map snd valid)
        in
        let c = coin_bit t ~round in
        (match vals with
        | [ v ] ->
          if v = c then announce_decide t v;
          t.est <- v
        | _ -> t.est <- c);
        (* advance even after deciding: stragglers' rounds must be able
           to complete; quiescence comes when everyone stops sending *)
        t.round <- round + 1;
        start_round t
      end
    end
  end

and start_round t =
  let round = t.round in
  send_bval t ~round ~value:t.est;
  (* messages for this round may have arrived early *)
  try_progress t ~round

let handle t ~src msg =
  if not t.halted then
  match msg with
  | Decided { value } ->
    let df, dt = t.decided_senders in
    let set = Iset.add src (if value then dt else df) in
    t.decided_senders <- (if value then (df, set) else (set, dt));
    let count = Iset.cardinal set in
    (* f+1 distinct deciders include a correct one: safe to adopt *)
    if count >= t.f + 1 then announce_decide t value;
    (* 2f+1: every correct process will reach f+1 without us *)
    if count >= quorum t && t.decided = Some value then t.halted <- true
  | Bval { round; value } ->
    let st = round_state t round in
    let rf, rt = st.bval_received in
    let set = if value then rt else rf in
    let set = Iset.add src set in
    st.bval_received <- (if value then (rf, set) else (set, rt));
    let count = Iset.cardinal set in
    (* f+1: a correct process backs the value — relay it *)
    if count >= t.f + 1 then send_bval t ~round ~value;
    (* 2f+1: the value is anchored — it may be AUXed and decided *)
    if count >= quorum t && not (List.mem value st.bin_values) then begin
      st.bin_values <- value :: st.bin_values;
      try_progress t ~round
    end;
    try_progress t ~round
  | Aux { round; value } ->
    let st = round_state t round in
    if not (List.mem_assoc src st.aux_received) then begin
      st.aux_received <- (src, value) :: st.aux_received;
      try_progress t ~round
    end

let create ~net ~coin ~me ~f ~tag ~decide () =
  let t =
    { net;
      coin;
      me;
      f;
      tag;
      decide_cb = decide;
      rounds = Hashtbl.create 8;
      round = 1;
      est = false;
      decided = None;
      halted = false;
      started = false;
      decided_senders = (Iset.empty, Iset.empty) }
  in
  Net.Network.register net me (fun ~src msg -> handle t ~src msg);
  t

let propose t value =
  if t.started then invalid_arg "Abba.propose: already proposed";
  t.started <- true;
  t.est <- value;
  start_round t

let decided t = t.decided

let rounds_used t = t.round - 1
