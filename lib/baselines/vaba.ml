open Rbc.Rbc_intf

type msg =
  | Stage of { view : int; stage : int; promoter : int; value : string }
  | Ack of { view : int; stage : int; promoter : int }
  | Done of { view : int; promoter : int }
  | Coin_share of { view : int; share : Crypto.Threshold_coin.share }
  | View_change of {
      view : int;
      leader : int;
      stage_seen : int; (* 0 = nothing seen *)
      value : string option;
    }
  | Decide of { value : string; view : int }

(* Wire size, charged per message: a tag byte, a u32 per view, promoter,
   leader or coin field, a byte per stage, a u32 length before each
   value, and a byte for whether a view change carries a value. Quorum
   certificates attached to stage >= 2 / done / decide messages count
   as 2f+1 64-byte signature placeholders (the size a BLS multisig
   bundle would occupy), and an ack as one signature share. *)

let cert_placeholder_bytes = 64

let msg_bits ~quorum msg =
  let cert = quorum * cert_placeholder_bytes in
  let value v = 4 + String.length v in
  let bytes =
    match msg with
    | Stage { stage; value = v; _ } ->
      1 + 4 + 1 + 4 + value v + if stage > 1 then cert else 0
    | Ack _ -> 1 + 4 + 1 + 4 + cert_placeholder_bytes
    | Done _ -> 1 + 4 + 4 + cert
    | Coin_share _ -> 1 + (4 * 4)
    | View_change { value = None; _ } -> 1 + 4 + 4 + 1 + 1
    | View_change { value = Some v; _ } -> 1 + 4 + 4 + 1 + 1 + value v + cert
    | Decide { value = v; _ } -> 1 + 4 + value v + cert
  in
  8 * bytes

(* What party i remembers about view v. *)
type view_state = {
  mutable my_value : string;
  mutable my_stage : int; (* stage currently collecting acks for; 0 = not started *)
  mutable acks : Iset.t; (* acks for my current stage *)
  (* promoter -> (highest stage acked, its value): our key/lock/commit
     memory, reported at view change *)
  promotions : (int, int * string) Hashtbl.t;
  mutable dones : Iset.t;
  mutable shares : Crypto.Threshold_coin.share list;
  mutable share_sent : bool;
  mutable leader : int option;
  mutable vc_sent : bool;
  mutable vc_reports : (int * int * string option) list; (* reporter, stage, value *)
  mutable vc_resolved : bool;
  mutable adopted : bool; (* my_value was adopted from a leader: keep it *)
}

type t = {
  net : msg Net.Network.t;
  auth : Crypto.Auth.t;
  coin : Crypto.Threshold_coin.t;
  me : int;
  n : int;
  f : int;
  tag : int;
  proposal : me:int -> string;
  valid : string -> bool;
  decide_cb : value:string -> view:int -> unit;
  views : (int, view_state) Hashtbl.t;
  mutable current_view : int;
  mutable decided : string option;
  mutable started : bool;
}

let quorum t = (2 * t.f) + 1

let coin_instance t ~view = (t.tag * 1_000_003) + view

let fresh_view_state value =
  { my_value = value;
    my_stage = 0;
    acks = Iset.empty;
    promotions = Hashtbl.create 8;
    dones = Iset.empty;
    shares = [];
    share_sent = false;
    leader = None;
    vc_sent = false;
    vc_reports = [];
    vc_resolved = false;
    adopted = false }

let view_state t view =
  match Hashtbl.find_opt t.views view with
  | Some vs -> vs
  | None ->
    (* created on demand: messages for future views arrive early; the
       proposal is overwritten with the adopted value when we enter it *)
    let vs = fresh_view_state (t.proposal ~me:t.me) in
    Hashtbl.add t.views view vs;
    vs

let broadcast_stage t vs ~view ~stage =
  vs.my_stage <- stage;
  vs.acks <- Iset.empty;
  let msg = Stage { view; stage; promoter = t.me; value = vs.my_value } in
  Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-stage"
    ~bits:(msg_bits ~quorum:(quorum t) msg)
    msg

let enter_view t view =
  if t.decided = None then begin
    t.current_view <- view;
    let vs = view_state t view in
    if vs.my_stage = 0 then begin
      (* the proposal may have changed since this view's state was
         created on demand (e.g. Dumbo's certificate arriving late);
         adopted values take precedence *)
      if not vs.adopted then vs.my_value <- t.proposal ~me:t.me;
      broadcast_stage t vs ~view ~stage:1
    end
  end

let do_decide t ~value ~view =
  if t.decided = None then begin
    t.decided <- Some value;
    let msg = Decide { value; view } in
    Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-decide"
      ~bits:(msg_bits ~quorum:(quorum t) msg)
      msg;
    t.decide_cb ~value ~view
  end

let resolve_view_change t vs ~view =
  if (not vs.vc_resolved) && List.length vs.vc_reports >= quorum t then begin
    vs.vc_resolved <- true;
    let best =
      List.fold_left
        (fun acc (_, stage, value) ->
          match (acc, value) with
          | Some (bs, _), Some v when stage > bs -> Some (stage, v)
          | None, Some v when stage > 0 -> Some (stage, v)
          | _ -> acc)
        None vs.vc_reports
    in
    (match best with
    | Some (stage, value) when stage >= 4 -> do_decide t ~value ~view
    | Some (stage, value) when stage >= 2 ->
      (* adopt the leader's value for the next view (key/lock seen) *)
      let next = view_state t (view + 1) in
      if next.my_stage = 0 then begin
        next.my_value <- value;
        next.adopted <- true
      end
    | Some _ | None -> ());
    if t.decided = None then enter_view t (view + 1)
  end

let try_elect t vs ~view =
  if vs.leader = None then begin
    match
      Crypto.Threshold_coin.combine t.coin ~instance:(coin_instance t ~view)
        vs.shares
    with
    | None -> ()
    | Some leader ->
      vs.leader <- Some leader;
      if not vs.vc_sent then begin
        vs.vc_sent <- true;
        let stage_seen, value =
          match Hashtbl.find_opt vs.promotions leader with
          | Some (s, v) -> (s, Some v)
          | None -> (0, None)
        in
        let msg = View_change { view; leader; stage_seen; value } in
        Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-viewchange"
          ~bits:(msg_bits ~quorum:(quorum t) msg)
          msg
      end
  end

let handle t ~src msg =
  if t.decided = None then
    match msg with
    | Stage { view; stage; promoter; value } when view >= t.current_view ->
      let vs = view_state t view in
      (* remember the highest stage we acknowledge per promoter *)
      let known =
        match Hashtbl.find_opt vs.promotions promoter with
        | Some (s, _) -> s
        | None -> 0
      in
      if stage > known && t.valid value then begin
        Hashtbl.replace vs.promotions promoter (stage, value);
        let msg = Ack { view; stage; promoter } in
        Net.Network.send t.net ~src:t.me ~dst:promoter ~kind:"vaba-ack"
          ~bits:(msg_bits ~quorum:(quorum t) msg)
          msg
      end
    | Stage _ -> ()
    | Ack { view; stage; promoter } when promoter = t.me ->
      let vs = view_state t view in
      if stage = vs.my_stage then begin
        vs.acks <- Iset.add src vs.acks;
        if Iset.cardinal vs.acks >= quorum t then
          if stage < 4 then broadcast_stage t vs ~view ~stage:(stage + 1)
          else begin
            vs.my_stage <- 5;
            let msg = Done { view; promoter = t.me } in
            Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-done"
              ~bits:(msg_bits ~quorum:(quorum t) msg)
              msg
          end
      end
    | Ack _ -> ()
    | Done { view; promoter } ->
      let vs = view_state t view in
      vs.dones <- Iset.add promoter vs.dones;
      if Iset.cardinal vs.dones >= quorum t && not vs.share_sent then begin
        vs.share_sent <- true;
        (* the coin is flipped only after 2f+1 promotions completed *)
        let share =
          Crypto.Threshold_coin.make_share t.coin ~holder:t.me
            ~instance:(coin_instance t ~view)
        in
        let msg = Coin_share { view; share } in
        Net.Network.broadcast t.net ~src:t.me ~kind:"vaba-coin"
          ~bits:(msg_bits ~quorum:(quorum t) msg)
          msg
      end
    | Coin_share { view; share } ->
      let vs = view_state t view in
      if Crypto.Threshold_coin.verify_share t.coin share then begin
        vs.shares <- share :: vs.shares;
        try_elect t vs ~view
      end
    | View_change { view; leader = _; stage_seen; value } ->
      let vs = view_state t view in
      vs.vc_reports <- (src, stage_seen, value) :: vs.vc_reports;
      resolve_view_change t vs ~view
    | Decide { value; view } -> do_decide t ~value ~view

let create ~net ~auth ~coin ~me ~f ~tag ?(valid = fun _ -> true) ~proposal ~decide () =
  let n = Net.Network.n net in
  let t =
    { net;
      auth;
      coin;
      me;
      n;
      f;
      tag;
      proposal;
      valid;
      decide_cb = decide;
      views = Hashtbl.create 8;
      current_view = 1;
      decided = None;
      started = false }
  in
  Net.Network.register net me (fun ~src msg -> handle t ~src msg);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    enter_view t 1
  end

let decided t = t.decided

let view t = t.current_view
