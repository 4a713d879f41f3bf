type rbc_handle = {
  rbc_bcast : payload:string -> round:int -> unit;
  rbc_prune_below : round:int -> unit;
}

type rbc_factory = me:int -> deliver:Rbc.Rbc_intf.deliver -> rbc_handle

type coin_msg = Coin_share of Crypto.Threshold_coin.share

type sync_msg =
  | Sync_request of { from_round : int }
  | Sync_response of { vertices : (string * int * int) list }

type coin_mode = Separate_network | In_dag

type config = {
  n : int;
  f : int;
  rule : Ordering.rule;
  enable_weak_edges : bool;
  gc_depth : int option;
  coin_mode : coin_mode;
}

let default_config ~n ~f =
  { n;
    f;
    rule = Ordering.dag_rider;
    enable_weak_edges = true;
    gc_depth = None;
    coin_mode = Separate_network }

(* A coin instance's shares, at most one per holder: [held] were each
   verified against [h], the instance hash, and [taken] marks their
   holders, one byte per process. *)
type bucket = {
  h : int;
  taken : Bytes.t;
  mutable held : Crypto.Threshold_coin.share list;
  mutable count : int;
}

type t = {
  config : config;
  me : int;
  trace : Trace.t option;
  coin : Crypto.Threshold_coin.t;
  coin_net : coin_msg Net.Port.t;
  mutable sync_net : sync_msg Net.Port.t option;
  dag : Dag.t;
  ordering : Ordering.t;
  mutable rbc : rbc_handle option;
  blocks_to_propose : string Queue.t;
  block_source : round:int -> string;
  a_deliver : block:string -> round:int -> source:int -> unit;
  on_commit : Ordering.commit -> unit;
  (* Algorithm 2's buffer: [buffer.(0 .. buffered - 1)], oldest first.
     [ready] is a buffer pass's scratch, as long as [buffer]. *)
  mutable buffer : Vertex.t array;
  mutable ready : Vertex.t array;
  mutable buffered : int;
  mutable round : int; (* current round r of Algorithm 2 *)
  mutable started : bool;
  (* wave machinery — two cadences: ordering waves follow the commit
     rule's wave length, coin instances follow
     [Ordering.coin_wave_length] (they coincide for coin-scheduled
     rules) *)
  mutable waves_completed : int; (* highest ordering wave completed *)
  mutable coin_waves_completed : int; (* highest coin instance completed *)
  shares : (int, bucket) Hashtbl.t;
  leaders : (int, int) Hashtbl.t; (* resolved coin: wave -> process *)
  mutable next_wave_to_order : int;
  (* catch-up hardening: a sync response is one peer's unauthenticated
     claim, so a vertex this node cannot cross-check against its DAG
     needs byte-identical confirmation from f+1 distinct responders
     before admission (at most f are Byzantine, so one voucher is
     honest). Keyed (round, source, digest) -> responders seen. *)
  sync_trusting : bool;
  sync_pending : (int * int * string, int list ref) Hashtbl.t;
}

let me t = t.me
let current_round t = t.round
let dag t = t.dag
let ordering t = t.ordering
let delivered_log t = Ordering.delivered_log t.ordering
let buffered t = t.buffered
let waves_completed t = t.waves_completed
let coin_instances_resolved t = Hashtbl.length t.leaders
let coin_buckets t = Hashtbl.length t.shares

let coin_shares_held t =
  Hashtbl.fold (fun _ b acc -> acc + b.count) t.shares 0

let leader_of t ~wave =
  match (Ordering.rule t.ordering).Ordering.rule_schedule with
  | Ordering.Coin -> Hashtbl.find_opt t.leaders wave
  | Ordering.Round_robin ->
    if wave >= 1 then Some (Ordering.round_robin_leader ~n:t.config.n ~wave)
    else None

(* the raw coin-instance resolution, independent of the ordering rule's
   schedule — the coin cadence is the same under every rule, so readers
   of this accessor (e.g. adaptive adversaries) behave identically
   across rules and keep the DAG substrate rule-oblivious *)
let coin_leader_of t ~wave = Hashtbl.find_opt t.leaders wave

let rbc t =
  match t.rbc with
  | Some r -> r
  | None -> invalid_arg "Node: rbc backend not wired (internal error)"

(* ---- vertex creation (Algorithm 2, lines 16-21 and 27-31) ---- *)

let next_block t ~round =
  match Queue.take_opt t.blocks_to_propose with
  | Some b -> b
  | None -> t.block_source ~round

module Wire = Rbc.Rbc_intf.Wire

(* A share is the same 12-byte record on both coin transports: u32
   holder, u32 instance, u32 field element. *)
let put_share w (s : Crypto.Threshold_coin.share) =
  Wire.put_u32 w s.holder;
  Wire.put_u32 w s.instance;
  Wire.put_u32 w s.value

let get_share r =
  let holder = Wire.get_u32 r in
  let instance = Wire.get_u32 r in
  let value = Wire.get_u32 r in
  { Crypto.Threshold_coin.holder; instance; value }

(* In [In_dag] coin mode the RBC payload is the vertex encoding plus a
   trailing share record and a flag byte:
     <vertex bytes> <u32 holder> <u32 instance> <u32 value> '\001'
   or just <vertex bytes> '\000'. The suffix parses backwards, so the
   vertex codec itself stays unchanged. In [Separate_network] mode the
   payload is the bare vertex encoding. *)

let encode_payload t ~vertex_bytes ~share =
  match (t.config.coin_mode, share) with
  | Separate_network, _ -> vertex_bytes
  | In_dag, None -> vertex_bytes ^ "\000"
  | In_dag, Some s ->
    let w = Wire.writer ~bits:(8 * (String.length vertex_bytes + 13)) in
    Wire.put_raw w vertex_bytes;
    put_share w s;
    Wire.put_u8 w 1;
    Wire.contents w

let payload_vertex_length t payload =
  match t.config.coin_mode with
  | Separate_network -> String.length payload
  | In_dag -> (
    let len = String.length payload in
    if len = 0 then -1
    else
      match payload.[len - 1] with
      | '\000' -> len - 1
      | '\001' when len >= 13 -> len - 13
      | _ -> -1)

let payload_share t payload =
  let len = String.length payload in
  match t.config.coin_mode with
  | In_dag when len >= 13 && payload.[len - 1] = '\001' ->
    Some (get_share { Wire.src = payload; pos = len - 13 })
  | In_dag | Separate_network -> None

(* round w*L + 1 is the first round a process can only enter after
   completing coin instance w, so its vertex carries w's share in
   [In_dag] mode *)
let share_wave t ~round =
  let wave_length = Ordering.coin_wave_length t.config.rule in
  if round > wave_length && (round - 1) mod wave_length = 0 then
    Some ((round - 1) / wave_length)
  else None

(* this process's share for coin instance [wave], made only once it
   completed the wave (paper §5) *)
let flip t ~wave =
  (match t.trace with
  | None -> ()
  | Some tr -> Trace.emit tr (Trace.Coin_flip { node = t.me; wave }));
  Crypto.Threshold_coin.make_share t.coin ~holder:t.me ~instance:wave

let create_and_broadcast_vertex t ~round =
  let strong_edges = Dag.round_refs t.dag (round - 1) in
  let weak_edges =
    if t.config.enable_weak_edges then Dag.weak_edges t.dag ~round ~strong_edges
    else []
  in
  let v =
    { Vertex.round;
      source = t.me;
      block = next_block t ~round;
      strong_edges;
      weak_edges }
  in
  let share =
    match t.config.coin_mode with
    | Separate_network -> None
    | In_dag -> Option.map (fun wave -> flip t ~wave) (share_wave t ~round)
  in
  let payload = encode_payload t ~vertex_bytes:(Vertex.encode v) ~share in
  (match t.trace with
  | None -> ()
  | Some tr -> Trace.emit tr (Trace.Vertex_created { node = t.me; round }));
  (rbc t).rbc_bcast ~payload ~round

(* ---- wire codecs for the coin and sync channels ----

   Messages on these channels travel as typed OCaml values on reliable
   networks, but over lossy links (Net.Link) they are carried as bytes
   — these codecs are what the link endpoints are attached with, and
   they face the same hostile inputs as the RBC codecs (fuzzed in the
   suite, must return None rather than raise). *)

let max_sync_vertices = 500

let encode_coin_msg (Coin_share s) =
  let w = Wire.writer ~bits:(8 * 13) in
  Wire.put_u8 w 1;
  put_share w s;
  Wire.contents w

let decode_coin_msg src =
  Wire.decode src (fun r ->
      match Wire.get_u8 r with
      | 1 -> Wire.finish r (Coin_share (get_share r))
      | _ -> None)

(* [8 * String.length (encode_sync_msg msg)]: a tag byte and a u32 (the
   round asked from, or the vertex count), then per vertex a u32 round,
   a u32 source and a u32 length before its bytes *)
let sync_msg_bits = function
  | Sync_request _ -> 8 * 5
  | Sync_response { vertices } ->
    List.fold_left
      (fun acc (payload, _, _) -> acc + (8 * (String.length payload + 12)))
      (8 * 5) vertices

let encode_sync_msg msg =
  let w = Wire.writer ~bits:(sync_msg_bits msg) in
  (match msg with
  | Sync_request { from_round } ->
    Wire.put_u8 w 1;
    Wire.put_u32 w from_round
  | Sync_response { vertices } ->
    Wire.put_u8 w 2;
    Wire.put_u32 w (List.length vertices);
    List.iter
      (fun (payload, round, source) ->
        Wire.put_u32 w round;
        Wire.put_u32 w source;
        Wire.put_bytes w payload)
      vertices);
  Wire.contents w

let decode_sync_msg src =
  Wire.decode src (fun r ->
      match Wire.get_u8 r with
      | 1 ->
        let from_round = Wire.get_u32 r in
        Wire.finish r (Sync_request { from_round })
      | 2 ->
        let count = Wire.get_u32 r in
        (* honest responses are capped; a huge count is an attack on the
           decoder's allocator, not a message *)
        if count > max_sync_vertices then raise Wire.Bad;
        let vertices =
          List.init count (fun _ ->
              let round = Wire.get_u32 r in
              let source = Wire.get_u32 r in
              let payload = Wire.get_bytes r in
              (payload, round, source))
        in
        Wire.finish r (Sync_response { vertices })
      | _ -> None)

(* ---- coin handling ---- *)

(* a share is charged at the size of its 12-byte record *)
let broadcast_share t ~wave =
  Net.Port.broadcast t.coin_net ~src:t.me ~kind:"coin-share"
    ~bits:Crypto.Threshold_coin.share_size_bits
    (Coin_share (flip t ~wave))

(* The RBC instances share the DAG's horizon, which the ordering raises
   as it delivers leaders ([Ordering.process_wave]). A vertex in the DAG
   was r_delivered here, so this process already sent its Ready for it
   and no other process waits on it for a pruned row; nothing below the
   horizon is delivered by any process. *)
let prune_rbc t = (rbc t).rbc_prune_below ~round:(Dag.pruned_below t.dag)

(* ---- provenance certificates ----

   A traced node records each ordering decision once, as a certificate
   carrying the full evidence: the schedule that named the leader, the
   exact supporter set counted against the quorum, and — for chained
   commits — which later leader's strong path recovered the wave and
   which direct commit anchored the chain. lib/analyze builds its wave
   records and lib/forensics its explain/divergence views from these. *)

let sched_label = function
  | Ordering.Coin -> "coin"
  | Ordering.Round_robin -> "round-robin"

let emit_skip_cert t ~wave ~leader_source =
  match t.trace with
  | None -> ()
  | Some tr ->
    let rule = t.config.rule in
    let reason, support =
      Ordering.skip_evidence ~rule ~dag:t.dag ~wave ~leader_source
    in
    Trace.emit tr
      (Trace.Skip_cert
         { node = t.me;
           rule = rule.Ordering.rule_name;
           sched = sched_label rule.Ordering.rule_schedule;
           wave;
           leader_round =
             Ordering.round_of ~wave_length:rule.Ordering.rule_wave_length
               ~wave ~k:1;
           leader_source;
           reason = Ordering.skip_reason_label reason;
           support = List.map (fun v -> v.Vertex.source) support;
           quorum = Ordering.quorum_of rule ~f:t.config.f })

let emit_commit_cert t (c : Ordering.commit) =
  match t.trace with
  | None -> ()
  | Some tr ->
    let rule = t.config.rule in
    Trace.emit tr
      (Trace.Commit_cert
         { node = t.me;
           rule = rule.Ordering.rule_name;
           sched = sched_label rule.Ordering.rule_schedule;
           wave = c.Ordering.wave;
           leader_round = c.Ordering.leader.Vertex.round;
           leader_source = c.Ordering.leader.Vertex.source;
           direct = c.Ordering.direct;
           anchor_wave = c.Ordering.anchor;
           via_round = c.Ordering.via.Vertex.round;
           via_source = c.Ordering.via.Vertex.source;
           support =
             List.map
               (fun (r : Vertex.vref) -> r.Vertex.source)
               c.Ordering.support;
           quorum = Ordering.quorum_of rule ~f:t.config.f;
           delivered = List.length c.Ordering.delivered })

(* Run the ordering step for every wave that is locally complete and
   whose leader is known, strictly in wave order (Algorithm 3 needs
   leaders of all waves <= w when processing w). Coin-scheduled rules
   wait for the wave's coin to resolve; round-robin rules know every
   leader up front — completing the wave is their "timeout": the wave
   is processed immediately and an absent or under-voted leader is
   skipped for the chain-back to recover. *)
let rec try_order_waves t =
  let w = t.next_wave_to_order in
  let choose_leader =
    match (Ordering.rule t.ordering).Ordering.rule_schedule with
    | Ordering.Coin ->
      if Hashtbl.mem t.leaders w then
        Some (fun w' -> Hashtbl.find t.leaders w')
      else None
    | Ordering.Round_robin ->
      Some (fun w' -> Ordering.round_robin_leader ~n:t.config.n ~wave:w')
  in
  match choose_leader with
  | Some choose_leader when w <= t.waves_completed ->
    let commits =
      Ordering.process_wave t.ordering ~dag:t.dag ~wave:w ~choose_leader
    in
    if commits = [] then
      emit_skip_cert t ~wave:w ~leader_source:(choose_leader w);
    List.iter
      (fun (c : Ordering.commit) ->
        emit_commit_cert t c;
        t.on_commit c;
        List.iter
          (fun v ->
            (match t.trace with
            | None -> ()
            | Some tr ->
              Trace.emit tr
                (Trace.A_deliver
                   { node = t.me;
                     round = v.Vertex.round;
                     source = v.Vertex.source }));
            t.a_deliver ~block:v.Vertex.block ~round:v.Vertex.round
              ~source:v.Vertex.source)
          c.delivered)
      commits;
    if commits <> [] then prune_rbc t;
    t.next_wave_to_order <- w + 1;
    try_order_waves t
  | Some _ | None -> ()

(* the one intake for a share, whichever transport brought it. A wave's
   bucket takes each holder once, checking it against the hash computed
   when the bucket opened, so a resent share costs no hash and a bucket
   never holds more than n shares; only a verified share opens one.
   [combine] runs once, when the f+1-th distinct verified holder is in:
   the first moment it can return [Some], so the leader and its timing
   are those of combining on every share. *)
let accept_share t (share : Crypto.Threshold_coin.share) =
  let wave = share.instance in
  (* a resolved wave's share can change nothing: drop it before the
     verification hash, and before it re-opens the wave's bucket *)
  if not (Hashtbl.mem t.leaders wave) then begin
    let b =
      match Hashtbl.find t.shares wave with
      | b -> b
      | exception Not_found ->
        { h = Crypto.Threshold_coin.hash_instance t.coin wave;
          taken = Bytes.make (Crypto.Threshold_coin.n t.coin) '\000';
          held = [];
          count = 0 }
    in
    if
      share.holder >= 0
      && share.holder < Bytes.length b.taken
      && Bytes.get b.taken share.holder = '\000'
      && Crypto.Threshold_coin.valid_share t.coin ~h:b.h share
    then begin
      if b.count = 0 then Hashtbl.add t.shares wave b;
      Bytes.set b.taken share.holder '\001';
      b.held <- share :: b.held;
      b.count <- b.count + 1;
      if b.count = Crypto.Threshold_coin.threshold t.coin then
        match Crypto.Threshold_coin.combine t.coin ~instance:wave b.held with
        | Some leader ->
          Hashtbl.add t.leaders wave leader;
          Hashtbl.remove t.shares wave;
          (match t.trace with
          | None -> ()
          | Some tr ->
            Trace.emit tr (Trace.Leader_elected { node = t.me; wave; leader }));
          try_order_waves t
        | None -> ()
    end
  end

let on_coin_msg t ~src:_ (Coin_share share) =
  let sp = Prof.enter "node.coin" in
  (try accept_share t share with e -> Prof.leave_reraise sp e);
  Prof.leave sp

(* ---- round advancement (Algorithm 2, lines 5-15) ---- *)

let coin_wave_ready t ~wave =
  if wave > t.coin_waves_completed then begin
    t.coin_waves_completed <- wave;
    (* the coin for w is flipped only now that w is complete; in In_dag
       mode the share rides the next vertex broadcast instead *)
    if t.config.coin_mode = Separate_network then broadcast_share t ~wave
  end

(* Both cadences fire off the same round completion. The ordering wave
   counter is bumped first so commits triggered from inside the coin
   resolution (coin-scheduled rules resolve and order in one step) see
   the completed wave — the exact order of the pre-split code. *)
let wave_ready t ~round =
  let rule = t.config.rule in
  (match
     Ordering.wave_of_completed_round
       ~wave_length:rule.Ordering.rule_wave_length round
   with
  | Some w when w > t.waves_completed -> t.waves_completed <- w
  | Some _ | None -> ());
  (match
     Ordering.wave_of_completed_round
       ~wave_length:(Ordering.coin_wave_length rule) round
   with
  | Some w -> coin_wave_ready t ~wave:w
  | None -> ());
  try_order_waves t

let no_vertex =
  { Vertex.round = -1; source = -1; block = ""; strong_edges = []; weak_edges = [] }

let buffer_vertex t v =
  if t.buffered = Array.length t.buffer then begin
    let capacity = max 8 (2 * t.buffered) in
    let grown = Array.make capacity no_vertex in
    Array.blit t.buffer 0 grown 0 t.buffered;
    t.buffer <- grown;
    t.ready <- Array.make capacity no_vertex
  end;
  t.buffer.(t.buffered) <- v;
  t.buffered <- t.buffered + 1

let add_buffered t v =
  (* two copies of one slot can become addable in the same pass only
     through the deliberately weakened sync path (honest admission
     cross-checks the slot first); first writer wins and the cross-node
     equivocation oracle judges the result *)
  if not (Dag.holds t.dag v) then begin
    Dag.add t.dag v;
    (* [add] drops a vertex of a garbage-collected round *)
    if Dag.holds t.dag v then
      match t.trace with
      | None -> ()
      | Some tr ->
        Trace.emit tr
          (Trace.Vertex_added
             { node = t.me; round = v.Vertex.round; source = v.Vertex.source })
  end

(* One buffer pass (lines 6-9): every buffered vertex whose causal
   history is present joins the DAG, in buffer order, newest first.
   Readiness is fixed before the first addition, so a vertex the pass
   itself makes addable waits for the next pass: insertion numbers
   order [Dag.weak_edges]. The ready vertices move to [ready], the
   others close up in order. True if anything was ready. *)
let buffer_pass t =
  let ready = ref 0 and waiting = ref 0 in
  for i = 0 to t.buffered - 1 do
    let v = t.buffer.(i) in
    if Dag.can_add t.dag v then begin
      t.ready.(!ready) <- v;
      incr ready
    end
    else begin
      t.buffer.(!waiting) <- v;
      incr waiting
    end
  done;
  Array.fill t.buffer !waiting (t.buffered - !waiting) no_vertex;
  t.buffered <- !waiting;
  for k = !ready - 1 downto 0 do
    let v = t.ready.(k) in
    t.ready.(k) <- no_vertex;
    add_buffered t v
  done;
  !ready > 0

let rec try_advance t =
  (* iterate to a fixpoint since additions enable others *)
  while buffer_pass t do
    ()
  done;
  (* lines 10-15: complete rounds while quorums are in *)
  if Dag.round_size t.dag t.round >= (2 * t.config.f) + 1 then begin
    wave_ready t ~round:t.round;
    t.round <- t.round + 1;
    (match t.trace with
    | None -> ()
    | Some tr ->
      Trace.emit tr
        (Trace.Round_advanced { node = t.me; round = t.round }));
    create_and_broadcast_vertex t ~round:t.round;
    try_advance t
  end

(* bind an embedded share to the authenticated broadcast: its holder
   must be the vertex's source and its instance the wave this round
   proves complete — otherwise a Byzantine process could replay shares *)
let accept_embedded_share t ~round ~source = function
  | Some (share : Crypto.Threshold_coin.share) when share.holder = source -> (
    match share_wave t ~round with
    | Some wave when wave = share.instance -> accept_share t share
    | Some _ | None -> ())
  | Some _ | None -> ()

let on_r_deliver t ~payload ~round ~source =
  let sp = Prof.enter "node.r_deliver" in
  (try
     let len = payload_vertex_length t payload in
     (* a negative length is a malformed Byzantine frame *)
     if len >= 0 then
       match Vertex.decode_prefix ~round ~source payload ~len with
       | None -> () (* malformed Byzantine payload *)
       | Some v -> (
         match Vertex.validate ~n:t.config.n ~f:t.config.f v with
         | Error _ -> () (* fails Algorithm 2 line 25's checks *)
         | Ok () ->
           accept_embedded_share t ~round ~source (payload_share t payload);
           if not (Dag.holds t.dag v) then begin
             buffer_vertex t v;
             try_advance t
           end)
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

(* ---- catch-up sync (for restarted processes) ---- *)


(* first round that might still be missing vertices: the lowest round
   below the frontier that has fewer than n vertices. Rounds below the
   GC horizon are empty by pruning, not missing, so the search starts
   at the horizon. *)
let first_incomplete_round t =
  let rec go r =
    if r >= t.round then r
    else if Dag.round_size t.dag r < t.config.n then r
    else go (r + 1)
  in
  go (max 1 (Dag.pruned_below t.dag))

let request_sync t =
  match t.sync_net with
  | None ->
    (* surface the misconfiguration instead of silently doing nothing:
       a restart driver that calls this without wiring a sync channel
       would otherwise look like a liveness bug in the protocol *)
    (match t.trace with
    | None -> ()
    | Some tr -> Trace.emit tr (Trace.Sync_unavailable { node = t.me }));
    false
  | Some net ->
    let msg = Sync_request { from_round = first_incomplete_round t } in
    Net.Port.broadcast net ~src:t.me ~kind:"sync-request"
      ~bits:(sync_msg_bits msg) msg;
    true

(* Validated admission for synced vertices. Reliable-broadcast
   deliveries carry quorum evidence by construction; a sync response is
   a single peer's bare claim, so each triple is checked against the
   DAG's structural invariants and, when it cannot be cross-checked
   locally, held until f+1 distinct responders vouch for byte-identical
   content. Rejections are typed trace events ("envelope", "decode",
   "invalid", "conflict") so forensics can attribute the lie. Note sync
   responses carry the {e bare} vertex encoding (never the In_dag share
   framing): shares for old waves are useless to a restarting node, and
   decoding directly avoids mis-parsing raw bytes as a frame suffix. *)

let max_sync_pending = 2048

let sync_reject t ~src ~round ~source reason =
  (match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr
      (Trace.Sync_reject { node = t.me; src; round; source; reason }))

(* does the buffer hold a vertex of [v]'s slot with this digest? *)
let buffers_copy t (v : Vertex.t) digest =
  let rec from i =
    i < t.buffered
    && (let b = t.buffer.(i) in
        (b.round = v.round && b.source = v.source && Vertex.digest b = digest)
        || from (i + 1))
  in
  from 0

let admit_sync_vertex t ~src ~payload ~round ~source =
  if round < 1 || source < 0 || source >= t.config.n then
    sync_reject t ~src ~round ~source "envelope"
  else
    match Vertex.decode ~round ~source payload with
    | None -> sync_reject t ~src ~round ~source "decode"
    | Some v -> (
      match Vertex.validate ~n:t.config.n ~f:t.config.f v with
      | Error _ -> sync_reject t ~src ~round ~source "invalid"
      | Ok () -> (
        let vr = Vertex.vref_of v in
        match Dag.find t.dag vr with
        | Some existing ->
          (* the slot is occupied: a digest mismatch is a forgery (our
             copy came through reliable broadcast), a match is old news *)
          if Vertex.digest existing <> Vertex.digest v then
            sync_reject t ~src ~round ~source "conflict"
        | None ->
          let digest = Vertex.digest v in
          if not (buffers_copy t v digest) then begin
            let need = if t.sync_trusting then 1 else t.config.f + 1 in
            if need <= 1 then begin
              buffer_vertex t v;
              try_advance t
            end
            else begin
              let key = (round, source, digest) in
              let responders =
                match Hashtbl.find_opt t.sync_pending key with
                | Some r -> r
                | None ->
                  if Hashtbl.length t.sync_pending >= max_sync_pending then
                    Hashtbl.reset t.sync_pending;
                  let r = ref [] in
                  Hashtbl.add t.sync_pending key r;
                  r
              in
              if not (List.mem src !responders) then
                responders := src :: !responders;
              if List.length !responders >= need then begin
                Hashtbl.remove t.sync_pending key;
                buffer_vertex t v;
                try_advance t
              end
            end
          end))

let on_sync_msg t ~src msg =
  let sp = Prof.enter "node.sync" in
  (try
     match msg with
  | Sync_request { from_round } -> (
    match t.sync_net with
    | None -> ()
    | Some net ->
      (* rows below this responder's own horizon are pruned: empty *)
      let from_round = max (max 1 from_round) (Dag.pruned_below t.dag) in
      let vertices = ref [] in
      let count = ref 0 in
      (try
         for r = from_round to Dag.highest_round t.dag do
           List.iter
             (fun v ->
               if !count < max_sync_vertices then begin
                 incr count;
                 vertices :=
                   (Vertex.encode v, v.Vertex.round, v.Vertex.source)
                   :: !vertices
               end
               else raise Exit)
             (Dag.round_vertices t.dag r)
         done
       with Exit -> ());
      if !vertices <> [] then begin
        let msg = Sync_response { vertices = List.rev !vertices } in
        Net.Port.send net ~src:t.me ~dst:src ~kind:"sync-response"
          ~bits:(sync_msg_bits msg) msg
      end)
  | Sync_response { vertices } ->
    List.iter
      (fun (payload, round, source) ->
        admit_sync_vertex t ~src ~payload ~round ~source)
      vertices
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

(* ---- construction ---- *)

let create ~config ~me ~coin ~coin_net ~make_rbc ?sync_net
    ?(sync_trusting = false) ?trace
    ?(block_source = fun ~round:_ -> "")
    ?(a_deliver = fun ~block:_ ~round:_ ~source:_ -> ())
    ?(on_commit = fun _ -> ()) () =
  if config.n < 1 || config.f < 0 then invalid_arg "Node.create: bad config";
  if me < 0 || me >= config.n then invalid_arg "Node.create: bad process id";
  let t =
    { config;
      me;
      trace;
      coin;
      coin_net;
      sync_net;
      dag = Dag.create ~n:config.n;
      ordering =
        Ordering.create ~rule:config.rule ?gc_depth:config.gc_depth
          ~f:config.f ();
      rbc = None;
      blocks_to_propose = Queue.create ();
      block_source;
      a_deliver;
      on_commit;
      buffer = [||];
      ready = [||];
      buffered = 0;
      round = 0;
      started = false;
      waves_completed = 0;
      coin_waves_completed = 0;
      shares = Hashtbl.create 16;
      leaders = Hashtbl.create 16;
      next_wave_to_order = 1;
      sync_trusting;
      sync_pending = Hashtbl.create 16 }
  in
  let deliver ~payload ~round ~source =
    on_r_deliver t ~payload ~round ~source
  in
  t.rbc <- Some (make_rbc ~me ~deliver);
  Net.Port.register coin_net me (fun ~src msg -> on_coin_msg t ~src msg);
  (match sync_net with
  | Some net ->
    Net.Port.register net me (fun ~src msg -> on_sync_msg t ~src msg)
  | None -> ());
  t

type checkpoint = {
  ck_dag : Dag.t;
  ck_delivered : Vertex.t list;
  ck_decided_wave : int;
  ck_round : int;
}

let checkpoint t =
  { ck_dag = t.dag;
    ck_delivered = Ordering.delivered_log t.ordering;
    ck_decided_wave = Ordering.decided_wave t.ordering;
    ck_round = t.round }

let restore t ck =
  if t.started then invalid_arg "Node.restore: node already started";
  (* graft the persisted DAG in at its horizon: rebuild through Dag.add
     to re-establish the causal-closure invariant, whose edges into
     pruned rounds count as present *)
  Dag.prune_below t.dag ~round:(Dag.pruned_below ck.ck_dag);
  prune_rbc t;
  List.iter (fun v -> Dag.add t.dag v) (Dag.vertices ck.ck_dag);
  Ordering.restore t.ordering ~dag:t.dag ~delivered:ck.ck_delivered
    ~decided_wave:ck.ck_decided_wave;
  t.round <- ck.ck_round;
  (* wave_ready fires when advancing from round L*w to L*w + 1, so a
     node in round r has completed exactly (r - 1) / L waves of each
     cadence; coin shares for the completed coin instances were sent
     before the checkpoint and must not be re-sent *)
  t.waves_completed <-
    max 0 ((ck.ck_round - 1) / t.config.rule.Ordering.rule_wave_length);
  t.coin_waves_completed <-
    max 0 ((ck.ck_round - 1) / Ordering.coin_wave_length t.config.rule);
  t.next_wave_to_order <- ck.ck_decided_wave + 1;
  t.started <- true;
  ignore (request_sync t : bool)

let start t =
  if not t.started then begin
    t.started <- true;
    (* round 0 (genesis) is complete by construction; enter round 1 *)
    t.round <- 1;
    create_and_broadcast_vertex t ~round:1
  end

let a_bcast t block = Queue.add block t.blocks_to_propose
