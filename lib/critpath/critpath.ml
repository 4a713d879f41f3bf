(* |residual| bound under which a complete path counts as reconciled:
   one simulator tick *)
let tolerance = 1.0

type hop = {
  h_id : int;
  h_src : int;
  h_dst : int;
  h_kind : string;
  h_sent : float;
  h_last_sent : float;
  h_recv : float;
  h_hold : float;
  h_attempts : int;
}

type path = {
  p_round : int;
  p_source : int;
  p_created : float;
  p_rbc_deliver : float;
  p_inserted : float;
  p_adeliver : float;
  p_first_ready : float;
  p_straggler : int;
  p_trigger : string;
  p_hops : hop list;
  p_transit : float;
  p_stall : float;
  p_hold : float;
  p_quorum : float;
  p_dag : float;
  p_order : float;
  p_txs : int;
  p_tx_wait : float;
  p_total : float;
  p_residual : float;
  p_complete : bool;
  p_reason : string;
}

type report = {
  r_observer : int;
  r_processes : int;
  r_events : int;
  r_truncated : bool;
  r_paths : path list;
  r_complete : int;
  r_reconciled : int;
  r_max_residual : float;
  r_incomplete : (string * int) list;
  r_segments : (string * Stdx.Stats.summary) list;
  r_stragglers : (int * int * float) list;
  r_edges : ((int * int) * Stdx.Stats.summary) list;
}

(* One logical message, folded over its Send/Retransmit/Recv events.
   [m_last_send] is the last send copy observed BEFORE the first
   delivery (events arrive in stream order, so once [m_recv] is set a
   late retransmit-timer copy no longer moves it) — that keeps both
   stall and transit non-negative. [m_cause] comes from the first Send
   only: retransmit copies fire from timer context (cause -1). *)
type msg = {
  m_src : int;
  m_dst : int;
  m_kind : string;
  m_first_send : float;
  mutable m_last_send : float;
  m_cause : int;
  mutable m_recv : float; (* nan until delivered *)
  mutable m_attempts : int;
}

type stream_stats = {
  ss_quorum : Stdx.Stats.t;
  ss_transit : Stdx.Stats.t;
  ss_stall : Stdx.Stats.t;
  ss_hold : Stdx.Stats.t;
  ss_dag : Stdx.Stats.t;
  ss_order : Stdx.Stats.t;
  ss_txwait : Stdx.Stats.t;
  ss_total : Stdx.Stats.t;
  mutable ss_commits : int;
  mutable ss_complete : int;
  mutable ss_reconciled : int;
}

type t = {
  mutable first_seq : int; (* -1 until the first event *)
  mutable events : int;
  mutable max_node : int;
  msgs : (int, msg) Hashtbl.t; (* correlation id -> folded message *)
  (* (sender, activation cause) -> ready-kind sends of that activation:
     the join from a node's "ready" phase event to the wire copies it
     broadcast, used to time quorum arrivals at the observer *)
  ready_sends : (int * int, (int * int) list ref) Hashtbl.t;
  created : (int * int, float * int) Hashtbl.t; (* (round, source) *)
  deliver : (int * int * int, float * int) Hashtbl.t; (* (node, origin, round) *)
  ready_at : (int * int * int, int) Hashtbl.t; (* (node, origin, round) -> cause *)
  inserted : (int * int * int, float) Hashtbl.t; (* (node, round, source) *)
  adeliv : (int, (int * int * float) list ref) Hashtbl.t;
      (* node -> rev (round, source, at) *)
  (* FIFO mirror of each node's built-in mempool: accepted submit times
     not yet drained into a block. [blocks] records, per assembled
     (round, source) vertex, how many of its txs the mirror could match
     and their summed dwell — a truncated stream under-counts instead
     of inventing dwell *)
  txq : (int, float Queue.t) Hashtbl.t;
  blocks : (int * int, int * float) Hashtbl.t;
  kinds : (string, string) Hashtbl.t; (* intern pool for JSONL replays *)
  stream_observer : int option;
  mutable built : path list; (* newest first; streaming mode only *)
  stream : stream_stats;
}

let create ?observer () =
  { first_seq = -1;
    events = 0;
    max_node = -1;
    msgs = Hashtbl.create 4096;
    ready_sends = Hashtbl.create 1024;
    created = Hashtbl.create 256;
    deliver = Hashtbl.create 1024;
    ready_at = Hashtbl.create 1024;
    inserted = Hashtbl.create 1024;
    adeliv = Hashtbl.create 16;
    txq = Hashtbl.create 16;
    blocks = Hashtbl.create 256;
    kinds = Hashtbl.create 16;
    stream_observer = observer;
    built = [];
    stream =
      { ss_quorum = Stdx.Stats.create ();
        ss_transit = Stdx.Stats.create ();
        ss_stall = Stdx.Stats.create ();
        ss_hold = Stdx.Stats.create ();
        ss_dag = Stdx.Stats.create ();
        ss_order = Stdx.Stats.create ();
        ss_txwait = Stdx.Stats.create ();
        ss_total = Stdx.Stats.create ();
        ss_commits = 0;
        ss_complete = 0;
        ss_reconciled = 0 } }

let intern t s =
  match Hashtbl.find_opt t.kinds s with
  | Some v -> v
  | None ->
    Hashtbl.add t.kinds s s;
    s

let push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some cell -> cell := v :: !cell
  | None -> Hashtbl.add tbl key (ref [ v ])

let add_first tbl key v = if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v

let is_ready_kind kind =
  let n = String.length kind in
  n >= 6 && String.sub kind (n - 6) 6 = "-ready"

let nan = Float.nan

let mk_hop id (m : msg) ~hold =
  { h_id = id;
    h_src = m.m_src;
    h_dst = m.m_dst;
    h_kind = m.m_kind;
    h_sent = m.m_first_send;
    h_last_sent = m.m_last_send;
    h_recv = m.m_recv;
    h_hold = hold;
    h_attempts = m.m_attempts }

(* ---- per-commit reconstruction ---- *)

let build_path t ~observer (round, source, at) =
  (* mempool dwell of the txs this vertex carried; pre-creation time,
     so it sits outside the telescoping segments and the residual *)
  let txs, tx_wait =
    match Hashtbl.find_opt t.blocks (round, source) with
    | Some (n, sum) when n > 0 -> (n, sum /. float_of_int n)
    | _ -> (0, nan)
  in
  let created = Hashtbl.find_opt t.created (round, source) in
  let delivered = Hashtbl.find_opt t.deliver (observer, source, round) in
  let ins = Hashtbl.find_opt t.inserted (observer, round, source) in
  let f_created = match created with Some (x, _) -> x | None -> nan in
  let f_rbc = match delivered with Some (x, _) -> x | None -> nan in
  let f_ins = match ins with Some x -> x | None -> nan in
  let base reason =
    { p_round = round;
      p_source = source;
      p_created = f_created;
      p_rbc_deliver = f_rbc;
      p_inserted = f_ins;
      p_adeliver = at;
      p_first_ready = nan;
      p_straggler = -1;
      p_trigger = "";
      p_hops = [];
      p_transit = nan;
      p_stall = nan;
      p_hold = nan;
      p_quorum = nan;
      p_dag =
        (if Float.is_nan f_rbc || Float.is_nan f_ins then nan
         else f_ins -. f_rbc);
      p_order = (if Float.is_nan f_ins then nan else at -. f_ins);
      p_txs = txs;
      p_tx_wait = tx_wait;
      p_total = (if Float.is_nan f_created then nan else at -. f_created);
      p_residual = nan;
      p_complete = false;
      p_reason = reason }
  in
  match (created, delivered, ins) with
  | None, _, _ -> base "no-create"
  | _, None, _ -> base "no-rbc-deliver"
  | _, _, None -> base "no-dag-insert"
  | Some (t0, c0), Some (t1, cd), Some t2 ->
    (* the straggler: whoever sent the message whose handling completed
       the deliver quorum at the observer *)
    let straggler, trigger =
      if cd < 0 then (-1, "")
      else
        match Hashtbl.find_opt t.msgs cd with
        | Some m -> (m.m_src, m.m_kind)
        | None -> (-1, "")
    in
    (* quorum arrivals: for each peer that reached its own "ready"
       phase for this vertex, find the ready copy it sent the observer
       and take its delivery time (only arrivals at or before the
       observer's deliver count — later ones were not waited for) *)
    let arrivals = ref [] in
    for q = 0 to t.max_node do
      match Hashtbl.find_opt t.ready_at (q, source, round) with
      | None -> ()
      | Some cq -> (
        match Hashtbl.find_opt t.ready_sends (q, cq) with
        | None -> ()
        | Some sends ->
          List.iter
            (fun (dst, id) ->
              if dst = observer then
                match Hashtbl.find_opt t.msgs id with
                | Some m when (not (Float.is_nan m.m_recv)) && m.m_recv <= t1
                  ->
                  arrivals := (m.m_recv, id) :: !arrivals
                | _ -> ())
            !sends)
    done;
    let chain_start, first_ready =
      match List.sort compare !arrivals with
      | (recv, id) :: _ -> (Some id, recv)
      | [] ->
        (* no indexed ready arrivals (e.g. gossip sampled past the
           observer): chain from the deliver trigger itself, charging
           no quorum wait *)
        if cd < 0 then (None, nan)
        else (
          match Hashtbl.find_opt t.msgs cd with
          | Some m when not (Float.is_nan m.m_recv) -> (Some cd, m.m_recv)
          | _ -> (None, nan))
    in
    (match chain_start with
    | None ->
      { (base "no-trigger") with p_straggler = straggler; p_trigger = trigger }
    | Some start_id ->
      (* walk the cause chain backward to the origin's own activation;
         hops accumulate origin-first *)
      let rec walk hops ~transit ~stall ~hold id depth =
        if depth > 10_000 then Error "chain-cycle"
        else
          match Hashtbl.find_opt t.msgs id with
          | None -> Error "chain-broken"
          | Some m when Float.is_nan m.m_recv -> Error "chain-broken"
          | Some m ->
            let transit = transit +. (m.m_recv -. m.m_last_send) in
            let stall = stall +. (m.m_last_send -. m.m_first_send) in
            if m.m_cause = c0 && m.m_src = source then
              (* the origin's send shares the activation that created
                 the vertex: the chain is rooted *)
              let h = m.m_first_send -. t0 in
              Ok (mk_hop id m ~hold:h :: hops, transit, stall, hold +. h)
            else if m.m_cause < 0 then Error "chain-broken"
            else (
              match Hashtbl.find_opt t.msgs m.m_cause with
              | None -> Error "chain-broken"
              | Some mc when Float.is_nan mc.m_recv -> Error "chain-broken"
              | Some mc ->
                let h = m.m_first_send -. mc.m_recv in
                walk
                  (mk_hop id m ~hold:h :: hops)
                  ~transit ~stall ~hold:(hold +. h) m.m_cause (depth + 1))
      in
      (match walk [] ~transit:0.0 ~stall:0.0 ~hold:0.0 start_id 0 with
      | Error reason ->
        { (base reason) with
          p_straggler = straggler;
          p_trigger = trigger;
          p_first_ready = first_ready }
      | Ok (hops, transit, stall, hold) ->
        let quorum = t1 -. first_ready in
        let dag = t2 -. t1 in
        let order = at -. t2 in
        let total = at -. t0 in
        let sum = transit +. stall +. hold +. quorum +. dag +. order in
        { p_round = round;
          p_source = source;
          p_created = t0;
          p_rbc_deliver = t1;
          p_inserted = t2;
          p_adeliver = at;
          p_first_ready = first_ready;
          p_straggler = straggler;
          p_trigger = trigger;
          p_hops = hops;
          p_transit = transit;
          p_stall = stall;
          p_hold = hold;
          p_quorum = quorum;
          p_dag = dag;
          p_order = order;
          p_txs = txs;
          p_tx_wait = tx_wait;
          p_total = total;
          p_residual = total -. sum;
          p_complete = true;
          p_reason = "" }))

let note_stream t p =
  let ss = t.stream in
  ss.ss_commits <- ss.ss_commits + 1;
  if p.p_complete then begin
    ss.ss_complete <- ss.ss_complete + 1;
    if Float.abs p.p_residual <= tolerance then
      ss.ss_reconciled <- ss.ss_reconciled + 1;
    Stdx.Stats.add ss.ss_quorum p.p_quorum;
    Stdx.Stats.add ss.ss_transit p.p_transit;
    Stdx.Stats.add ss.ss_stall p.p_stall;
    Stdx.Stats.add ss.ss_hold p.p_hold;
    Stdx.Stats.add ss.ss_dag p.p_dag;
    Stdx.Stats.add ss.ss_order p.p_order;
    if p.p_txs > 0 then Stdx.Stats.add ss.ss_txwait p.p_tx_wait;
    Stdx.Stats.add ss.ss_total p.p_total
  end

let feed t (e : Trace.event) =
  if t.first_seq < 0 then t.first_seq <- e.Trace.seq;
  t.events <- t.events + 1;
  let at = e.Trace.time in
  let bump i = if i > t.max_node then t.max_node <- i in
  match e.Trace.kind with
  | Trace.Send { src; dst; msg_kind; id; _ } when id >= 0 -> (
    bump src;
    bump dst;
    match Hashtbl.find_opt t.msgs id with
    | Some m ->
      m.m_attempts <- m.m_attempts + 1;
      if Float.is_nan m.m_recv then m.m_last_send <- at
    | None ->
      let kind = intern t msg_kind in
      Hashtbl.add t.msgs id
        { m_src = src;
          m_dst = dst;
          m_kind = kind;
          m_first_send = at;
          m_last_send = at;
          m_cause = e.Trace.cause;
          m_recv = nan;
          m_attempts = 1 };
      if e.Trace.cause >= 0 && is_ready_kind kind then
        push t.ready_sends (src, e.Trace.cause) (dst, id))
  | Trace.Recv { id; _ } when id >= 0 -> (
    match Hashtbl.find_opt t.msgs id with
    | Some m -> if Float.is_nan m.m_recv then m.m_recv <- at
    | None -> () (* send fell off the ring before we saw it *))
  | Trace.Rbc_phase { node; origin; round; phase } ->
    bump node;
    if String.equal phase "deliver" then
      add_first t.deliver (node, origin, round) (at, e.Trace.cause)
    else if String.equal phase "ready" then
      add_first t.ready_at (node, origin, round) e.Trace.cause
  | Trace.Vertex_created { node; round } ->
    bump node;
    add_first t.created (round, node) (at, e.Trace.cause)
  | Trace.Vertex_added { node; round; source } ->
    bump node;
    add_first t.inserted (node, round, source) at
  | Trace.Tx_submitted { node; accepted } ->
    bump node;
    if accepted then begin
      let q =
        match Hashtbl.find_opt t.txq node with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add t.txq node q;
          q
      in
      Queue.push at q
    end
  | Trace.Block_assembled { node; round; txs } ->
    bump node;
    (match Hashtbl.find_opt t.txq node with
    | None -> ()
    | Some q ->
      let n = ref 0 and sum = ref 0.0 in
      for _ = 1 to txs do
        if not (Queue.is_empty q) then begin
          sum := !sum +. (at -. Queue.pop q);
          incr n
        end
      done;
      if !n > 0 then add_first t.blocks (round, node) (!n, !sum))
  | Trace.A_deliver { node; round; source } -> (
    bump node;
    push t.adeliv node (round, source, at);
    match t.stream_observer with
    | Some obs when obs = node ->
      let p = build_path t ~observer:obs (round, source, at) in
      t.built <- p :: t.built;
      note_stream t p
    | _ -> ())
  | _ -> ()

(* ---- aggregation ---- *)

let segment_order =
  [ "handler-hold";
    "retransmit-stall";
    "transit";
    "quorum-wait";
    "dag-wait";
    "order-wait";
    "total" ]

let segment_sel = function
  | "handler-hold" -> fun p -> p.p_hold
  | "retransmit-stall" -> fun p -> p.p_stall
  | "transit" -> fun p -> p.p_transit
  | "quorum-wait" -> fun p -> p.p_quorum
  | "dag-wait" -> fun p -> p.p_dag
  | "order-wait" -> fun p -> p.p_order
  | "total" -> fun p -> p.p_total
  | _ -> fun _ -> nan

let finalize ~observer t =
  let paths =
    match t.stream_observer with
    | Some o when o = observer -> List.rev t.built
    | _ ->
      let entries =
        match Hashtbl.find_opt t.adeliv observer with
        | Some cell -> List.rev !cell
        | None -> []
      in
      List.map (build_path t ~observer) entries
  in
  let complete = List.filter (fun p -> p.p_complete) paths in
  let reconciled =
    List.length
      (List.filter
         (fun p -> Float.abs p.p_residual <= tolerance)
         complete)
  in
  let max_residual =
    List.fold_left
      (fun acc p -> Float.max acc (Float.abs p.p_residual))
      0.0 complete
  in
  let incomplete =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun p ->
        if not p.p_complete then
          match Hashtbl.find_opt tbl p.p_reason with
          | Some cell -> incr cell
          | None -> Hashtbl.add tbl p.p_reason (ref 1))
      paths;
    List.sort compare
      (Hashtbl.fold (fun k cell acc -> (k, !cell) :: acc) tbl [])
  in
  let segments =
    List.map
      (fun name ->
        let sel = segment_sel name in
        let st = Stdx.Stats.create () in
        List.iter (fun p -> Stdx.Stats.add st (sel p)) complete;
        (name, Stdx.Stats.to_summary st))
      segment_order
  in
  (* per-tx mempool dwell is pre-creation time — reported as its own
     leading segment only when the run carried a traced workload, so
     workload-free reports are unchanged *)
  let segments =
    let st = Stdx.Stats.create () in
    List.iter
      (fun p -> if p.p_txs > 0 then Stdx.Stats.add st p.p_tx_wait)
      complete;
    if Stdx.Stats.count st = 0 then segments
    else ("mempool-wait", Stdx.Stats.to_summary st) :: segments
  in
  let stragglers =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun p ->
        if p.p_straggler >= 0 then begin
          let count, wait =
            match Hashtbl.find_opt tbl p.p_straggler with
            | Some (c, w) -> (c, w)
            | None -> (0, 0.0)
          in
          let q = if Float.is_nan p.p_quorum then 0.0 else p.p_quorum in
          Hashtbl.replace tbl p.p_straggler (count + 1, wait +. q)
        end)
      paths;
    List.sort
      (fun (n1, c1, _) (n2, c2, _) -> compare (-c1, n1) (-c2, n2))
      (Hashtbl.fold (fun node (c, w) acc -> (node, c, w) :: acc) tbl [])
  in
  let edges =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun p ->
        List.iter
          (fun h ->
            let st =
              match Hashtbl.find_opt tbl (h.h_src, h.h_dst) with
              | Some st -> st
              | None ->
                let st = Stdx.Stats.create () in
                Hashtbl.add tbl (h.h_src, h.h_dst) st;
                st
            in
            Stdx.Stats.add st (h.h_recv -. h.h_last_sent))
          p.p_hops)
      complete;
    List.sort
      (fun (e1, s1) (e2, s2) ->
        compare (-.s1.Stdx.Stats.s_mean, e1) (-.s2.Stdx.Stats.s_mean, e2))
      (Hashtbl.fold
         (fun edge st acc -> ((edge, Stdx.Stats.to_summary st)) :: acc)
         tbl [])
  in
  { r_observer = observer;
    r_processes = t.max_node + 1;
    r_events = t.events;
    r_truncated = t.first_seq > 0;
    r_paths = paths;
    r_complete = List.length complete;
    r_reconciled = reconciled;
    r_max_residual = max_residual;
    r_incomplete = incomplete;
    r_segments = segments;
    r_stragglers = stragglers;
    r_edges = edges }

let segment_means t =
  let ss = t.stream in
  let mean st = if Stdx.Stats.count st = 0 then 0.0 else Stdx.Stats.mean st in
  [ ("critpath.commits", float_of_int ss.ss_commits);
    ("critpath.complete", float_of_int ss.ss_complete);
    ("critpath.reconciled", float_of_int ss.ss_reconciled);
    ("critpath.mempool-wait.mean", mean ss.ss_txwait);
    ("critpath.handler-hold.mean", mean ss.ss_hold);
    ("critpath.retransmit-stall.mean", mean ss.ss_stall);
    ("critpath.transit.mean", mean ss.ss_transit);
    ("critpath.quorum-wait.mean", mean ss.ss_quorum);
    ("critpath.dag-wait.mean", mean ss.ss_dag);
    ("critpath.order-wait.mean", mean ss.ss_order);
    ("critpath.total.mean", mean ss.ss_total) ]

(* ---- output ---- *)

let float_or_null v =
  if Float.is_nan v then Stdx.Json.Null else Stdx.Json.Float v

let hop_to_json h =
  Stdx.Json.Obj
    [ ("id", Stdx.Json.Int h.h_id);
      ("src", Stdx.Json.Int h.h_src);
      ("dst", Stdx.Json.Int h.h_dst);
      ("kind", Stdx.Json.String h.h_kind);
      ("sent", Stdx.Json.Float h.h_sent);
      ("last_sent", Stdx.Json.Float h.h_last_sent);
      ("recv", Stdx.Json.Float h.h_recv);
      ("hold", Stdx.Json.Float h.h_hold);
      ("attempts", Stdx.Json.Int h.h_attempts) ]

let path_to_json p =
  Stdx.Json.Obj
    [ ("round", Stdx.Json.Int p.p_round);
      ("source", Stdx.Json.Int p.p_source);
      ("created", float_or_null p.p_created);
      ("rbc_deliver", float_or_null p.p_rbc_deliver);
      ("inserted", float_or_null p.p_inserted);
      ("a_deliver", Stdx.Json.Float p.p_adeliver);
      ("first_ready", float_or_null p.p_first_ready);
      ("straggler", Stdx.Json.Int p.p_straggler);
      ("trigger", Stdx.Json.String p.p_trigger);
      ("hops", Stdx.Json.List (List.map hop_to_json p.p_hops));
      ("handler_hold", float_or_null p.p_hold);
      ("retransmit_stall", float_or_null p.p_stall);
      ("transit", float_or_null p.p_transit);
      ("quorum_wait", float_or_null p.p_quorum);
      ("dag_wait", float_or_null p.p_dag);
      ("order_wait", float_or_null p.p_order);
      ("txs", Stdx.Json.Int p.p_txs);
      ("tx_wait", float_or_null p.p_tx_wait);
      ("total", float_or_null p.p_total);
      ("residual", float_or_null p.p_residual);
      ("complete", Stdx.Json.Bool p.p_complete);
      ("reason", Stdx.Json.String p.p_reason) ]

let report_to_json r =
  Stdx.Json.Obj
    [ ("observer", Stdx.Json.Int r.r_observer);
      ("processes", Stdx.Json.Int r.r_processes);
      ("events", Stdx.Json.Int r.r_events);
      ("truncated", Stdx.Json.Bool r.r_truncated);
      ("tolerance", Stdx.Json.Float tolerance);
      ("commits", Stdx.Json.Int (List.length r.r_paths));
      ("complete", Stdx.Json.Int r.r_complete);
      ("reconciled", Stdx.Json.Int r.r_reconciled);
      ("max_residual", Stdx.Json.Float r.r_max_residual);
      ( "incomplete",
        Stdx.Json.Obj
          (List.map (fun (k, v) -> (k, Stdx.Json.Int v)) r.r_incomplete) );
      ( "segments",
        Stdx.Json.Obj
          (List.map
             (fun (k, s) -> (k, Stdx.Stats.summary_to_json s))
             r.r_segments) );
      ( "stragglers",
        Stdx.Json.List
          (List.map
             (fun (node, count, wait) ->
               Stdx.Json.Obj
                 [ ("node", Stdx.Json.Int node);
                   ("paths", Stdx.Json.Int count);
                   ("total_quorum_wait", Stdx.Json.Float wait) ])
             r.r_stragglers) );
      ( "edges",
        Stdx.Json.List
          (List.map
             (fun ((src, dst), s) ->
               Stdx.Json.Obj
                 [ ("src", Stdx.Json.Int src);
                   ("dst", Stdx.Json.Int dst);
                   ("transit", Stdx.Stats.summary_to_json s) ])
             r.r_edges) );
      ("paths", Stdx.Json.List (List.map path_to_json r.r_paths)) ]

(* ---- rendering ---- *)

let bar_width = 40

(* one bar row on the [t0, t0+span] axis; [segs] are (from, to, char)
   in absolute time *)
let bar ~t0 ~span segs =
  let buf = Bytes.make bar_width ' ' in
  let cell x =
    let i = int_of_float (Float.of_int bar_width *. (x -. t0) /. span) in
    if i < 0 then 0 else if i > bar_width then bar_width else i
  in
  List.iter
    (fun (a, b, ch) ->
      if not (Float.is_nan a || Float.is_nan b) then begin
        let i0 = cell a in
        let i1 = max (cell b) (i0 + 1) in
        for i = i0 to min (bar_width - 1) (i1 - 1) do
          Bytes.set buf i ch
        done
      end)
    segs;
  Bytes.to_string buf

let waterfall p =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "commit (r%d,p%d)" p.p_round p.p_source;
  if Float.is_nan p.p_total then add "  total ?"
  else add "  total %.3f" p.p_total;
  if p.p_txs > 0 then
    add "  %d txs (mempool wait %.3f)" p.p_txs p.p_tx_wait;
  if p.p_straggler >= 0 then
    add "  straggler p%d (%s)" p.p_straggler p.p_trigger;
  if not p.p_complete then add "  [incomplete: %s]" p.p_reason;
  add "\n";
  let t0 = p.p_created in
  let span = p.p_adeliver -. t0 in
  if Float.is_nan span || span <= 0.0 then
    add "  (no renderable time axis)\n"
  else begin
    let row label segs note =
      add "  %-24s |%s| %s\n" label (bar ~t0 ~span segs) note
    in
    List.iter
      (fun h ->
        let label =
          Printf.sprintf "p%d %s > p%d" h.h_src h.h_kind h.h_dst
        in
        let note =
          let transit = h.h_recv -. h.h_last_sent in
          let stall = h.h_last_sent -. h.h_sent in
          if h.h_attempts > 1 then
            Printf.sprintf "transit %.3f stall %.3f (x%d)" transit stall
              h.h_attempts
          else Printf.sprintf "transit %.3f" transit
        in
        row label
          [ (h.h_sent, h.h_last_sent, '~'); (h.h_last_sent, h.h_recv, '=') ]
          note)
      p.p_hops;
    if not (Float.is_nan p.p_quorum) then
      row
        (if p.p_straggler >= 0 then
           Printf.sprintf "quorum wait (p%d last)" p.p_straggler
         else "quorum wait")
        [ (p.p_first_ready, p.p_rbc_deliver, '#') ]
        (Printf.sprintf "%.3f" p.p_quorum);
    if not (Float.is_nan p.p_dag) then
      row "dag insert"
        [ (p.p_rbc_deliver, p.p_inserted, '=') ]
        (Printf.sprintf "%.3f" p.p_dag);
    if not (Float.is_nan p.p_order) then
      row "ordering"
        [ (p.p_inserted, p.p_adeliver, '=') ]
        (Printf.sprintf "%.3f" p.p_order);
    if p.p_complete then add "  residual %.6f\n" p.p_residual
  end;
  Buffer.contents buf

let fmt_summary = Stdx.Stats.fmt_summary ~width:9 ~max_width:9

let render ?(top = 3) r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== critical paths ==\n";
  add "observer p%d over %d processes; %d events\n" r.r_observer r.r_processes
    r.r_events;
  if r.r_truncated then
    add
      "WARNING: trace is TRUNCATED (ring wrapped before the first event \
       seen) — causal chains into the lost head come out chain-broken and \
       completeness numbers are lower bounds\n";
  add
    "paths: %d commits reconstructed, %d complete, %d reconciled \
     (|residual| <= %.2f), max residual %.6f\n"
    (List.length r.r_paths) r.r_complete r.r_reconciled tolerance
    r.r_max_residual;
  if r.r_incomplete <> [] then begin
    add "incomplete:";
    List.iter (fun (reason, n) -> add " %s x%d" reason n) r.r_incomplete;
    add "\n"
  end;
  add "\nsegments per committed vertex:\n";
  List.iter
    (fun (label, s) -> add "  %-18s %s\n" label (fmt_summary s))
    r.r_segments;
  if r.r_stragglers <> [] then begin
    add "\nstragglers (completed the observer's deliver quorum last):\n";
    List.iter
      (fun (node, count, wait) ->
        add "  p%-3d x%-5d total quorum wait %.3f\n" node count wait)
      r.r_stragglers
  end;
  if r.r_edges <> [] then begin
    add "\nslowest links (critical-path transit):\n";
    List.iter
      (fun ((src, dst), s) -> add "  p%d > p%-3d %s\n" src dst (fmt_summary s))
      r.r_edges
  end;
  let slowest =
    List.filteri
      (fun i _ -> i < top)
      (List.stable_sort
         (fun a b -> compare b.p_total a.p_total)
         (List.filter (fun p -> p.p_complete) r.r_paths))
  in
  if slowest <> [] then begin
    add "\nslowest commits:\n";
    List.iter (fun p -> add "%s" (waterfall p)) slowest
  end;
  Buffer.contents buf

let dot_path p =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let style c = Dagrider.Render.class_style c in
  add "digraph critpath {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  add
    "  // critical path of commit (r%d,p%d): gold = origin vertex,\n\
    \  // gray = causal chain hop, lightcoral = quorum straggler,\n\
    \  // lightskyblue / palegreen = observer-side stages\n"
    p.p_round p.p_source;
  add "  create [label=\"create (r%d,p%d)\\nt=%.3f\"]%s;\n" p.p_round
    p.p_source p.p_created
    (style Dagrider.Render.Committed_leader);
  let prev = ref "create" in
  List.iteri
    (fun i h ->
      let id = Printf.sprintf "hop%d" i in
      add "  %s [label=\"p%d recv %s\\nt=%.3f\"]%s;\n" id h.h_dst h.h_kind
        h.h_recv
        (style Dagrider.Render.Shaded);
      let note =
        if h.h_attempts > 1 then
          Printf.sprintf "%s x%d\\nstall %.3f transit %.3f" h.h_kind
            h.h_attempts
            (h.h_last_sent -. h.h_sent)
            (h.h_recv -. h.h_last_sent)
        else Printf.sprintf "%s\\ntransit %.3f" h.h_kind (h.h_recv -. h.h_last_sent)
      in
      add "  %s -> %s [label=\"%s\"];\n" !prev id note;
      prev := id)
    p.p_hops;
  if not (Float.is_nan p.p_quorum) then begin
    let label =
      if p.p_straggler >= 0 then
        Printf.sprintf "quorum complete\\n(p%d last, %s)" p.p_straggler
          p.p_trigger
      else "quorum complete"
    in
    add "  quorum [label=\"%s\\nt=%.3f\"]%s;\n" label p.p_rbc_deliver
      (style Dagrider.Render.Skipped_leader);
    add "  %s -> quorum [label=\"quorum wait %.3f\"];\n" !prev p.p_quorum;
    prev := "quorum"
  end;
  if not (Float.is_nan p.p_dag) then begin
    add "  insert [label=\"dag insert\\nt=%.3f\"]%s;\n" p.p_inserted
      (style Dagrider.Render.Elected_leader);
    add "  %s -> insert [label=\"dag wait %.3f\"];\n" !prev p.p_dag;
    prev := "insert"
  end;
  add "  adeliver [label=\"a_deliver\\nt=%.3f\"]%s;\n" p.p_adeliver
    (style Dagrider.Render.Supporter);
  (if Float.is_nan p.p_order then add "  %s -> adeliver;\n" !prev
   else add "  %s -> adeliver [label=\"order wait %.3f\"];\n" !prev p.p_order);
  add "}\n";
  Buffer.contents buf
