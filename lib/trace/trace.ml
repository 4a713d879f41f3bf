type kind =
  | Send of { src : int; dst : int; msg_kind : string; bits : int; id : int }
  | Recv of { src : int; dst : int; msg_kind : string; id : int }
  | Drop of {
      src : int;
      dst : int;
      msg_kind : string;
      reason : string;
      id : int;
    }
  | Retransmit of {
      src : int;
      dst : int;
      msg_kind : string;
      seq : int;
      attempt : int;
      id : int;
    }
  | Corrupt_reject of { src : int; dst : int; msg_kind : string; id : int }
  | Rbc_phase of { node : int; origin : int; round : int; phase : string }
  | Vertex_created of { node : int; round : int }
  | Vertex_added of { node : int; round : int; source : int }
  | Round_advanced of { node : int; round : int }
  | Coin_flip of { node : int; wave : int }
  | Leader_elected of { node : int; wave : int; leader : int }
  | Commit_cert of {
      node : int;
      rule : string;
      sched : string;
      wave : int;
      leader_round : int;
      leader_source : int;
      direct : bool;
      anchor_wave : int;
      via_round : int;
      via_source : int;
      support : int list;
      quorum : int;
      delivered : int;
    }
  | Skip_cert of {
      node : int;
      rule : string;
      sched : string;
      wave : int;
      leader_round : int;
      leader_source : int;
      reason : string;
      support : int list;
      quorum : int;
    }
  | A_deliver of { node : int; round : int; source : int }
  | Sync_retry of { node : int; attempt : int; from_round : int }
  | Sync_gave_up of { node : int; attempts : int }
  | Sync_reject of {
      node : int;
      src : int;
      round : int;
      source : int;
      reason : string;
    }
  | Sync_unavailable of { node : int }
  | Attack_event of {
      node : int;
      strategy : string;
      round : int;
      info : string;
    }
  | Engine_sample of { executed : int; pending : int }
  | Health of { check : string; ok : bool; value : float; threshold : float }
  | Tx_submitted of { node : int; accepted : bool }
  | Block_assembled of { node : int; round : int; txs : int }

type event = { seq : int; time : float; cause : int; kind : kind }

type t = {
  capacity : int;
  ring : event option array;
  mutable emitted : int;
  mutable clock : unit -> float;
  mutable sinks : (event -> unit) list;
  mutable next_id : int;
  mutable cause : int;
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { capacity;
    ring = Array.make capacity None;
    emitted = 0;
    clock = (fun () -> 0.0);
    sinks = [];
    next_id = 0;
    cause = -1 }

let set_clock t clock = t.clock <- clock

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current_cause t = t.cause

let with_cause t cause f =
  let saved = t.cause in
  t.cause <- cause;
  Fun.protect ~finally:(fun () -> t.cause <- saved) f

let emit t kind =
  let seq = t.emitted in
  t.emitted <- seq + 1;
  let e = { seq; time = t.clock (); cause = t.cause; kind } in
  t.ring.(seq mod t.capacity) <- Some e;
  match t.sinks with
  | [] -> ()
  | sinks -> List.iter (fun sink -> sink e) sinks

let emitted t = t.emitted

let dropped t = max 0 (t.emitted - t.capacity)

let capacity t = t.capacity

let occupancy t = min t.emitted t.capacity

let events t =
  let count = min t.emitted t.capacity in
  let first = t.emitted - count in
  List.init count (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

(* ---- labels ---- *)

let node_of = function
  | Send { src; _ } -> Some src
  | Recv { dst; _ } -> Some dst
  | Drop { dst; _ } -> Some dst
  | Retransmit { src; _ } -> Some src
  | Corrupt_reject { dst; _ } -> Some dst
  | Rbc_phase { node; _ }
  | Vertex_created { node; _ }
  | Vertex_added { node; _ }
  | Round_advanced { node; _ }
  | Coin_flip { node; _ }
  | Leader_elected { node; _ }
  | Commit_cert { node; _ }
  | Skip_cert { node; _ }
  | A_deliver { node; _ }
  | Sync_retry { node; _ }
  | Sync_gave_up { node; _ }
  | Sync_reject { node; _ }
  | Sync_unavailable { node; _ }
  | Attack_event { node; _ }
  | Tx_submitted { node; _ }
  | Block_assembled { node; _ } -> Some node
  | Engine_sample _ | Health _ -> None

let kind_label = function
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Drop _ -> "drop"
  | Retransmit _ -> "retransmit"
  | Corrupt_reject _ -> "corrupt-reject"
  | Rbc_phase _ -> "rbc-phase"
  | Vertex_created _ -> "vertex-created"
  | Vertex_added _ -> "vertex-added"
  | Round_advanced _ -> "round-advanced"
  | Coin_flip _ -> "coin-flip"
  | Leader_elected _ -> "leader-elected"
  | Commit_cert _ -> "commit-cert"
  | Skip_cert _ -> "skip-cert"
  | A_deliver _ -> "a-deliver"
  | Sync_retry _ -> "sync-retry"
  | Sync_gave_up _ -> "sync-gave-up"
  | Sync_reject _ -> "sync-reject"
  | Sync_unavailable _ -> "sync-unavailable"
  | Attack_event _ -> "attack"
  | Engine_sample _ -> "engine-sample"
  | Health _ -> "health"
  | Tx_submitted _ -> "tx-submitted"
  | Block_assembled _ -> "block-assembled"

let id_tag id = if id >= 0 then Printf.sprintf " #%d" id else ""

let describe_kind = function
  | Send { src; dst; msg_kind; bits; id } ->
    Printf.sprintf "send p%d->p%d %s (%d bits)%s" src dst msg_kind bits
      (id_tag id)
  | Recv { src; dst; msg_kind; id } ->
    Printf.sprintf "recv p%d->p%d %s%s" src dst msg_kind (id_tag id)
  | Drop { src; dst; msg_kind; reason; id } ->
    Printf.sprintf "drop p%d->p%d %s (%s)%s" src dst msg_kind reason (id_tag id)
  | Retransmit { src; dst; msg_kind; seq; attempt; id } ->
    Printf.sprintf "retransmit p%d->p%d %s seq=%d attempt=%d%s" src dst
      msg_kind seq attempt (id_tag id)
  | Corrupt_reject { src; dst; msg_kind; id } ->
    Printf.sprintf "corrupt frame rejected p%d->p%d %s%s" src dst msg_kind
      (id_tag id)
  | Rbc_phase { node; origin; round; phase } ->
    Printf.sprintf "rbc p%d: instance (p%d,r%d) -> %s" node origin round phase
  | Vertex_created { node; round } ->
    Printf.sprintf "p%d created its r%d vertex" node round
  | Vertex_added { node; round; source } ->
    Printf.sprintf "p%d added (r%d,p%d) to its DAG" node round source
  | Round_advanced { node; round } ->
    Printf.sprintf "p%d advanced to round %d" node round
  | Coin_flip { node; wave } ->
    Printf.sprintf "p%d flipped the wave-%d coin (share out)" node wave
  | Leader_elected { node; wave; leader } ->
    Printf.sprintf "p%d resolved wave %d: leader p%d" node wave leader
  | Commit_cert
      { node; rule; wave; leader_round; leader_source; direct; anchor_wave;
        via_round; via_source; support; quorum; delivered; _ } ->
    if direct then
      Printf.sprintf
        "p%d cert[%s]: wave %d leader (r%d,p%d) committed direct, support \
         {%s} >= %d, %d delivered"
        node rule wave leader_round leader_source
        (String.concat "," (List.map string_of_int support))
        quorum delivered
    else
      Printf.sprintf
        "p%d cert[%s]: wave %d leader (r%d,p%d) committed chained via \
         (r%d,p%d) from wave %d, %d delivered"
        node rule wave leader_round leader_source via_round via_source
        anchor_wave delivered
  | Skip_cert { node; rule; wave; leader_round; leader_source; reason; support;
                quorum; _ } ->
    Printf.sprintf
      "p%d cert[%s]: wave %d leader (r%d,p%d) skipped (%s, support {%s} < %d)"
      node rule wave leader_round leader_source reason
      (String.concat "," (List.map string_of_int support))
      quorum
  | A_deliver { node; round; source } ->
    Printf.sprintf "p%d a-delivered (r%d,p%d)" node round source
  | Sync_retry { node; attempt; from_round } ->
    Printf.sprintf "p%d sync retry #%d (catch-up from round %d)" node attempt
      from_round
  | Sync_gave_up { node; attempts } ->
    Printf.sprintf "p%d gave up on sync catch-up after %d attempt(s)" node
      attempts
  | Sync_reject { node; src; round; source; reason } ->
    Printf.sprintf "p%d rejected sync vertex (r%d,p%d) from p%d (%s)" node
      round source src reason
  | Sync_unavailable { node } ->
    Printf.sprintf "p%d requested sync but has no sync network" node
  | Attack_event { node; strategy; round; info } ->
    Printf.sprintf "p%d ATTACK %s r%d: %s" node strategy round info
  | Engine_sample { executed; pending } ->
    Printf.sprintf "engine: %d events executed, %d pending" executed pending
  | Health { check; ok; value; threshold } ->
    Printf.sprintf "health %s: %s (%.3g vs %.3g)" check
      (if ok then "OK" else "FAILING")
      value threshold
  | Tx_submitted { node; accepted } ->
    Printf.sprintf "p%d tx submitted%s" node
      (if accepted then "" else " (rejected)")
  | Block_assembled { node; round; txs } ->
    Printf.sprintf "p%d assembled its r%d block (%d txs)" node round txs

(* ---- JSONL ---- *)

let event_to_json { seq; time; cause; kind } =
  let base = [ ("seq", Stdx.Json.Int seq); ("t", Stdx.Json.Float time) ] in
  (* correlation fields are emitted only when set, so traces written
     before they existed — and untraced-style events with no ids — keep
     their exact byte shape *)
  let base =
    if cause >= 0 then base @ [ ("cause", Stdx.Json.Int cause) ] else base
  in
  let ev name fields =
    Stdx.Json.Obj (base @ (("ev", Stdx.Json.String name) :: fields))
  in
  let i k v = (k, Stdx.Json.Int v) in
  let s k v = (k, Stdx.Json.String v) in
  let il k vs = (k, Stdx.Json.List (List.map (fun v -> Stdx.Json.Int v) vs)) in
  let mid id = if id >= 0 then [ i "id" id ] else [] in
  match kind with
  | Send { src; dst; msg_kind; bits; id } ->
    ev "send"
      ([ i "src" src; i "dst" dst; s "kind" msg_kind; i "bits" bits ]
      @ mid id)
  | Recv { src; dst; msg_kind; id } ->
    ev "recv" ([ i "src" src; i "dst" dst; s "kind" msg_kind ] @ mid id)
  | Drop { src; dst; msg_kind; reason; id } ->
    ev "drop"
      ([ i "src" src; i "dst" dst; s "kind" msg_kind; s "reason" reason ]
      @ mid id)
  | Retransmit { src; dst; msg_kind; seq; attempt; id } ->
    ev "retransmit"
      ([ i "src" src; i "dst" dst; s "kind" msg_kind; i "mseq" seq;
         i "attempt" attempt ]
      @ mid id)
  | Corrupt_reject { src; dst; msg_kind; id } ->
    ev "corrupt-reject"
      ([ i "src" src; i "dst" dst; s "kind" msg_kind ] @ mid id)
  | Rbc_phase { node; origin; round; phase } ->
    ev "rbc-phase"
      [ i "node" node; i "origin" origin; i "round" round; s "phase" phase ]
  | Vertex_created { node; round } ->
    ev "vertex-created" [ i "node" node; i "round" round ]
  | Vertex_added { node; round; source } ->
    ev "vertex-added" [ i "node" node; i "round" round; i "source" source ]
  | Round_advanced { node; round } ->
    ev "round-advanced" [ i "node" node; i "round" round ]
  | Coin_flip { node; wave } -> ev "coin-flip" [ i "node" node; i "wave" wave ]
  | Leader_elected { node; wave; leader } ->
    ev "leader-elected" [ i "node" node; i "wave" wave; i "leader" leader ]
  | Commit_cert
      { node; rule; sched; wave; leader_round; leader_source; direct;
        anchor_wave; via_round; via_source; support; quorum; delivered } ->
    ev "commit-cert"
      [ i "node" node; s "rule" rule; s "sched" sched; i "wave" wave;
        i "leader_round" leader_round; i "leader_source" leader_source;
        ("direct", Stdx.Json.Bool direct); i "anchor_wave" anchor_wave;
        i "via_round" via_round; i "via_source" via_source;
        il "support" support; i "quorum" quorum; i "delivered" delivered ]
  | Skip_cert
      { node; rule; sched; wave; leader_round; leader_source; reason; support;
        quorum } ->
    ev "skip-cert"
      [ i "node" node; s "rule" rule; s "sched" sched; i "wave" wave;
        i "leader_round" leader_round; i "leader_source" leader_source;
        s "reason" reason; il "support" support; i "quorum" quorum ]
  | A_deliver { node; round; source } ->
    ev "a-deliver" [ i "node" node; i "round" round; i "source" source ]
  | Sync_retry { node; attempt; from_round } ->
    ev "sync-retry"
      [ i "node" node; i "attempt" attempt; i "from_round" from_round ]
  | Sync_gave_up { node; attempts } ->
    ev "sync-gave-up" [ i "node" node; i "attempts" attempts ]
  | Sync_reject { node; src; round; source; reason } ->
    ev "sync-reject"
      [ i "node" node; i "src" src; i "round" round; i "source" source;
        s "reason" reason ]
  | Sync_unavailable { node } -> ev "sync-unavailable" [ i "node" node ]
  | Attack_event { node; strategy; round; info } ->
    ev "attack"
      [ i "node" node; s "strategy" strategy; i "round" round; s "info" info ]
  | Engine_sample { executed; pending } ->
    ev "engine-sample" [ i "executed" executed; i "pending" pending ]
  | Health { check; ok; value; threshold } ->
    ev "health"
      [ s "check" check; ("ok", Stdx.Json.Bool ok);
        ("value", Stdx.Json.Float value);
        ("threshold", Stdx.Json.Float threshold) ]
  | Tx_submitted { node; accepted } ->
    ev "tx-submitted" [ i "node" node; ("accepted", Stdx.Json.Bool accepted) ]
  | Block_assembled { node; round; txs } ->
    ev "block-assembled" [ i "node" node; i "round" round; i "txs" txs ]

let event_of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Stdx.Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or mistyped field %S" name)
  in
  let int_field name = field name Stdx.Json.to_int_opt in
  (* correlation fields are absent in traces written before they
     existed: default them rather than failing the line *)
  let opt_int_field name =
    match Stdx.Json.member name json with
    | None -> Ok (-1)
    | Some j -> (
      match Stdx.Json.to_int_opt j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "mistyped field %S" name))
  in
  let str_field name = field name Stdx.Json.to_string_opt in
  let bool_field name = field name Stdx.Json.to_bool_opt in
  let int_list_field name =
    field name (fun j ->
        Option.bind (Stdx.Json.to_list_opt j) (fun items ->
            List.fold_right
              (fun item acc ->
                match (Stdx.Json.to_int_opt item, acc) with
                | Some n, Some rest -> Some (n :: rest)
                | _ -> None)
              items (Some [])))
  in
  let* seq = int_field "seq" in
  let* time = field "t" Stdx.Json.to_float_opt in
  let* cause = opt_int_field "cause" in
  let* ev = str_field "ev" in
  let* kind =
    match ev with
    | "send" ->
      let* src = int_field "src" in
      let* dst = int_field "dst" in
      let* msg_kind = str_field "kind" in
      let* bits = int_field "bits" in
      let* id = opt_int_field "id" in
      Ok (Send { src; dst; msg_kind; bits; id })
    | "recv" ->
      let* src = int_field "src" in
      let* dst = int_field "dst" in
      let* msg_kind = str_field "kind" in
      let* id = opt_int_field "id" in
      Ok (Recv { src; dst; msg_kind; id })
    | "drop" ->
      let* src = int_field "src" in
      let* dst = int_field "dst" in
      let* msg_kind = str_field "kind" in
      let* reason = str_field "reason" in
      let* id = opt_int_field "id" in
      Ok (Drop { src; dst; msg_kind; reason; id })
    | "retransmit" ->
      let* src = int_field "src" in
      let* dst = int_field "dst" in
      let* msg_kind = str_field "kind" in
      let* seq = int_field "mseq" in
      let* attempt = int_field "attempt" in
      let* id = opt_int_field "id" in
      Ok (Retransmit { src; dst; msg_kind; seq; attempt; id })
    | "corrupt-reject" ->
      let* src = int_field "src" in
      let* dst = int_field "dst" in
      let* msg_kind = str_field "kind" in
      let* id = opt_int_field "id" in
      Ok (Corrupt_reject { src; dst; msg_kind; id })
    | "rbc-phase" ->
      let* node = int_field "node" in
      let* origin = int_field "origin" in
      let* round = int_field "round" in
      let* phase = str_field "phase" in
      Ok (Rbc_phase { node; origin; round; phase })
    | "vertex-created" ->
      let* node = int_field "node" in
      let* round = int_field "round" in
      Ok (Vertex_created { node; round })
    | "vertex-added" ->
      let* node = int_field "node" in
      let* round = int_field "round" in
      let* source = int_field "source" in
      Ok (Vertex_added { node; round; source })
    | "round-advanced" ->
      let* node = int_field "node" in
      let* round = int_field "round" in
      Ok (Round_advanced { node; round })
    | "coin-flip" ->
      let* node = int_field "node" in
      let* wave = int_field "wave" in
      Ok (Coin_flip { node; wave })
    | "leader-elected" ->
      let* node = int_field "node" in
      let* wave = int_field "wave" in
      let* leader = int_field "leader" in
      Ok (Leader_elected { node; wave; leader })
    | "commit-cert" ->
      let* node = int_field "node" in
      let* rule = str_field "rule" in
      let* sched = str_field "sched" in
      let* wave = int_field "wave" in
      let* leader_round = int_field "leader_round" in
      let* leader_source = int_field "leader_source" in
      let* direct = bool_field "direct" in
      let* anchor_wave = int_field "anchor_wave" in
      let* via_round = int_field "via_round" in
      let* via_source = int_field "via_source" in
      let* support = int_list_field "support" in
      let* quorum = int_field "quorum" in
      let* delivered = int_field "delivered" in
      Ok
        (Commit_cert
           { node; rule; sched; wave; leader_round; leader_source; direct;
             anchor_wave; via_round; via_source; support; quorum; delivered })
    | "skip-cert" ->
      let* node = int_field "node" in
      let* rule = str_field "rule" in
      let* sched = str_field "sched" in
      let* wave = int_field "wave" in
      let* leader_round = int_field "leader_round" in
      let* leader_source = int_field "leader_source" in
      let* reason = str_field "reason" in
      let* support = int_list_field "support" in
      let* quorum = int_field "quorum" in
      Ok
        (Skip_cert
           { node; rule; sched; wave; leader_round; leader_source; reason;
             support; quorum })
    | "a-deliver" ->
      let* node = int_field "node" in
      let* round = int_field "round" in
      let* source = int_field "source" in
      Ok (A_deliver { node; round; source })
    | "sync-retry" ->
      let* node = int_field "node" in
      let* attempt = int_field "attempt" in
      let* from_round = int_field "from_round" in
      Ok (Sync_retry { node; attempt; from_round })
    | "sync-gave-up" ->
      let* node = int_field "node" in
      let* attempts = int_field "attempts" in
      Ok (Sync_gave_up { node; attempts })
    | "sync-reject" ->
      let* node = int_field "node" in
      let* src = int_field "src" in
      let* round = int_field "round" in
      let* source = int_field "source" in
      let* reason = str_field "reason" in
      Ok (Sync_reject { node; src; round; source; reason })
    | "sync-unavailable" ->
      let* node = int_field "node" in
      Ok (Sync_unavailable { node })
    | "attack" ->
      let* node = int_field "node" in
      let* strategy = str_field "strategy" in
      let* round = int_field "round" in
      let* info = str_field "info" in
      Ok (Attack_event { node; strategy; round; info })
    | "engine-sample" ->
      let* executed = int_field "executed" in
      let* pending = int_field "pending" in
      Ok (Engine_sample { executed; pending })
    | "health" ->
      let* check = str_field "check" in
      let* ok = bool_field "ok" in
      let* value = field "value" Stdx.Json.to_float_opt in
      let* threshold = field "threshold" Stdx.Json.to_float_opt in
      Ok (Health { check; ok; value; threshold })
    | "tx-submitted" ->
      let* node = int_field "node" in
      let* accepted = bool_field "accepted" in
      Ok (Tx_submitted { node; accepted })
    | "block-assembled" ->
      let* node = int_field "node" in
      let* round = int_field "round" in
      let* txs = int_field "txs" in
      Ok (Block_assembled { node; round; txs })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  Ok { seq; time; cause; kind }

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Stdx.Json.to_string (event_to_json e));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let events_of_jsonl text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Stdx.Json.of_string line with
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      | Ok json -> (
        match event_of_json json with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok ev -> go (ev :: acc) (lineno + 1) rest))
  in
  go [] 1 lines

let events_of_jsonl_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> events_of_jsonl text

(* ---- ASCII timeline ---- *)

let render_events ?(max_lanes = 16) events =
  let buf = Buffer.create 4096 in
  let lanes =
    List.fold_left
      (fun acc e ->
        match node_of e.kind with Some p -> max acc (p + 1) | None -> acc)
      0 events
  in
  let lanes = min lanes max_lanes in
  let lane_cells node =
    String.init lanes (fun i ->
        match node with
        | Some p when p = i -> '*'
        | Some p when p >= lanes && i = lanes - 1 -> '+'
        | _ -> '.')
  in
  Buffer.add_string buf
    (Printf.sprintf "%10s  %8s  %-*s  %s\n" "time" "seq" (max lanes 5)
       (if lanes > 0 then "lanes" else "-")
       "event");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%10.3f  %8d  %-*s  %s\n" e.time e.seq (max lanes 5)
           (lane_cells (node_of e.kind))
           (describe_kind e.kind)))
    events;
  Buffer.contents buf

let render_timeline ?max_lanes ?limit t =
  let evs = events t in
  let evs =
    match limit with
    | None -> evs
    | Some k when k >= List.length evs -> evs
    | Some k ->
      (* keep the newest [k] — the tail is where failures live *)
      let skip = List.length evs - k in
      List.filteri (fun i _ -> i >= skip) evs
  in
  let header =
    Printf.sprintf
      "trace: %d event(s) emitted, %d retained (capacity %d), %d dropped\n"
      t.emitted
      (min t.emitted t.capacity)
      t.capacity (dropped t)
  in
  header ^ render_events ?max_lanes evs
