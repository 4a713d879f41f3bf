(* Messages in flight live in slot rows, one array per field, so a
   send allocates no closure: [fire] is built once per network and each
   delivery event carries only its slot index. Freed slots go on a LIFO
   stack, so the rows never hold more slots than the peak number of
   messages in flight. *)
type 'msg t = {
  engine : Sim.Engine.t;
  sched : Sched.t;
  (* the one record every decision of this network reads its time from
     and writes its delay to *)
  io : Sched.io;
  counters : Metrics.Counters.t;
  n : int;
  handlers : (src:int -> 'msg -> unit) option array;
  (* logical operation counter: orders sends vs corruption events even
     when they share a virtual timestamp *)
  mutable op_seq : int;
  corrupted_at_op : int option array;
  mutable delivered : int;
  mutable trace : Trace.t option;
  (* link faults: [None] keeps the send path exactly as it was — no
     extra RNG draws, no extra engine events *)
  mutable faults : Faults.t option;
  mutable corrupter : ('msg -> 'msg) option;
  drops : (string, int ref) Hashtbl.t; (* reason -> count *)
  (* in-flight rows, indexed by slot *)
  mutable src_of : int array;
  mutable dst_of : int array;
  mutable sent_op_of : int array;
  mutable mid_of : int array;
  mutable kind_of : string array;
  mutable msg_of : 'msg array;
  mutable free : int array; (* stack of free slots, [free_top] deep *)
  mutable free_top : int;
  mutable slots : int; (* slots handed out so far: [0, slots) *)
  (* the first message sent: fills unused and freed [msg_of] slots, so
     a delivered message is not kept alive *)
  mutable blank : 'msg option;
  mutable fire : int -> unit;
}

let set_trace t tr = t.trace <- Some tr

let set_faults t faults = t.faults <- Some faults

let set_corrupter t corrupter = t.corrupter <- Some corrupter

let n t = t.n

let check_index t i label =
  if i < 0 || i >= t.n then invalid_arg ("Network: bad process index in " ^ label)

let register t i handler =
  check_index t i "register";
  t.handlers.(i) <- Some handler

let unregister t i =
  check_index t i "unregister";
  t.handlers.(i) <- None

let note_drop ?(mid = -1) t ~src ~dst ~kind ~reason =
  (match Hashtbl.find_opt t.drops reason with
  | Some r -> incr r
  | None -> Hashtbl.add t.drops reason (ref 1));
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Drop { src; dst; msg_kind = kind; reason; id = mid })

let drop_counts t =
  Hashtbl.fold (fun reason r acc -> (reason, !r) :: acc) t.drops []
  |> List.sort compare

let grow t msg =
  let cap = Array.length t.src_of in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  let blank =
    match t.blank with
    | Some b -> b
    | None ->
      t.blank <- Some msg;
      msg
  in
  t.src_of <- extend t.src_of 0;
  t.dst_of <- extend t.dst_of 0;
  t.sent_op_of <- extend t.sent_op_of 0;
  t.mid_of <- extend t.mid_of 0;
  t.kind_of <- extend t.kind_of "";
  t.msg_of <- extend t.msg_of blank;
  t.free <- extend t.free 0

(* Inlined, as is [Sim.Engine.schedule_call], so the delay goes from
   [t.io] into the event queue's float array without a box. *)
let[@inline] deliver_later t ~src ~dst ~kind ~delay ~sent_op ~mid msg =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.slots = Array.length t.src_of then grow t msg;
      t.slots <- t.slots + 1;
      t.slots - 1
    end
  in
  t.src_of.(slot) <- src;
  t.dst_of.(slot) <- dst;
  t.sent_op_of.(slot) <- sent_op;
  t.mid_of.(slot) <- mid;
  t.kind_of.(slot) <- kind;
  t.msg_of.(slot) <- msg;
  Sim.Engine.schedule_call t.engine ~delay t.fire slot

(* One delivery event. The row is read and its slot freed before the
   handler runs: handlers send re-entrantly and may take the slot. *)
let fire t slot =
  let src = t.src_of.(slot)
  and dst = t.dst_of.(slot)
  and sent_op = t.sent_op_of.(slot)
  and mid = t.mid_of.(slot)
  and kind = t.kind_of.(slot)
  and msg = t.msg_of.(slot) in
  (match t.blank with Some b -> t.msg_of.(slot) <- b | None -> ());
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  (* adaptive adversary: drop messages a process sent before it was
     corrupted if they had not yet been delivered *)
  let dropped =
    match t.corrupted_at_op.(src) with
    | Some since_op -> sent_op < since_op
    | None -> false
  in
  if dropped then note_drop t ~src ~dst ~kind ~reason:"corrupted-src" ~mid
  else
    match t.handlers.(dst) with
    | Some handler ->
      t.delivered <- t.delivered + 1;
      (match t.trace with
      | None -> handler ~src msg
      | Some tr ->
        Trace.emit tr (Trace.Recv { src; dst; msg_kind = kind; id = mid });
        (* everything the handler emits — RBC phases, vertex
           lifecycle, follow-up sends — is stamped with this
           message's id as its cause *)
        Trace.with_cause tr mid (fun () -> handler ~src msg))
    | None -> note_drop t ~src ~dst ~kind ~reason:"no-handler" ~mid

let create ~engine ~sched ~counters ~n =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  let t =
    { engine;
      sched;
      io = { Sched.now = 0.0; delay = 0.0 };
      counters;
      n;
      handlers = Array.make n None;
      op_seq = 0;
      corrupted_at_op = Array.make n None;
      delivered = 0;
      trace = None;
      faults = None;
      corrupter = None;
      drops = Hashtbl.create 8;
      src_of = [||];
      dst_of = [||];
      sent_op_of = [||];
      mid_of = [||];
      kind_of = [||];
      msg_of = [||];
      free = [||];
      free_top = 0;
      slots = 0;
      blank = None;
      fire = ignore }
  in
  t.fire <- fire t;
  t

let in_flight t = t.slots - t.free_top

let slot_capacity t = t.slots

let send ?mid t ~src ~dst ~kind ~bits msg =
  check_index t src "send";
  check_index t dst "send";
  if bits < 0 then invalid_arg "Network.send: negative size";
  Metrics.Counters.record_send t.counters ~src ~kind ~bits;
  (* correlation ids exist only when traced: the untraced path takes no
     extra allocation and stays byte-identical *)
  let mid =
    match t.trace with
    | None -> -1
    | Some tr -> (
      match mid with Some m -> m | None -> Trace.fresh_id tr)
  in
  (match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Send { src; dst; msg_kind = kind; bits; id = mid }));
  let io = t.io in
  io.now <- Sim.Engine.now t.engine;
  let sent_op = t.op_seq in
  t.op_seq <- sent_op + 1;
  match t.faults with
  | None ->
    t.sched.Sched.decide io ~src ~dst ~kind;
    deliver_later t ~src ~dst ~kind ~delay:io.delay ~sent_op ~mid msg
  | Some faults ->
    let verdict = faults.Faults.decide io ~src ~dst ~kind in
    if verdict.Faults.drop then
      note_drop t ~src ~dst ~kind ~reason:"fault" ~mid
    else begin
      (* corruption needs a representation-aware mutator; a network
         whose messages cannot be corrupted loses the message instead *)
      let msg, lost =
        if not verdict.Faults.corrupt then (msg, false)
        else
          match t.corrupter with
          | Some corrupter -> (corrupter msg, false)
          | None -> (msg, true)
      in
      if lost then note_drop t ~src ~dst ~kind ~reason:"corrupt" ~mid
      else begin
        t.sched.Sched.decide io ~src ~dst ~kind;
        deliver_later t ~src ~dst ~kind
          ~delay:(io.delay +. verdict.Faults.extra_delay)
          ~sent_op ~mid msg;
        (* each duplicate re-queries the schedule, so copies race each
           other — duplication doubles as reordering; all copies carry
           the one logical id *)
        for _ = 1 to verdict.Faults.duplicates do
          t.sched.Sched.decide io ~src ~dst ~kind;
          deliver_later t ~src ~dst ~kind ~delay:io.delay ~sent_op ~mid msg
        done
      end
    end

let broadcast t ~src ~kind ~bits msg =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst ~kind ~bits msg
  done

let corrupt t ?(drop_in_flight = true) i =
  check_index t i "corrupt";
  match t.corrupted_at_op.(i) with
  | Some _ -> ()
  | None ->
    let since_op = if drop_in_flight then t.op_seq else min_int in
    t.corrupted_at_op.(i) <- Some since_op

let is_corrupted t i =
  check_index t i "is_corrupted";
  t.corrupted_at_op.(i) <> None

let correct t i = not (is_corrupted t i)

let delivered_count t = t.delivered
