(* Test-only reference for Critpath's landmarks: the lookup the protocol
   analyzer ran while it kept its own create -> a_deliver stage
   histograms beside critpath's segments. For every vertex the observer
   a_delivered it finds, with the first event of each kind winning,

   - the vertex's creation: the first Vertex_created at (round, source);
   - the observer's reliable-broadcast delivery: the first "deliver"
     Rbc_phase at (observer, source, round);
   - the observer's DAG insert: the first Vertex_added at
     (observer, round, source);

   and the landmark-derived segments dag-wait, order-wait and total.
   test_critpath.ml compares every Critpath path against it. *)

type landmarks = {
  round : int;
  source : int;
  created : float option;
  rbc_deliver : float option;
  inserted : float option;
  adeliver : float;
}

let landmarks ~observer events =
  let created = Hashtbl.create 1024 in
  let rbc_deliver = Hashtbl.create 4096 in
  let inserted = Hashtbl.create 4096 in
  let adeliv = ref [] in
  let first tbl key time =
    if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key time
  in
  List.iter
    (fun (e : Trace.event) ->
      let time = e.Trace.time in
      match e.Trace.kind with
      | Trace.Vertex_created { node; round } -> first created (round, node) time
      | Trace.Rbc_phase { node; origin; round; phase = "deliver" } ->
        first rbc_deliver (node, origin, round) time
      | Trace.Vertex_added { node; round; source } ->
        first inserted (node, round, source) time
      | Trace.A_deliver { node; round; source } when node = observer ->
        adeliv := (round, source, time) :: !adeliv
      | _ -> ())
    events;
  List.rev_map
    (fun (round, source, adeliver) ->
      { round;
        source;
        created = Hashtbl.find_opt created (round, source);
        rbc_deliver = Hashtbl.find_opt rbc_deliver (observer, source, round);
        inserted = Hashtbl.find_opt inserted (observer, round, source);
        adeliver })
    !adeliv

let nan_of = Option.value ~default:Float.nan

let dag l =
  match (l.rbc_deliver, l.inserted) with
  | Some r, Some i -> i -. r
  | _ -> Float.nan

let order l =
  match l.inserted with Some i -> l.adeliver -. i | None -> Float.nan

let total l =
  match l.created with Some c -> l.adeliver -. c | None -> Float.nan

(* the reason Critpath must give when a landmark is missing, in its
   precedence order; [None] when all three resolved *)
let missing l =
  if l.created = None then Some "no-create"
  else if l.rbc_deliver = None then Some "no-rbc-deliver"
  else if l.inserted = None then Some "no-dag-insert"
  else None
