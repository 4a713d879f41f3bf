module Vertex = Dagrider.Vertex
module Dag = Dagrider.Dag

type proc = {
  me : int;
  dag : Dag.t;
  mutable buffer : Vertex.t list;
  mutable round : int;
  mutable voted_up_to : int; (* highest round whose slots we proposed on *)
  decisions : (int * int, bool) Hashtbl.t; (* (round, source) -> verdict *)
  mutable next_order : int; (* next round to fold into the total order *)
  mutable log_rev : Vertex.t list;
  delivered : (Vertex.vref, unit) Hashtbl.t;
}

type t = {
  engine : Sim.Engine.t;
  counters : Metrics.Counters.t;
  sched : Net.Sched.t;
  coin : Crypto.Threshold_coin.t;
  n : int;
  f : int;
  block : round:int -> me:int -> string;
  procs : proc array;
  mutable rbcs : Rbc.Bracha.t array;
  (* each (round, source) agreement instance gets its own channel,
     created when the first process wants to vote on it *)
  abba : (int * int, Abba.t array) Hashtbl.t;
  mutable abba_count : int;
  mutable started : bool;
}

(* ---- ordering ---- *)

let deliver_history proc vref =
  List.iter
    (fun v ->
      if not (Hashtbl.mem proc.delivered (Vertex.vref_of v)) then begin
        Hashtbl.add proc.delivered (Vertex.vref_of v) ();
        proc.log_rev <- v :: proc.log_rev
      end)
    (Dag.causal_history proc.dag vref)

let rec try_order t proc =
  let r = proc.next_order in
  let verdicts =
    List.init t.n (fun source -> Hashtbl.find_opt proc.decisions (r, source))
  in
  if List.for_all Option.is_some verdicts then begin
    let included =
      List.concat
        (List.mapi
           (fun source v -> if v = Some true then [ source ] else [])
           verdicts)
    in
    (* every included vertex must be locally present before the round
       can be folded in (reliable broadcast guarantees arrival) *)
    if
      List.for_all
        (fun source -> Dag.contains proc.dag { Vertex.round = r; source })
        included
    then begin
      List.iter
        (fun source -> deliver_history proc { Vertex.round = r; source })
        included;
      proc.next_order <- r + 1;
      try_order t proc
    end
  end

(* ---- binary agreements ---- *)

let abba_for t ~round ~source =
  match Hashtbl.find_opt t.abba (round, source) with
  | Some instances -> instances
  | None ->
    let net =
      Net.Network.create ~engine:t.engine ~sched:t.sched ~counters:t.counters
        ~n:t.n
    in
    let tag = (round * t.n) + source + 1 in
    let instances =
      Array.init t.n (fun me ->
          Abba.create ~net ~coin:t.coin ~me ~f:t.f ~tag
            ~decide:(fun verdict ->
              let proc = t.procs.(me) in
              Hashtbl.replace proc.decisions (round, source) verdict;
              try_order t proc)
            ())
    in
    Hashtbl.add t.abba (round, source) instances;
    t.abba_count <- t.abba_count + t.n;
    instances

let maybe_vote t proc =
  (* a round becomes votable once this process is two rounds past it:
     by then every vertex that was broadcast in time is in its DAG *)
  while proc.voted_up_to < proc.round - 2 do
    let r = proc.voted_up_to + 1 in
    for source = 0 to t.n - 1 do
      let instances = abba_for t ~round:r ~source in
      Abba.propose instances.(proc.me)
        (Dag.contains proc.dag { Vertex.round = r; source })
    done;
    proc.voted_up_to <- r
  done

(* ---- DAG construction (Algorithm 2 without weak edges) ---- *)

let broadcast_vertex t proc ~round =
  let strong_edges =
    List.map Vertex.vref_of (Dag.round_vertices proc.dag (round - 1))
  in
  let v =
    { Vertex.round;
      source = proc.me;
      block = t.block ~round ~me:proc.me;
      strong_edges;
      weak_edges = [] }
  in
  Rbc.Bracha.bcast t.rbcs.(proc.me) ~payload:(Vertex.encode v) ~round

let rec try_advance t proc =
  let progressed = ref true in
  while !progressed do
    progressed := false;
    let ready, waiting = List.partition (Dag.can_add proc.dag) proc.buffer in
    if ready <> [] then begin
      List.iter (Dag.add proc.dag) ready;
      proc.buffer <- waiting;
      progressed := true
    end
  done;
  (* a newly arrived vertex may unblock the ordering frontier *)
  try_order t proc;
  if Dag.round_size proc.dag proc.round >= (2 * t.f) + 1 then begin
    proc.round <- proc.round + 1;
    broadcast_vertex t proc ~round:proc.round;
    maybe_vote t proc;
    try_advance t proc
  end

let on_r_deliver t proc ~payload ~round ~source =
  match Vertex.decode ~round ~source payload with
  | None -> ()
  | Some v -> (
    match Vertex.validate ~n:t.n ~f:t.f v with
    | Error _ -> ()
    | Ok () ->
      if v.Vertex.weak_edges <> [] then () (* Aleph vertices have none *)
      else if not (Dag.contains proc.dag (Vertex.vref_of v)) then begin
        proc.buffer <- v :: proc.buffer;
        try_advance t proc
      end)

(* ---- construction ---- *)

let create ~engine ~counters ~sched ~coin ~n ~f ~block =
  let procs =
    Array.init n (fun me ->
        { me;
          dag = Dag.create ~n;
          buffer = [];
          round = 0;
          voted_up_to = 0;
          decisions = Hashtbl.create 64;
          next_order = 1;
          log_rev = [];
          delivered = Hashtbl.create 256 })
  in
  let t =
    { engine;
      counters;
      sched;
      coin;
      n;
      f;
      block;
      procs;
      rbcs = [||];
      abba = Hashtbl.create 64;
      abba_count = 0;
      started = false }
  in
  let port =
    Net.Port.of_network (Net.Network.create ~engine ~sched ~counters ~n)
  in
  t.rbcs <-
    Array.init n (fun me ->
        Rbc.Bracha.create_port ~port ~me ~f
          ~deliver:(fun ~payload ~round ~source ->
            on_r_deliver t t.procs.(me) ~payload ~round ~source));
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iter
      (fun proc ->
        proc.round <- 1;
        broadcast_vertex t proc ~round:1)
      t.procs
  end

let run t ~until =
  start t;
  ignore (Sim.Engine.run t.engine ~until ())

let delivered_log t i = List.rev t.procs.(i).log_rev

let ordered_rounds t i = t.procs.(i).next_order - 1

let abba_instances_run t = t.abba_count

let check_total_order t =
  let logs =
    Array.to_list (Array.mapi (fun i _ -> (i, Array.of_list (delivered_log t i))) t.procs)
  in
  let _, longest =
    List.fold_left
      (fun ((_, best) as acc) ((_, log) as cand) ->
        if Array.length log > Array.length best then cand else acc)
      (List.hd logs) (List.tl logs)
  in
  let rec check = function
    | [] -> Ok ()
    | (i, log) :: rest ->
      let rec cmp j =
        if j >= Array.length log then check rest
        else if Vertex.vref_of log.(j) <> Vertex.vref_of longest.(j) then
          Error (Printf.sprintf "process %d diverges at %d" i j)
        else cmp (j + 1)
      in
      cmp 0
  in
  check logs
