(* Test-only reference for Dagrider.Dag: the naive store and
   whole-history walks the library ran before its per-round store. A
   hashtable maps (round, source) to the vertex, and every query is its
   own breadth-first search with its own visited set. test_dag_diff.ml
   compares the library's sweeps against these. *)

module V = Dagrider.Vertex

type t = {
  n : int;
  store : (V.vref, V.t) Hashtbl.t;
  mutable pruned_below : int;
}

let create ~n =
  let t = { n; store = Hashtbl.create 256; pruned_below = 0 } in
  for source = 0 to n - 1 do
    Hashtbl.add t.store { V.round = 0; source }
      { V.round = 0; source; block = ""; strong_edges = []; weak_edges = [] }
  done;
  t

let find t vref = Hashtbl.find_opt t.store vref

let contains t vref = Hashtbl.mem t.store vref

let size t = Hashtbl.length t.store

let round_vertices t round =
  let acc = ref [] in
  for source = t.n - 1 downto 0 do
    match find t { V.round; source } with
    | Some v -> acc := v :: !acc
    | None -> ()
  done;
  !acc

let edge_present t e = contains t e || e.V.round < t.pruned_below

(* the caller only adds vertices whose predecessors are present and
   whose round is retained *)
let add t v =
  let vref = V.vref_of v in
  if not (contains t vref) then begin
    if not (List.for_all (edge_present t) (v.V.strong_edges @ v.V.weak_edges))
    then invalid_arg "Dag_reference.add: missing predecessor";
    Hashtbl.add t.store vref v
  end

let vertices t =
  Hashtbl.fold
    (fun (r : V.vref) v acc -> if r.V.round = 0 then acc else v :: acc)
    t.store []
  |> List.sort (fun a b -> V.compare_vref (V.vref_of a) (V.vref_of b))

let prune_below t ~round =
  if round > t.pruned_below then begin
    let doomed =
      Hashtbl.fold
        (fun (r : V.vref) _ acc -> if r.V.round < round then r :: acc else acc)
        t.store []
    in
    List.iter (Hashtbl.remove t.store) doomed;
    t.pruned_below <- round
  end

(* BFS over edges, inclusive of [start], genesis included; BFS order *)
let reachable_from t start ~via_strong_only =
  if not (contains t start) then []
  else begin
    let visited = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.add visited start ();
    Queue.add start queue;
    let out = ref [] in
    while not (Queue.is_empty queue) do
      let vref = Queue.pop queue in
      out := vref :: !out;
      match find t vref with
      | None -> ()
      | Some v ->
        let targets =
          if via_strong_only then v.V.strong_edges
          else v.V.strong_edges @ v.V.weak_edges
        in
        List.iter
          (fun e ->
            if (not (Hashtbl.mem visited e)) && contains t e then begin
              Hashtbl.add visited e ();
              Queue.add e queue
            end)
          targets
    done;
    !out
  end

let reaches t start target ~via_strong_only =
  if (not (contains t start)) || not (contains t target) then false
  else if start = target then true
  else
    List.mem target (reachable_from t start ~via_strong_only)

let strong_path t v u = reaches t v u ~via_strong_only:true

let path t v u = reaches t v u ~via_strong_only:false

let causal_history t vref =
  reachable_from t vref ~via_strong_only:false
  |> List.filter_map (fun (r : V.vref) ->
         if r.V.round = 0 then None else find t r)
  |> List.sort (fun a b -> V.compare_vref (V.vref_of a) (V.vref_of b))

(* the fresh part of a leader's history: the whole history, then a
   filter against the delivered set *)
let fresh_history t vref ~delivered =
  List.filter (fun v -> not (delivered v)) (causal_history t vref)

(* Algorithm 2's setWeakEdges as the node used to run it: one BFS per
   strong edge and one more per weak edge chosen, sharing nothing *)
let weak_edges t ~round ~strong_edges =
  let reachable = Hashtbl.create 128 in
  let absorb vref =
    List.iter
      (fun r -> Hashtbl.replace reachable r ())
      (reachable_from t vref ~via_strong_only:false)
  in
  List.iter absorb strong_edges;
  let weak = ref [] in
  for r = round - 2 downto 1 do
    List.iter
      (fun u ->
        let uref = V.vref_of u in
        if not (Hashtbl.mem reachable uref) then begin
          weak := uref :: !weak;
          absorb uref
        end)
      (round_vertices t r)
  done;
  !weak
