(* Test-only reference for Dagrider.Ordering: the ordering state the
   library ran before the delivered set moved into the DAG's rows. A
   hashtable holds every delivered vertex reference for the whole run,
   and a history walk tests membership in it. It keeps its own copies
   of the wave arithmetic and the leader and supporter probes, and reads
   the DAG only through [find], [supporters], [strong_path] and
   [causal_history ~delivered]. test_ordering.ml compares the library
   against it.

   Garbage collection is a floor here, not a pruned DAG: with
   [~gc_depth:d], the walk for a leader skips every round below the
   previously delivered leader's round minus [d]. The reference is
   meant to run on a DAG nothing prunes, so it still holds the
   vertices below that floor; the library must deliver the same
   vertices from its own pruned copy. *)

module D = Dagrider
module O = Dagrider.Ordering

type t = {
  f : int;
  rule : O.rule;
  gc_depth : int option;
  mutable floor : int; (* no walk visits a round below it *)
  mutable decided_wave : int;
  delivered_set : (D.Vertex.vref, unit) Hashtbl.t;
  mutable log_rev : D.Vertex.t list;
}

let create ?gc_depth ~rule ~f () =
  { f;
    rule;
    gc_depth;
    floor = 0;
    decided_wave = 0;
    delivered_set = Hashtbl.create 256;
    log_rev = [] }

let round_of ~wave_length ~wave ~k = (wave_length * (wave - 1)) + k

let quorum t =
  match t.rule.O.rule_quorum with
  | O.Two_f_plus_one -> (2 * t.f) + 1
  | O.F_plus_one -> t.f + 1
  | O.Fixed q -> q

let leader_vertex t ~dag ~wave ~leader_source =
  D.Dag.find dag
    { D.Vertex.round =
        round_of ~wave_length:t.rule.O.rule_wave_length ~wave ~k:1;
      source = leader_source }

let supporters t ~dag ~wave ~leader =
  let wave_length = t.rule.O.rule_wave_length in
  D.Dag.supporters dag (D.Vertex.vref_of leader)
    ~round:(round_of ~wave_length ~wave ~k:wave_length)

let deliver_leader t ~dag ~wave ~leader ~direct ~support ~anchor ~via =
  let fresh =
    D.Dag.causal_history dag (D.Vertex.vref_of leader) ~delivered:(fun v ->
        v.D.Vertex.round < t.floor
        || Hashtbl.mem t.delivered_set (D.Vertex.vref_of v))
  in
  List.iter
    (fun v ->
      Hashtbl.add t.delivered_set (D.Vertex.vref_of v) ();
      t.log_rev <- v :: t.log_rev)
    fresh;
  (match t.gc_depth with
  | Some depth -> t.floor <- leader.D.Vertex.round - depth
  | None -> ());
  { O.wave; leader; delivered = fresh; direct; support; anchor; via }

(* Algorithm 3, lines 34-57 *)
let process_wave t ~dag ~wave ~choose_leader =
  if wave <= t.decided_wave then []
  else
    match leader_vertex t ~dag ~wave ~leader_source:(choose_leader wave) with
    | None -> []
    | Some leader ->
      let support = supporters t ~dag ~wave ~leader in
      if List.length support < quorum t then []
      else begin
        let stack = ref [ (wave, leader) ] in
        let current = ref leader in
        let w' = ref (wave - 1) in
        while !w' > t.decided_wave do
          (match
             leader_vertex t ~dag ~wave:!w' ~leader_source:(choose_leader !w')
           with
          | Some v'
            when D.Dag.strong_path dag (D.Vertex.vref_of !current)
                   (D.Vertex.vref_of v') ->
            stack := (!w', v') :: !stack;
            current := v'
          | Some _ | None -> ());
          decr w'
        done;
        t.decided_wave <- wave;
        let support_refs = List.map D.Vertex.vref_of support in
        let rec emit = function
          | [] -> []
          | [ (w, v) ] ->
            [ deliver_leader t ~dag ~wave:w ~leader:v ~direct:true
                ~support:support_refs ~anchor:wave ~via:(D.Vertex.vref_of v) ]
          | (w, v) :: ((_, next) :: _ as rest) ->
            let c =
              deliver_leader t ~dag ~wave:w ~leader:v ~direct:false ~support:[]
                ~anchor:wave ~via:(D.Vertex.vref_of next)
            in
            c :: emit rest
        in
        emit !stack
      end

let decided_wave t = t.decided_wave

let delivered_log t = List.rev t.log_rev

(* a vertex below the floor is settled: no later walk reaches it *)
let is_delivered t (vref : D.Vertex.vref) =
  vref.round < t.floor || Hashtbl.mem t.delivered_set vref
