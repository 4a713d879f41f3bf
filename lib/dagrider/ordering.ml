type leader_schedule = Coin | Round_robin

type quorum_rule = Two_f_plus_one | F_plus_one | Fixed of int

type rule = {
  rule_name : string;
  rule_wave_length : int;
  rule_schedule : leader_schedule;
  rule_quorum : quorum_rule;
  rule_bound : float;
}

let dag_rider =
  { rule_name = "dagrider";
    rule_wave_length = 4;
    rule_schedule = Coin;
    rule_quorum = Two_f_plus_one;
    rule_bound = 1.5 }

let bullshark =
  { rule_name = "bullshark";
    rule_wave_length = 2;
    rule_schedule = Round_robin;
    rule_quorum = F_plus_one;
    rule_bound = 2.0 }

let rules = [ dag_rider; bullshark ]

let rule_of_name name =
  List.find_opt (fun r -> String.equal r.rule_name name) rules

let quorum_of rule ~f =
  match rule.rule_quorum with
  | Two_f_plus_one -> (2 * f) + 1
  | F_plus_one -> f + 1
  | Fixed q -> q

let coin_wave_length rule =
  match rule.rule_schedule with
  | Coin -> rule.rule_wave_length
  | Round_robin -> dag_rider.rule_wave_length

let round_robin_leader ~n ~wave =
  if wave < 1 then invalid_arg "Ordering.round_robin_leader: wave must be >= 1";
  (wave - 1) mod n

type t = {
  f : int;
  rule : rule;
  gc_depth : int option;
  span : string;
  mutable decided_wave : int;
  mutable log_rev : Vertex.t list;
  mutable delivered_count : int;
}

type commit = {
  wave : int;
  leader : Vertex.t;
  delivered : Vertex.t list;
  direct : bool;
  support : Vertex.vref list;
  anchor : int;
  via : Vertex.vref;
}

type skip_reason = Leader_absent | Under_supported

let skip_reason_label = function
  | Leader_absent -> "leader-absent"
  | Under_supported -> "under-supported"

let create ?(rule = dag_rider) ?gc_depth ~f () =
  if rule.rule_wave_length < 1 then
    invalid_arg "Ordering.create: rule_wave_length < 1";
  (* a negative depth would prune rounds no leader has reached *)
  if Option.value gc_depth ~default:0 < 0 then
    invalid_arg "Ordering.create: gc_depth < 0";
  { f;
    rule;
    gc_depth;
    span = "order.wave." ^ rule.rule_name;
    decided_wave = 0;
    log_rev = [];
    delivered_count = 0 }

let round_of ~wave_length ~wave ~k =
  if k < 1 || k > wave_length then
    invalid_arg "Ordering.round_of: k out of wave";
  if wave < 1 then invalid_arg "Ordering.round_of: wave must be >= 1";
  (wave_length * (wave - 1)) + k

let wave_of_completed_round ~wave_length r =
  if r >= wave_length && r mod wave_length = 0 then Some (r / wave_length)
  else None

let leader_vertex ~rule ~dag ~wave ~leader_source =
  Dag.find dag
    { Vertex.round = round_of ~wave_length:rule.rule_wave_length ~wave ~k:1;
      source = leader_source }

let supporters ~rule ~dag ~wave ~leader =
  let wave_length = rule.rule_wave_length in
  Dag.supporters dag (Vertex.vref_of leader)
    ~round:(round_of ~wave_length ~wave ~k:wave_length)

let commit_rule_met ~rule ~f ~dag ~wave ~leader =
  List.length (supporters ~rule ~dag ~wave ~leader) >= quorum_of rule ~f

let skip_evidence ~rule ~dag ~wave ~leader_source =
  match leader_vertex ~rule ~dag ~wave ~leader_source with
  | None -> (Leader_absent, [])
  | Some leader -> (Under_supported, supporters ~rule ~dag ~wave ~leader)

let deliver_leader t ~dag ~wave ~leader ~direct ~support ~anchor ~via =
  let fresh =
    Dag.causal_history dag (Vertex.vref_of leader)
      ~delivered:(Dag.vertex_delivered dag)
  in
  List.iter
    (fun v ->
      Dag.mark_delivered dag (Vertex.vref_of v);
      t.log_rev <- v :: t.log_rev;
      t.delivered_count <- t.delivered_count + 1)
    fresh;
  (* the next walk's floor: set by the committed leaders alone, so every
     process that commits this leader prunes, and delivers, alike *)
  (match t.gc_depth with
  | Some depth ->
    let horizon = leader.Vertex.round - depth in
    if horizon > 1 then Dag.prune_below dag ~round:horizon
  | None -> ());
  { wave; leader; delivered = fresh; direct; support; anchor; via }

let process_wave_impl t ~dag ~wave ~choose_leader =
  if wave <= t.decided_wave then []
  else
    let rule = t.rule in
    match leader_vertex ~rule ~dag ~wave ~leader_source:(choose_leader wave) with
    | None -> []
    | Some leader ->
      let support = supporters ~rule ~dag ~wave ~leader in
      if List.length support < quorum_of rule ~f:t.f then []
      else begin
        (* Lines 38-43: push this wave's leader, then walk back through
           undecided waves, chaining any leader the current one reaches
           by a strong path. The chain-back is rule-generic: for the
           2-round Bullshark rule it is what commits a skipped leader's
           wave retroactively once a later leader reaches it. *)
        let stack = ref [ (wave, leader) ] in
        let current = ref leader in
        let w' = ref (wave - 1) in
        while !w' > t.decided_wave do
          (match
             leader_vertex ~rule ~dag ~wave:!w'
               ~leader_source:(choose_leader !w')
           with
          | Some v'
            when Dag.strong_path dag (Vertex.vref_of !current) (Vertex.vref_of v') ->
            stack := (!w', v') :: !stack;
            current := v'
          | Some _ | None -> ());
          decr w'
        done;
        t.decided_wave <- wave;
        (* Lines 51-57: pop in increasing wave order and deliver causal
           histories not yet delivered. Each commit carries its
           provenance: direct commits cite the last-round supporter set,
           chained ones the next leader up the chain ([via]) whose
           strong path justified them; [anchor] names the wave whose
           direct commit fired the whole chain. *)
        let support_refs = List.map Vertex.vref_of support in
        let rec emit = function
          | [] -> []
          | [ (w, v) ] ->
            [ deliver_leader t ~dag ~wave:w ~leader:v ~direct:true
                ~support:support_refs ~anchor:wave ~via:(Vertex.vref_of v) ]
          | (w, v) :: ((_, next) :: _ as rest) ->
            let c =
              deliver_leader t ~dag ~wave:w ~leader:v ~direct:false ~support:[]
                ~anchor:wave ~via:(Vertex.vref_of next)
            in
            c :: emit rest
        in
        emit !stack
      end

let process_wave t ~dag ~wave ~choose_leader =
  let sp = Prof.enter t.span in
  let out =
    try process_wave_impl t ~dag ~wave ~choose_leader
    with e -> Prof.leave_reraise sp e
  in
  Prof.leave sp;
  out

let restore t ~dag ~delivered ~decided_wave =
  if t.delivered_count > 0 || t.decided_wave > 0 then
    invalid_arg "Ordering.restore: state is not fresh";
  List.iter
    (fun v ->
      Dag.mark_delivered dag (Vertex.vref_of v);
      t.log_rev <- v :: t.log_rev;
      t.delivered_count <- t.delivered_count + 1)
    delivered;
  t.decided_wave <- decided_wave

let rule t = t.rule

let decided_wave t = t.decided_wave

let delivered_log t = List.rev t.log_rev

let delivered_count t = t.delivered_count
