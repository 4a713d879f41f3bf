(* Differential suite: the DAG store's round sweeps against the naive
   whole-history walks of Dag_reference, on random DAGs with partial
   rounds, late vertices nothing references, weak edges, garbage
   collection horizons, and n up to 70 (more processes than one machine
   word has bits). *)

module V = Dagrider.Vertex
module Dag = Dagrider.Dag
module Ref = Dag_reference

let vref round source = { V.round; source }

let sort_refs = List.sort V.compare_vref

type built = { dag : Dag.t; reference : Ref.t; rounds : int }

let fail fmt = Printf.ksprintf failwith fmt

let pp_refs refs =
  String.concat " "
    (List.map (fun (r : V.vref) -> Printf.sprintf "(%d,%d)" r.round r.source) refs)

(* Both stores built from one random history. Every vertex takes its
   weak edges from [Dag.weak_edges], which must equal the reference's
   list at that moment, order included; with [check_one_in] > 1 only
   that share of vertices pays for the reference's walks. *)
let build rng ~n ~rounds ~check_one_in =
  let dag = Dag.create ~n and reference = Ref.create ~n in
  let insert v =
    Dag.add dag v;
    Ref.add reference v
  in
  let held = ref [] in
  let make ~round ~source =
    let prev = Array.of_list (Ref.round_vertices reference (round - 1)) in
    let strong =
      if Stdx.Rng.int rng 4 = 0 then
        (* the node's choice: every vertex of the previous round *)
        List.map V.vref_of (Array.to_list prev)
      else begin
        Stdx.Rng.shuffle rng prev;
        let k = Stdx.Rng.int_in_range rng ~lo:1 ~hi:(Array.length prev) in
        sort_refs (List.map V.vref_of (Array.to_list (Array.sub prev 0 k)))
      end
    in
    let weak = Dag.weak_edges dag ~round ~strong_edges:strong in
    if Stdx.Rng.int rng check_one_in = 0 then begin
      let expected = Ref.weak_edges reference ~round ~strong_edges:strong in
      if weak <> expected then
        fail "weak_edges (%d,%d): got [%s], reference [%s]" round source
          (pp_refs weak) (pp_refs expected)
    end;
    (* a third of the vertices go without weak edges, leaving orphans *)
    let weak = if Stdx.Rng.int rng 3 = 0 then [] else weak in
    { V.round; source; block = ""; strong_edges = strong; weak_edges = weak }
  in
  let round = ref 1 in
  while !round <= rounds && Ref.round_vertices reference (!round - 1) <> [] do
    let r = !round in
    (* partial rounds: each source takes part with probability 3/4, and
       some of its vertices are held back to arrive late *)
    let made = ref false in
    for source = 0 to n - 1 do
      if Stdx.Rng.int rng 4 <> 0 || (source = n - 1 && not !made) then begin
        made := true;
        let v = make ~round:r ~source in
        if Stdx.Rng.int rng 6 = 0 && r > 1 then held := v :: !held
        else insert v
      end
    done;
    (* release some held vertices into later rounds *)
    held :=
      List.filter
        (fun (v : V.t) ->
          if v.round < Dag.pruned_below dag then false
          else if Stdx.Rng.bool rng then begin
            insert v;
            false
          end
          else true)
        !held;
    (* garbage collection: a horizon somewhere in the retained rounds *)
    if r > 3 && Stdx.Rng.int rng 5 = 0 then begin
      let horizon =
        Stdx.Rng.int_in_range rng ~lo:(Dag.pruned_below dag) ~hi:(r - 1)
      in
      Dag.prune_below dag ~round:horizon;
      Ref.prune_below reference ~round:horizon
    end;
    incr round
  done;
  List.iter
    (fun (v : V.t) -> if v.round >= Dag.pruned_below dag then insert v)
    !held;
  { dag; reference; rounds = !round - 1 }

let present b = List.map V.vref_of (Ref.vertices b.reference)

let check_store b =
  if Dag.size b.dag <> Ref.size b.reference then
    fail "size %d, reference %d" (Dag.size b.dag) (Ref.size b.reference);
  if Dag.vertices b.dag <> Ref.vertices b.reference then fail "vertices differ";
  for r = 0 to b.rounds + 1 do
    if Dag.round_vertices b.dag r <> Ref.round_vertices b.reference r then
      fail "round_vertices %d differ" r;
    if Dag.round_size b.dag r <> List.length (Ref.round_vertices b.reference r)
    then fail "round_size %d differs" r
  done

(* a new vertex of every round above the horizon, with every vertex of
   the round below as strong edges: the node's call *)
let check_weak_edges b =
  for round = Dag.pruned_below b.dag + 1 to b.rounds + 1 do
    let strong_edges =
      List.map V.vref_of (Ref.round_vertices b.reference (round - 1))
    in
    let got = Dag.weak_edges b.dag ~round ~strong_edges in
    let expected = Ref.weak_edges b.reference ~round ~strong_edges in
    if got <> expected then
      fail "weak_edges round %d: got [%s], reference [%s]" round (pp_refs got)
        (pp_refs expected)
  done

let check_histories b =
  List.iter
    (fun r ->
      if Dag.causal_history b.dag r <> Ref.causal_history b.reference r then
        fail "causal_history (%d,%d) differs" r.V.round r.V.source;
      List.iter
        (fun via_strong_only ->
          if
            Dag.reachable_from b.dag r ~via_strong_only
            <> sort_refs (Ref.reachable_from b.reference r ~via_strong_only)
          then fail "reachable_from (%d,%d) differs" r.V.round r.V.source)
        [ true; false ])
    (present b)

(* Deliver the histories of random vertices in increasing round order,
   as an ordering does with its leaders: each fresh part must match the
   reference's filtered history, so the delivered set stays causally
   closed by construction. *)
let check_fresh rng b =
  let delivered = Hashtbl.create 64 in
  let is_delivered v = Hashtbl.mem delivered (V.vref_of v) in
  let leaders =
    List.filter (fun _ -> Stdx.Rng.int rng 3 = 0) (present b)
  in
  List.iter
    (fun r ->
      let got = Dag.causal_history b.dag r ~delivered:is_delivered in
      let expected =
        Ref.fresh_history b.reference r ~delivered:is_delivered
      in
      if got <> expected then
        fail "fresh history of (%d,%d) differs" r.V.round r.V.source;
      List.iter (fun v -> Hashtbl.replace delivered (V.vref_of v) ()) got)
    leaders

let check_paths rng b ~pairs =
  let all = Array.of_list (present b) in
  if Array.length all > 0 then
    for _ = 1 to pairs do
      let v = Stdx.Rng.choose rng all and u = Stdx.Rng.choose rng all in
      if Dag.strong_path b.dag v u <> Ref.strong_path b.reference v u then
        fail "strong_path (%d,%d) (%d,%d) differs" v.round v.source u.round
          u.source;
      if Dag.path b.dag v u <> Ref.path b.reference v u then
        fail "path (%d,%d) (%d,%d) differs" v.round v.source u.round u.source;
      (* supporters: the vertices of v's round with a strong path to u *)
      let expected =
        List.filter
          (fun w -> Ref.strong_path b.reference (V.vref_of w) u)
          (Ref.round_vertices b.reference v.round)
      in
      if Dag.supporters b.dag u ~round:v.round <> expected then
        fail "supporters of (%d,%d) in round %d differ" u.round u.source
          v.round
    done;
  (* absent endpoints: a pruned round and an out-of-range source *)
  if Array.length all > 0 then
    List.iter
      (fun x ->
        let v = all.(0) in
        if
          Dag.path b.dag v x || Dag.path b.dag x v
          || Dag.causal_history b.dag x <> []
          || Dag.supporters b.dag x ~round:v.round <> []
        then fail "absent endpoint (%d,%d) answered" x.V.round x.V.source)
      [ vref (Dag.pruned_below b.dag - 1) 0; vref 1 (Dag.n b.dag) ]

(* ---- Node-shaped histories ----

   One own process creates a vertex in every round from the round below,
   taking its weak edges from [Dag.weak_edges] as a node does, and every
   such call must equal the reference's, order included. The others'
   vertices sometimes arrive late, into rows three or more rounds down.
   Each round applies one twist. Most decide when the own vertex arrives,
   and so what the next calls can anchor on: the own vertex of the round
   before, the one before that, or nothing. *)

type twist =
  | Plain
  | Own_subset
      (* the own vertex leaves out one vertex below, and so do the others *)
  | Own_late (* the own vertex arrives after the next call *)
  | Own_later (* the own vertex arrives after the next two calls *)
  | Impostor
      (* the own vertex arrives after the next call, and another
         process's vertex carries its edges but one *)
  | Prune (* a garbage-collection horizon between two calls *)

let twists = [| Plain; Own_subset; Own_late; Own_later; Impostor; Prune |]

let twist_name = function
  | Plain -> "plain"
  | Own_subset -> "own subset"
  | Own_late -> "own late"
  | Own_later -> "own later"
  | Impostor -> "impostor"
  | Prune -> "prune"

(* [l] without its element at a random index *)
let drop_one rng l =
  let i = Stdx.Rng.int rng (List.length l) in
  List.filteri (fun j _ -> j <> i) l

let build_node_shaped rng ~n ~rounds ~others_weak_one_in =
  let dag = Dag.create ~n and reference = Ref.create ~n in
  let own = Stdx.Rng.int rng n in
  (* in half the histories only the own process has weak edges, so what
     it alone reaches stays unreached unless its vertices are *)
  let others_weak = Stdx.Rng.bool rng in
  let quorum = (2 * ((n - 1) / 3)) + 1 in
  let insert (v : V.t) =
    if v.round >= Dag.pruned_below dag then begin
      Dag.add dag v;
      Ref.add reference v
    end
  in
  let below r = List.map V.vref_of (Ref.round_vertices reference (r - 1)) in
  (* at least [quorum] of [refs] when there are that many, sorted *)
  let subset refs =
    let a = Array.of_list refs in
    Stdx.Rng.shuffle rng a;
    let k =
      Stdx.Rng.int_in_range rng ~lo:(min quorum (Array.length a))
        ~hi:(Array.length a)
    in
    sort_refs (Array.to_list (Array.sub a 0 k))
  in
  (* others' late vertices, and own vertices with the round they arrive in *)
  let late = ref [] and own_late = ref [] in
  let round = ref 1 in
  while !round <= rounds && below !round <> [] do
    let r = !round in
    let twist = Stdx.Rng.choose rng twists in
    let left_out =
      match (twist, below r) with
      | Own_subset, (_ :: _ :: _ as refs) ->
        Some (Stdx.Rng.choose rng (Array.of_list refs))
      | _ -> None
    in
    let strong = List.filter (fun e -> Some e <> left_out) (below r) in
    let weak = Dag.weak_edges dag ~round:r ~strong_edges:strong in
    let expected = Ref.weak_edges reference ~round:r ~strong_edges:strong in
    if weak <> expected then
      fail "own weak_edges (%d,%d), twist %s: got [%s], reference [%s]" r own
        (twist_name twist) (pp_refs weak) (pp_refs expected);
    let mine =
      { V.round = r; source = own; block = ""; strong_edges = strong;
        weak_edges = weak }
    in
    own_late :=
      List.filter
        (fun (arrives, v) ->
          if arrives <= r then insert v;
          arrives > r)
        !own_late;
    let impostor =
      if twist = Impostor && n > 1 then
        (own + 1 + Stdx.Rng.int rng (n - 1)) mod n
      else -1
    in
    for source = 0 to n - 1 do
      if source = impostor then begin
        let strong_edges, weak_edges =
          match (weak, strong) with
          | _ :: _, _ -> (strong, drop_one rng weak)
          | [], _ :: _ :: _ -> (drop_one rng strong, weak)
          | [], _ -> (strong, weak)
        in
        insert { V.round = r; source; block = ""; strong_edges; weak_edges }
      end
      else if source <> own && Stdx.Rng.int rng 8 <> 0 then begin
        let candidates = List.filter (fun e -> Some e <> left_out) (below r) in
        if candidates <> [] then begin
          let strong_edges = subset candidates in
          let weak_edges =
            if
              others_weak && twist <> Impostor
              && Stdx.Rng.int rng others_weak_one_in = 0
            then Ref.weak_edges reference ~round:r ~strong_edges
            else []
          in
          let v =
            { V.round = r; source; block = ""; strong_edges; weak_edges }
          in
          if r > 1 && Stdx.Rng.int rng 5 = 0 then late := v :: !late
          else insert v
        end
      end
    done;
    (match twist with
    | Own_late | Impostor -> own_late := (r + 1, mine) :: !own_late
    | Own_later -> own_late := (r + 2, mine) :: !own_late
    | Plain | Own_subset | Prune -> insert mine);
    (* late vertices land three or more rounds down *)
    late :=
      List.filter
        (fun (v : V.t) ->
          if v.round < Dag.pruned_below dag then false
          else if v.round <= r - 3 && Stdx.Rng.bool rng then begin
            insert v;
            false
          end
          else true)
        !late;
    if twist = Prune && r > 3 then begin
      let horizon =
        Stdx.Rng.int_in_range rng ~lo:(Dag.pruned_below dag) ~hi:(r - 2)
      in
      Dag.prune_below dag ~round:horizon;
      Ref.prune_below reference ~round:horizon
    end;
    incr round
  done;
  List.iter insert (List.rev_map snd !own_late @ List.rev !late);
  { dag; reference; rounds = !round - 1 }

let prop_node_shaped ~n ~rounds ~others_weak_one_in ~count =
  QCheck.Test.make
    ~name:(Printf.sprintf "own calls = reference (n=%d)" n)
    ~count (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let b = build_node_shaped rng ~n ~rounds ~others_weak_one_in in
      check_store b;
      true)

let prop ~n ~rounds ~check_one_in ~pairs ~count =
  QCheck.Test.make
    ~name:(Printf.sprintf "sweeps = reference walks (n=%d)" n)
    ~count (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let b = build rng ~n ~rounds ~check_one_in in
      check_store b;
      check_weak_edges b;
      check_histories b;
      check_fresh rng b;
      check_paths rng b ~pairs;
      true)

let () =
  Alcotest.run "dag-diff"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop ~n:4 ~rounds:14 ~check_one_in:1 ~pairs:150 ~count:150;
            prop ~n:10 ~rounds:10 ~check_one_in:1 ~pairs:150 ~count:40;
            prop ~n:70 ~rounds:5 ~check_one_in:10 ~pairs:25 ~count:6 ] );
      ( "node-shaped",
        List.map QCheck_alcotest.to_alcotest
          [ prop_node_shaped ~n:4 ~rounds:30 ~others_weak_one_in:3 ~count:200;
            prop_node_shaped ~n:10 ~rounds:20 ~others_weak_one_in:3 ~count:60;
            prop_node_shaped ~n:70 ~rounds:8 ~others_weak_one_in:50 ~count:5 ] ) ]
