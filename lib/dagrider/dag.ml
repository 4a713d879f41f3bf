(* One row per round, indexed by source: round [base + i] lives in
   [rows.(i)] for [i < len]. [base] is the garbage-collection horizon,
   so the rows cover exactly the retained rounds. Only an insertion adds
   rows, and a vertex whose strong edges are present sits at most one
   round above the highest retained round. [delivered] marks the
   vertices the ordering layer has output. [reached]/[stamp] are the
   sweep state (see "Sweeps"), and [inserted] numbers the insertions
   (see "Weak edges"). *)
type row = {
  slots : Vertex.t array; (* by source; [absent] marks an empty slot *)
  inserted : int array; (* by source: the slot's insertion number, 0 if empty *)
  mutable count : int;
  delivered : Bytes.t; (* n bits *)
  reached : Bytes.t; (* n bits *)
  mutable stamp : int;
}

(* A [weak_edges] call the next two rounds' calls may anchor on. *)
type call = {
  for_round : int;
  seen : int; (* [t.insertions] at the call *)
  strong : Vertex.vref list;
  weak : Vertex.vref list; (* the call's result *)
}

type t = {
  n : int;
  mutable rows : row array;
  mutable len : int;
  mutable base : int;
  mutable size : int;
  mutable highest : int;
  mutable sweep : int;
  mutable pending : int;
  mutable insertions : int;
  calls : call array; (* the latest call of each round parity *)
  low : int array; (* [low.(i)]: the lowest round inserted into since
                      [calls.(i)] *)
}

let absent =
  { Vertex.round = -1; source = -1; block = ""; strong_edges = []; weak_edges = [] }

(* fills the unused tail of [rows], so no pruned row stays reachable *)
let vacant =
  { slots = [||];
    inserted = [||];
    count = 0;
    delivered = Bytes.empty;
    reached = Bytes.empty;
    stamp = 0 }

let new_row n =
  { slots = Array.make n absent;
    inserted = Array.make n 0;
    count = 0;
    delivered = Bytes.make ((n + 7) / 8) '\000';
    reached = Bytes.make ((n + 7) / 8) '\000';
    stamp = 0 }

(* no call yet: no vertex has its round, so nothing anchors on it *)
let no_call = { for_round = -1; seen = 0; strong = []; weak = [] }

let create ~n =
  if n <= 0 then invalid_arg "Dag.create: n must be positive";
  let genesis = new_row n in
  for source = 0 to n - 1 do
    genesis.slots.(source) <-
      { Vertex.round = 0; source; block = ""; strong_edges = []; weak_edges = [] }
  done;
  genesis.count <- n;
  let rows = Array.make 8 vacant in
  rows.(0) <- genesis;
  { n;
    rows;
    len = 1;
    base = 0;
    size = n;
    highest = 0;
    sweep = 0;
    pending = 0;
    insertions = 0;
    calls = [| no_call; no_call |];
    low = [| max_int; max_int |] }

let n t = t.n

(* the vertex at (round, source), or [absent]; never allocates *)
let slot t round source =
  let i = round - t.base in
  if i < 0 || i >= t.len || source < 0 || source >= t.n then absent
  else t.rows.(i).slots.(source)

let find t (r : Vertex.vref) =
  let v = slot t r.round r.source in
  if v == absent then None else Some v

let contains t (r : Vertex.vref) = slot t r.round r.source != absent

let holds t (v : Vertex.t) = slot t v.round v.source != absent

let size t = t.size

(* the row of [round], or [vacant] (no slots, count 0) outside the
   window; never allocates *)
let row_at t round =
  let i = round - t.base in
  if i < 0 || i >= t.len then vacant else t.rows.(i)

let round_vertices t round =
  let slots = (row_at t round).slots in
  let acc = ref [] in
  for source = Array.length slots - 1 downto 0 do
    let v = slots.(source) in
    if v != absent then acc := v :: !acc
  done;
  !acc

let round_refs t round =
  let slots = (row_at t round).slots in
  let acc = ref [] in
  for source = Array.length slots - 1 downto 0 do
    if slots.(source) != absent then acc := { Vertex.round; source } :: !acc
  done;
  !acc

let round_size t round = (row_at t round).count

let test_bit bits s =
  Char.code (Bytes.unsafe_get bits (s lsr 3)) land (1 lsl (s land 7)) <> 0

let set_bit bits s =
  let i = s lsr 3 in
  Bytes.unsafe_set bits i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits i) lor (1 lsl (s land 7))))

(* a round below the horizon is settled: it lies below the floor of
   every later history walk, delivered or not *)
let delivered_at t round source =
  round < t.base
  || slot t round source != absent
     && test_bit t.rows.(round - t.base).delivered source

let is_delivered t (r : Vertex.vref) = delivered_at t r.round r.source

let vertex_delivered t (v : Vertex.t) = delivered_at t v.round v.source

let mark_delivered t (r : Vertex.vref) =
  if r.round >= t.base then begin
    if slot t r.round r.source == absent then
      invalid_arg "Dag.mark_delivered: vertex not in the store";
    set_bit t.rows.(r.round - t.base).delivered r.source
  end

let highest_round t = t.highest

let pruned_below t = t.base

let window_rounds t = t.len

(* After garbage collection, edges into pruned rounds count as satisfied:
   the horizon is the floor the committed leaders set, and no process
   delivers anything below that floor (see [prune_below]'s contract), so
   holding the new vertex back for them would only hurt liveness. *)
let edge_ok t ~round (e : Vertex.vref) =
  e.round < round && (contains t e || e.round < t.base)

(* top-level walks, so a check builds no closure: every buffered vertex
   is checked on every buffer pass *)
let rec edges_ok t ~round = function
  | [] -> true
  | e :: rest -> edge_ok t ~round e && edges_ok t ~round rest

let can_add t (v : Vertex.t) =
  edges_ok t ~round:v.round v.strong_edges
  && edges_ok t ~round:v.round v.weak_edges

let add_impl t (v : Vertex.t) =
  if v.source < 0 || v.source >= t.n then
    invalid_arg "Dag.add: source out of range";
  (* a round below the horizon was garbage-collected: nothing may
     re-open it *)
  if v.round >= t.base then begin
    let existing = slot t v.round v.source in
    if existing != absent then begin
      if existing <> v then
        invalid_arg "Dag.add: conflicting vertex for (round, source)"
    end
    else begin
      if not (can_add t v) then invalid_arg "Dag.add: missing predecessor";
      while t.base + t.len <= v.round do
        if t.len = Array.length t.rows then begin
          let rows = Array.make (2 * t.len) vacant in
          Array.blit t.rows 0 rows 0 t.len;
          t.rows <- rows
        end;
        t.rows.(t.len) <- new_row t.n;
        t.len <- t.len + 1
      done;
      let row = t.rows.(v.round - t.base) in
      row.slots.(v.source) <- v;
      t.insertions <- t.insertions + 1;
      row.inserted.(v.source) <- t.insertions;
      for i = 0 to 1 do
        if v.round < t.low.(i) then t.low.(i) <- v.round
      done;
      row.count <- row.count + 1;
      t.size <- t.size + 1;
      if v.round > t.highest then t.highest <- v.round
    end
  end

let add t v =
  let sp = Prof.enter "dag.add" in
  (try add_impl t v with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let vertices t =
  List.init t.len (fun i -> t.base + i)
  |> List.concat_map (fun round -> if round = 0 then [] else round_vertices t round)

let prune_below t ~round =
  if round > t.base then begin
    let drop = min (round - t.base) t.len in
    for i = 0 to drop - 1 do
      t.size <- t.size - t.rows.(i).count
    done;
    Array.blit t.rows drop t.rows 0 (t.len - drop);
    Array.fill t.rows (t.len - drop) drop vacant;
    t.len <- t.len - drop;
    t.base <- round
  end

(* ---- Sweeps ----

   Edges strictly decrease in round, so a walk that visits rows from the
   top down has followed every edge into a row before it reaches that
   row: one pass settles reachability with one bit per slot. Each sweep
   takes a fresh [t.sweep] number and a row's bits count only while its
   [stamp] equals it, so no row is ever cleared after a sweep.
   [t.pending] counts reached vertices in rows not yet visited, and a
   walk stops as soon as it is zero. Every edge of a retained vertex
   points at a retained vertex or below the horizon ([can_add]), so a
   sweep touches only the rows between its start and where it stops. *)

let start_sweep t =
  t.sweep <- t.sweep + 1;
  t.pending <- 0

let bit_set row s = test_bit row.reached s

let is_reached t row s = row.stamp = t.sweep && bit_set row s

let mark t row source =
  if row.stamp <> t.sweep then begin
    Bytes.fill row.reached 0 (Bytes.length row.reached) '\000';
    row.stamp <- t.sweep
  end;
  if not (bit_set row source) then begin
    set_bit row.reached source;
    t.pending <- t.pending + 1
  end

(* mark (round, source) reached, if present and at or above [floor] *)
let reach_slot t ~floor round source =
  if round >= floor && slot t round source != absent then
    mark t t.rows.(round - t.base) source

let rec reach_all t ~floor = function
  | [] -> ()
  | (e : Vertex.vref) :: rest ->
    reach_slot t ~floor e.round e.source;
    reach_all t ~floor rest

let follow t ~floor ~strong_only (v : Vertex.t) =
  reach_all t ~floor v.strong_edges;
  if not strong_only then reach_all t ~floor v.weak_edges

(* Visit the reached vertices from row [top] down to row [floor], in
   decreasing source order within a row, and follow the edges of those
   for which [visit] returns true. *)
let descend t ~top ~floor ~strong_only visit =
  let k = ref (min top (t.base + t.len - 1)) in
  while t.pending > 0 && !k >= floor do
    let row = t.rows.(!k - t.base) in
    if row.stamp = t.sweep then
      for s = t.n - 1 downto 0 do
        if bit_set row s then begin
          t.pending <- t.pending - 1;
          let v = row.slots.(s) in
          if visit v then follow t ~floor ~strong_only v
        end
      done;
    decr k
  done

let reaches t (start : Vertex.vref) (target : Vertex.vref) ~strong_only =
  if (not (contains t start)) || not (contains t target) then false
  else if start = target then true
  else if target.round >= start.round then false
  else
    Prof.time "dag.path" (fun () ->
        (* no point exploring below the target's round *)
        let floor = target.round in
        start_sweep t;
        reach_slot t ~floor start.round start.source;
        descend t ~top:start.round ~floor ~strong_only (fun v ->
            v.Vertex.round > floor);
        is_reached t t.rows.(target.round - t.base) target.source)

let strong_path t v u = reaches t v u ~strong_only:true

let path t v u = reaches t v u ~strong_only:false

(* the vertices reachable from [start] down to [floor] that [keep]
   accepts, sorted; a rejected vertex is not walked through *)
let collect t (start : Vertex.vref) ~floor ~strong_only keep =
  start_sweep t;
  reach_slot t ~floor start.round start.source;
  let acc = ref [] in
  descend t ~top:start.round ~floor ~strong_only (fun v ->
      let kept = keep v in
      if kept then acc := v :: !acc;
      kept);
  !acc

let reachable_from t start ~via_strong_only =
  collect t start ~floor:t.base ~strong_only:via_strong_only (fun _ -> true)
  |> List.map Vertex.vref_of

let causal_history ?(delivered = fun _ -> false) t start =
  Prof.time "dag.causal_history" (fun () ->
      (* genesis carries no blocks; the delivered set is causally
         closed, so nothing below a delivered vertex is fresh *)
      collect t start ~floor:(max t.base 1) ~strong_only:false (fun v ->
          not (delivered v)))

(* Upward: a vertex has a strong path to [target] iff one of its strong
   edges lands on a vertex that has, and every such vertex sits in a
   lower row. *)
let supporters t (target : Vertex.vref) ~round =
  if round <= target.round then
    (* strong paths are reflexive and never lead up *)
    if round = target.round then Option.to_list (find t target) else []
  else if not (contains t target) then []
  else
    Prof.time "dag.path" (fun () ->
        let floor = target.round in
        let rec any_reached = function
          | [] -> false
          | (e : Vertex.vref) :: rest ->
            (e.round >= floor && is_reached t t.rows.(e.round - t.base) e.source)
            || any_reached rest
        in
        start_sweep t;
        reach_slot t ~floor target.round target.source;
        for k = floor + 1 to min round (t.base + t.len - 1) do
          let row = t.rows.(k - t.base) in
          for s = 0 to t.n - 1 do
            let v = row.slots.(s) in
            if v != absent && any_reached v.strong_edges then
              reach_slot t ~floor k s
          done
        done;
        List.filter
          (fun (v : Vertex.t) ->
            is_reached t t.rows.(round - t.base) v.source)
          (round_vertices t round))

(* ---- Weak edges ----

   Algorithm 2's setWeakEdges: walking down from the top row, every
   retained vertex of round [round - 2] or below that is not reached
   from [strong_edges] or from an earlier weak edge becomes a weak edge
   and is reached itself. No reached count can end this walk early:
   marks move down one row per strong edge, so the rows below are never
   all marked before the walk gets there.

   An earlier call settles most of that walk. Say a call for round r0
   returned [weak] for [strong], and u is a vertex whose edges are
   exactly [strong] and [weak]. Every vertex of rows [floor .. r0 - 2]
   present at that call was reached or chosen, so it is in u's history.
   Edges never change, and a vertex is inserted only after its edge
   targets, so everything such an old vertex leads to is old too. Once
   a later walk reaches u, or chooses it, none of those old vertices can
   become a weak edge or lead to one, and the walk neither marks nor
   visits them. It covers rows r0 - 1 and up in full, then only the
   slots inserted since the call ([inserted] above its [seen]), from
   row r0 - 2 down to the lowest row inserted into since ([low]).

   The DAG keeps the latest call of each round parity. A call for round
   r anchors on the call for r - 1 when u is one of its strong edges, so
   u is reached. It anchors on the call for r - 2 when u is in the DAG
   at all: row r - 2 is walked in full, and there u is either reached or
   chosen. For a node, u is its own vertex of the round before, or of
   the one before that. Otherwise (the first rounds, a DAG rebuilt from
   a snapshot, a stack that changed the vertex it built) nothing is
   covered and the walk visits every row. Either way the result is the
   same. *)

(* does the vertex of [c]'s round at [source] have [c]'s edges? *)
let has_edges t c source =
  let v = slot t c.for_round source in
  v != absent && v.weak_edges = c.weak && v.strong_edges = c.strong

(* some ref of [c]'s round in [refs] is a vertex with [c]'s edges *)
let rec anchored_in t c = function
  | [] -> false
  | (e : Vertex.vref) :: rest ->
    (e.round = c.for_round && has_edges t c e.source) || anchored_in t c rest

(* some vertex of [c]'s round has [c]'s edges *)
let anchored_at t c =
  let rec from s = s < t.n && (has_edges t c s || from (s + 1)) in
  from 0

(* mark (round, source) reached, as [reach_slot], unless it is covered:
   in a row at or below [cover] and inserted by [seen] *)
let reach_uncovered t ~floor ~cover ~seen round source =
  if round >= floor && slot t round source != absent then begin
    let row = t.rows.(round - t.base) in
    if round > cover || row.inserted.(source) > seen then mark t row source
  end

let rec reach_all_uncovered t ~floor ~cover ~seen = function
  | [] -> ()
  | (e : Vertex.vref) :: rest ->
    reach_uncovered t ~floor ~cover ~seen e.round e.source;
    reach_all_uncovered t ~floor ~cover ~seen rest

let follow_uncovered t ~floor ~cover ~seen (v : Vertex.t) =
  reach_all_uncovered t ~floor ~cover ~seen v.strong_edges;
  reach_all_uncovered t ~floor ~cover ~seen v.weak_edges

(* Visit the vertices of row [k] inserted after [after], in increasing
   source order: follow the reached ones, and below round [round - 1]
   add the others to [weak] and follow them too. *)
let visit_row t ~floor ~cover ~seen ~round ~after k weak =
  let row = t.rows.(k - t.base) in
  let weak = ref weak in
  for s = 0 to t.n - 1 do
    if row.inserted.(s) > after then begin
      let v = row.slots.(s) in
      if is_reached t row s then follow_uncovered t ~floor ~cover ~seen v
      else if k <= round - 2 then begin
        weak := Vertex.vref_of v :: !weak;
        follow_uncovered t ~floor ~cover ~seen v
      end
    end
  done;
  !weak

let weak_edges t ~round ~strong_edges =
  let floor = max t.base 1 in
  let prev = (round - 1) land 1 and prev2 = round land 1 in
  let anchor =
    if
      t.calls.(prev).for_round = round - 1
      && anchored_in t t.calls.(prev) strong_edges
    then prev
    else if
      t.calls.(prev2).for_round = round - 2 && anchored_at t t.calls.(prev2)
    then prev2
    else -1
  in
  let call = if anchor < 0 then no_call else t.calls.(anchor) in
  (* rows [floor .. cover] are covered for the vertices inserted by
     [seen]; without an anchor [cover] is below every row *)
  let cover = call.for_round - 2 and seen = call.seen in
  let low = if anchor < 0 then max_int else t.low.(anchor) in
  start_sweep t;
  reach_all_uncovered t ~floor ~cover ~seen strong_edges;
  let weak = ref [] in
  let top = t.base + t.len - 1 in
  for k = top downto max floor (cover + 1) do
    weak := visit_row t ~floor ~cover ~seen ~round ~after:0 k !weak
  done;
  for k = min top cover downto max floor low do
    weak := visit_row t ~floor ~cover ~seen ~round ~after:seen k !weak
  done;
  t.calls.(round land 1) <-
    { for_round = round;
      seen = t.insertions;
      strong = strong_edges;
      weak = !weak };
  t.low.(round land 1) <- max_int;
  !weak
