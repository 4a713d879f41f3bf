type 'cert stamped = { at : float; cert : 'cert }

type story = {
  st_wave : int;
  st_skip : Trace.skip_cert stamped option;
  st_commit : Trace.commit_cert stamped option;
}

type decision =
  | Committed of Trace.commit_cert stamped
  | Skipped of Trace.skip_cert stamped

type t = {
  mutable rule : string option;
  stories : (int, (int, story) Hashtbl.t) Hashtbl.t; (* node -> wave -> *)
  decisions : (int, decision list ref) Hashtbl.t; (* node -> rev *)
  order : (int, (int * int) list ref) Hashtbl.t; (* node -> rev (r, src) *)
  last_commit : (int, Trace.commit_cert) Hashtbl.t;
  vertex_commit : (int * int * int, Trace.commit_cert) Hashtbl.t;
      (* (node, round, source) -> the commit that delivered it *)
}

let create () =
  { rule = None;
    stories = Hashtbl.create 16;
    decisions = Hashtbl.create 16;
    order = Hashtbl.create 16;
    last_commit = Hashtbl.create 16;
    vertex_commit = Hashtbl.create 4096 }

let push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl key (ref [ v ])

(* replace the node's story of [wave] (empty if none yet) by [update] of it *)
let update_story t ~node ~wave update =
  let tbl =
    match Hashtbl.find_opt t.stories node with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 256 in
      Hashtbl.add t.stories node tbl;
      tbl
  in
  let prior =
    match Hashtbl.find_opt tbl wave with
    | Some st -> st
    | None -> { st_wave = wave; st_skip = None; st_commit = None }
  in
  Hashtbl.replace tbl wave (update prior)

let note_rule t rule = if t.rule = None then t.rule <- Some rule

let feed t (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Commit_cert c ->
    let node = c.Trace.node in
    note_rule t c.Trace.rule;
    let stamped = { at = e.Trace.time; cert = c } in
    push t.decisions node (Committed stamped);
    update_story t ~node ~wave:c.Trace.wave (fun st ->
        { st with st_commit = Some stamped });
    Hashtbl.replace t.last_commit node c
  | Trace.Skip_cert s ->
    let node = s.Trace.node in
    note_rule t s.Trace.rule;
    let stamped = { at = e.Trace.time; cert = s } in
    push t.decisions node (Skipped stamped);
    (* keep the first skip; a commit recorded before a skip would be a
       tracer anomaly — never overwrite it *)
    update_story t ~node ~wave:s.Trace.wave (fun st ->
        match st.st_skip with
        | None -> { st with st_skip = Some stamped }
        | Some _ -> st)
  | Trace.A_deliver { node; round; source } -> (
    push t.order node (round, source);
    match Hashtbl.find_opt t.last_commit node with
    | Some cert -> Hashtbl.replace t.vertex_commit (node, round, source) cert
    | None -> ())
  | _ -> ()

let nodes t =
  Hashtbl.fold (fun node _ acc -> node :: acc) t.decisions []
  |> List.sort compare

let cert_count t node =
  match Hashtbl.find_opt t.decisions node with
  | Some r -> List.length !r
  | None -> 0

let rule_name t = t.rule

let decisions t ~node =
  match Hashtbl.find_opt t.decisions node with
  | Some r -> List.rev !r
  | None -> []

let ordered t ~node =
  match Hashtbl.find_opt t.order node with
  | Some r -> List.rev !r
  | None -> []

let stories t ~node =
  match Hashtbl.find_opt t.stories node with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun _ st acc -> st :: acc) tbl []
    |> List.sort (fun a b -> compare a.st_wave b.st_wave)

let find_story t ~node ~wave =
  Option.bind (Hashtbl.find_opt t.stories node) (fun tbl ->
      Hashtbl.find_opt tbl wave)

let find_vertex t ~node ~round ~source =
  Hashtbl.find_opt t.vertex_commit (node, round, source)

(* the wave's last round, from the wave length of the rule the
   certificates name *)
let last_round_of t leader_round =
  match Option.bind t.rule Dagrider.Ordering.rule_of_name with
  | Some rule -> leader_round + rule.Dagrider.Ordering.rule_wave_length - 1
  | None -> leader_round

(* the chain a commit belongs to: every commit at the node sharing its
   anchor, ascending by wave (the anchor's direct commit last) *)
let chain_of t ~node (c : Trace.commit_cert) =
  List.filter_map
    (fun st ->
      match st.st_commit with
      | Some ({ cert; _ } as c') when cert.Trace.anchor_wave = c.Trace.anchor_wave
        ->
        Some c'
      | _ -> None)
    (stories t ~node)

let justification t ~node ~wave =
  match find_story t ~node ~wave with
  | None | Some { st_commit = None; _ } -> None
  | Some { st_commit = Some { cert = c; _ }; _ } ->
    let leader =
      { Dagrider.Vertex.round = c.Trace.leader_round;
        source = c.Trace.leader_source }
    in
    let last_round = last_round_of t c.Trace.leader_round in
    let support =
      List.map
        (fun src -> { Dagrider.Vertex.round = last_round; source = src })
        c.Trace.support
    in
    let chain =
      List.filter_map
        (fun { cert = (c' : Trace.commit_cert); _ } ->
          if c'.Trace.wave = wave then None
          else
            Some
              { Dagrider.Vertex.round = c'.Trace.leader_round;
                source = c'.Trace.leader_source })
        (chain_of t ~node c)
    in
    Some (leader, support, chain)

(* ---- explain ---- *)

let fmt_sources srcs =
  "{" ^ String.concat "," (List.map (fun s -> Printf.sprintf "p%d" s) srcs) ^ "}"

let sched_evidence (sched : string) ~wave ~leader_source =
  match sched with
  | "round-robin" ->
    Printf.sprintf "round-robin schedule: leader(w) = (w-1) mod n, so p%d"
      leader_source
  | "coin" -> Printf.sprintf "global coin of wave %d chose p%d" wave leader_source
  | other -> Printf.sprintf "%s schedule chose p%d" other leader_source

let explain_commit t ~node buf { at; cert = c } =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if c.Trace.direct then begin
    add "outcome: committed (direct) at t=%.2f\n" at;
    add "  support: %d last-round (r%d) vertices reach the leader by strong \
         paths\n"
      (List.length c.Trace.support)
      (last_round_of t c.Trace.leader_round);
    add "           %s — quorum %d met (Algorithm 3 line 36 / Bullshark vote \
         count)\n"
      (fmt_sources c.Trace.support) c.Trace.quorum
  end
  else begin
    add "outcome: committed (chained) at t=%.2f\n" at;
    add "  evidence: leader (r%d,p%d) reaches (r%d,p%d) by a strong path\n"
      c.Trace.via_round c.Trace.via_source c.Trace.leader_round
      c.Trace.leader_source;
    add "            (lines 38-43 chain-back, anchored at wave %d's direct \
         commit)\n"
      c.Trace.anchor_wave
  end;
  (match chain_of t ~node c with
  | [] | [ _ ] -> ()
  | chain ->
    add "  chain: %s\n"
      (String.concat " <- "
         (List.map
            (fun { cert = (c' : Trace.commit_cert); _ } ->
              Printf.sprintf "w%d (r%d,p%d)%s" c'.Trace.wave
                c'.Trace.leader_round c'.Trace.leader_source
                (if c'.Trace.direct then " [direct]" else ""))
            chain)));
  add "  delivered: %d vertices\n" c.Trace.delivered

let explain_skip t buf { at; cert = s } ~recovered =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if recovered then add "skipped first at t=%.2f: " at
  else add "outcome: skipped at t=%.2f: " at;
  (match s.Trace.reason with
  | "leader-absent" ->
    add "leader vertex (r%d,p%d) absent from the local DAG (line 47)\n"
      s.Trace.leader_round s.Trace.leader_source
  | "under-supported" ->
    add "under-supported — support %s (%d of quorum %d) at round r%d\n"
      (fmt_sources s.Trace.support)
      (List.length s.Trace.support)
      s.Trace.quorum
      (last_round_of t s.Trace.leader_round)
  | other -> add "%s\n" other);
  if not recovered then
    add "  never recovered: no later leader reached it by a strong path\n"

let explain_wave t ~node ~wave =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match find_story t ~node ~wave with
  | None ->
    add "wave %d at p%d: unresolved — no certificate (wave not processed \
         before the trace ended, or its leader never resolved)\n"
      wave node
  | Some st ->
    let rule, sched, leader_round, leader_source =
      match (st.st_commit, st.st_skip) with
      | Some { cert = c; _ }, _ ->
        (c.Trace.rule, c.Trace.sched, c.Trace.leader_round, c.Trace.leader_source)
      | None, Some { cert = s; _ } ->
        (s.Trace.rule, s.Trace.sched, s.Trace.leader_round, s.Trace.leader_source)
      | None, None -> assert false
    in
    add "== wave %d at p%d — %s ==\n" wave node rule;
    add "leader: (r%d,p%d); %s\n" leader_round leader_source
      (sched_evidence sched ~wave ~leader_source);
    (match st.st_commit with
    | Some c ->
      explain_commit t ~node buf c;
      (match st.st_skip with
      | Some s -> explain_skip t buf s ~recovered:true
      | None -> ())
    | None -> (
      match st.st_skip with
      | Some s -> explain_skip t buf s ~recovered:false
      | None -> assert false)));
  Buffer.contents buf

(* a certificate's own fields plus the time it was emitted at *)
let stamped_json fields { at; cert } =
  Stdx.Json.Obj (fields cert @ [ ("at", Stdx.Json.Float at) ])

let story_outcome st =
  match (st.st_commit, st.st_skip) with
  | Some { cert; _ }, _ when cert.Trace.direct -> "committed"
  | Some _, _ -> "committed-chained"
  | None, Some _ -> "skipped"
  | None, None -> "unresolved"

let explain_wave_json t ~node ~wave =
  let commit_json = stamped_json Trace.commit_cert_fields in
  match find_story t ~node ~wave with
  | None ->
    Stdx.Json.Obj
      [ ("node", Stdx.Json.Int node);
        ("wave", Stdx.Json.Int wave);
        ("outcome", Stdx.Json.String "unresolved");
        ("commit", Stdx.Json.Null);
        ("skip", Stdx.Json.Null) ]
  | Some st ->
    let chain =
      match st.st_commit with
      | Some { cert = c; _ } when not c.Trace.direct ->
        [ ("chain", Stdx.Json.List (List.map commit_json (chain_of t ~node c))) ]
      | _ -> []
    in
    Stdx.Json.Obj
      ([ ("node", Stdx.Json.Int node);
         ("wave", Stdx.Json.Int wave);
         ("outcome", Stdx.Json.String (story_outcome st));
         ( "commit",
           match st.st_commit with
           | Some c -> commit_json c
           | None -> Stdx.Json.Null );
         ( "skip",
           match st.st_skip with
           | Some s -> stamped_json Trace.skip_cert_fields s
           | None -> Stdx.Json.Null ) ]
      @ chain)

let explain_vertex t ~node ~round ~source =
  match find_vertex t ~node ~round ~source with
  | None ->
    Printf.sprintf
      "vertex (r%d,p%d) at p%d: no delivering commit in the certificate \
       stream (not ordered, or delivered outside the trace window)\n"
      round source node
  | Some c ->
    Printf.sprintf "vertex (r%d,p%d) was ordered by wave %d's commit:\n%s"
      round source c.Trace.wave
      (explain_wave t ~node ~wave:c.Trace.wave)

let explain_vertex_json t ~node ~round ~source =
  match find_vertex t ~node ~round ~source with
  | None ->
    Stdx.Json.Obj
      [ ("node", Stdx.Json.Int node);
        ("vertex", Stdx.Json.List [ Stdx.Json.Int round; Stdx.Json.Int source ]);
        ("ordered_by", Stdx.Json.Null) ]
  | Some c ->
    Stdx.Json.Obj
      [ ("node", Stdx.Json.Int node);
        ("vertex", Stdx.Json.List [ Stdx.Json.Int round; Stdx.Json.Int source ]);
        ("ordered_by", Stdx.Json.Int c.Trace.wave);
        ("explain", explain_wave_json t ~node ~wave:c.Trace.wave) ]

let summary t ~node =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sts = stories t ~node in
  add "certificate summary for p%d (%d waves%s):\n" node (List.length sts)
    (match t.rule with Some r -> ", rule " ^ r | None -> "");
  List.iter
    (fun st ->
      match (st.st_commit, st.st_skip) with
      | Some { cert = c; _ }, skip ->
        add "  w%-4d committed %s (r%d,p%d)%s%s\n" st.st_wave
          (if c.Trace.direct then
             Printf.sprintf "direct, support %s >= %d"
               (fmt_sources c.Trace.support) c.Trace.quorum
           else
             Printf.sprintf "chained via (r%d,p%d)" c.Trace.via_round
               c.Trace.via_source)
          c.Trace.leader_round c.Trace.leader_source
          (if skip <> None then " [recovered after skip]" else "")
          (Printf.sprintf ", %d delivered" c.Trace.delivered)
      | None, Some { cert = s; _ } ->
        add "  w%-4d skipped (%s, support %s < %d)\n" st.st_wave s.Trace.reason
          (fmt_sources s.Trace.support) s.Trace.quorum
      | None, None -> add "  w%-4d unresolved\n" st.st_wave)
    sts;
  Buffer.contents buf

(* ---- divergence ---- *)

type divergence =
  | No_certificates
  | Identical of { mode : string; compared : int }
  | Prefix of { mode : string; compared : int; longer : string; extra : int }
  | Diverged_wave of { wave : int; a : story option; b : story option }
  | Diverged_entry of {
      index : int;
      a_vertex : int * int;
      b_vertex : int * int;
      a_commit : Trace.commit_cert option;
      b_commit : Trace.commit_cert option;
    }

(* a wave's decision for stream comparison: what was decided, not the
   local evidence — two honest nodes may commit the same wave with
   different direct/chained paths and that is not a divergence *)
type decided = Leader of int * int | Skip | Unresolved

let decided = function
  | Some { st_commit = Some { cert = c; _ }; _ } ->
    Leader (c.Trace.leader_round, c.Trace.leader_source)
  | Some { st_skip = Some _; _ } -> Skip
  | _ -> Unresolved

(* the first position below [n] where the two streams differ *)
let first_difference n differ =
  let rec go i = if i >= n then None else if differ i then Some i else go (i + 1) in
  go 0

let max_wave t ~node =
  List.fold_left (fun acc st -> max acc st.st_wave) 0 (stories t ~node)

(* both rules order the same vertices, so the delivery logs are always
   comparable — the cross-rule mode, and the fallback when same-rule
   wave decisions agree but the delivered histories still differ *)
let log_divergence ta ~node_a tb ~node_b =
  let log t node = Array.of_list (ordered t ~node) in
  let la = log ta node_a and lb = log tb node_b in
  let n = min (Array.length la) (Array.length lb) in
  match first_difference n (fun i -> la.(i) <> lb.(i)) with
  | Some i ->
    let (ra, sa) = la.(i) and (rb, sb) = lb.(i) in
    Diverged_entry
      { index = i;
        a_vertex = (ra, sa);
        b_vertex = (rb, sb);
        a_commit = find_vertex ta ~node:node_a ~round:ra ~source:sa;
        b_commit = find_vertex tb ~node:node_b ~round:rb ~source:sb }
  | None ->
    let na = Array.length la and nb = Array.length lb in
    if na = nb then Identical { mode = "log"; compared = n }
    else
      Prefix
        { mode = "log";
          compared = n;
          longer = (if na > nb then "A" else "B");
          extra = abs (na - nb) }

let divergence ta ~node_a tb ~node_b =
  if cert_count ta node_a = 0 || cert_count tb node_b = 0 then No_certificates
  else if ta.rule = tb.rule then begin
    (* same rule: waves are comparable decision-for-decision *)
    let wa = max_wave ta ~node:node_a and wb = max_wave tb ~node:node_b in
    let n = min wa wb in
    let wave t node i = decided (find_story t ~node ~wave:(i + 1)) in
    match first_difference n (fun i -> wave ta node_a i <> wave tb node_b i) with
    | Some i ->
      Diverged_wave
        { wave = i + 1;
          a = find_story ta ~node:node_a ~wave:(i + 1);
          b = find_story tb ~node:node_b ~wave:(i + 1) }
    | None -> (
      (* identical decisions can still deliver different histories when
         a node's DAG lagged (or a sabotaged quorum committed early) —
         check the logs before declaring the runs equal *)
      match log_divergence ta ~node_a tb ~node_b with
      | Diverged_entry _ as d -> d
      | _ ->
        if wa = wb then Identical { mode = "waves"; compared = n }
        else
          Prefix
            { mode = "waves";
              compared = n;
              longer = (if wa > wb then "A" else "B");
              extra = abs (wa - wb) })
  end
  else
    (* cross-rule (e.g. dagrider vs bullshark on one schedule): wave
       numbers mean different things — compare the delivery logs *)
    log_divergence ta ~node_a tb ~node_b

let render_divergence ta ~node_a tb ~node_b =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let side name t node =
    add "%s: p%d, rule %s, %d wave stories, %d ordered vertices\n" name node
      (match t.rule with Some r -> r | None -> "?")
      (List.length (stories t ~node))
      (List.length (ordered t ~node))
  in
  side "A" ta node_a;
  side "B" tb node_b;
  (match divergence ta ~node_a tb ~node_b with
  | No_certificates -> add "no certificates on at least one side — nothing to compare\n"
  | Identical { mode; compared } ->
    add "identical %s streams (%d decisions compared)\n" mode compared
  | Prefix { mode; compared; longer; extra } ->
    add
      "no divergence: one %s stream is a prefix of the other (%d compared, \
       %s has %d more)\n"
      mode compared longer extra
  | Diverged_wave { wave; _ } ->
    add "FIRST DIVERGENT DECISION: wave %d\n\n" wave;
    add "--- side A (p%d) ---\n%s\n" node_a (explain_wave ta ~node:node_a ~wave);
    add "--- side B (p%d) ---\n%s" node_b (explain_wave tb ~node:node_b ~wave)
  | Diverged_entry { index; a_vertex = ra, sa; b_vertex = rb, sb; _ } ->
    add "FIRST DIVERGENT LOG ENTRY: position %d\n" index;
    add "  A ordered (r%d,p%d); B ordered (r%d,p%d)\n\n" ra sa rb sb;
    add "--- side A (p%d) ---\n%s\n" node_a
      (explain_vertex ta ~node:node_a ~round:ra ~source:sa);
    add "--- side B (p%d) ---\n%s" node_b
      (explain_vertex tb ~node:node_b ~round:rb ~source:sb));
  Buffer.contents buf

let divergence_to_json ta ~node_a tb ~node_b =
  let story_json t node wave =
    match find_story t ~node ~wave with
    | None -> Stdx.Json.Null
    | Some _ -> explain_wave_json t ~node ~wave
  in
  match divergence ta ~node_a tb ~node_b with
  | No_certificates ->
    Stdx.Json.Obj [ ("result", Stdx.Json.String "no-certificates") ]
  | Identical { mode; compared } ->
    Stdx.Json.Obj
      [ ("result", Stdx.Json.String "identical");
        ("mode", Stdx.Json.String mode);
        ("compared", Stdx.Json.Int compared) ]
  | Prefix { mode; compared; longer; extra } ->
    Stdx.Json.Obj
      [ ("result", Stdx.Json.String "prefix");
        ("mode", Stdx.Json.String mode);
        ("compared", Stdx.Json.Int compared);
        ("longer", Stdx.Json.String longer);
        ("extra", Stdx.Json.Int extra) ]
  | Diverged_wave { wave; _ } ->
    Stdx.Json.Obj
      [ ("result", Stdx.Json.String "diverged");
        ("mode", Stdx.Json.String "waves");
        ("wave", Stdx.Json.Int wave);
        ("a", story_json ta node_a wave);
        ("b", story_json tb node_b wave) ]
  | Diverged_entry { index; a_vertex = ra, sa; b_vertex = rb, sb; _ } ->
    Stdx.Json.Obj
      [ ("result", Stdx.Json.String "diverged");
        ("mode", Stdx.Json.String "log");
        ("index", Stdx.Json.Int index);
        ( "a_vertex",
          Stdx.Json.List [ Stdx.Json.Int ra; Stdx.Json.Int sa ] );
        ( "b_vertex",
          Stdx.Json.List [ Stdx.Json.Int rb; Stdx.Json.Int sb ] );
        ("a", explain_vertex_json ta ~node:node_a ~round:ra ~source:sa);
        ("b", explain_vertex_json tb ~node:node_b ~round:rb ~source:sb) ]
