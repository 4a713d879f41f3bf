type commit_cert = {
  c_node : int;
  c_rule : string;
  c_sched : string;
  c_wave : int;
  c_leader_round : int;
  c_leader_source : int;
  c_direct : bool;
  c_anchor : int;
  c_via_round : int;
  c_via_source : int;
  c_support : int list;
  c_quorum : int;
  c_delivered : int;
  c_at : float;
}

type skip_cert = {
  s_node : int;
  s_rule : string;
  s_sched : string;
  s_wave : int;
  s_leader_round : int;
  s_leader_source : int;
  s_reason : string;
  s_support : int list;
  s_quorum : int;
  s_at : float;
}

type story = {
  st_wave : int;
  st_skip : skip_cert option;
  st_commit : commit_cert option;
}

type t = {
  mutable rule : string option;
  mutable wl : int option; (* wave length recovered from leader rounds *)
  stories : (int, (int, story) Hashtbl.t) Hashtbl.t; (* node -> wave -> *)
  cert_count : (int, int ref) Hashtbl.t; (* node -> certificates seen *)
  order : (int, (int * int) list ref) Hashtbl.t; (* node -> rev (r, src) *)
  last_commit : (int, commit_cert) Hashtbl.t;
  vertex_commit : (int * int * int, commit_cert) Hashtbl.t;
      (* (node, round, source) -> the commit that delivered it *)
}

let create () =
  { rule = None;
    wl = None;
    stories = Hashtbl.create 16;
    cert_count = Hashtbl.create 16;
    order = Hashtbl.create 16;
    last_commit = Hashtbl.create 16;
    vertex_commit = Hashtbl.create 4096 }

let node_stories t node =
  match Hashtbl.find_opt t.stories node with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 256 in
    Hashtbl.add t.stories node tbl;
    tbl

let note_cert t ~node ~rule ~wave ~leader_round =
  if t.rule = None then t.rule <- Some rule;
  (* leader_round = L*(wave-1) + 1 pins the wave length once wave >= 2 *)
  if t.wl = None && wave >= 2 && (leader_round - 1) mod (wave - 1) = 0 then begin
    let l = (leader_round - 1) / (wave - 1) in
    if l >= 1 then t.wl <- Some l
  end;
  match Hashtbl.find_opt t.cert_count node with
  | Some r -> incr r
  | None -> Hashtbl.add t.cert_count node (ref 1)

let feed t (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Commit_cert
      { node; rule; sched; wave; leader_round; leader_source; direct;
        anchor_wave; via_round; via_source; support; quorum; delivered } ->
    note_cert t ~node ~rule ~wave ~leader_round;
    let cert =
      { c_node = node;
        c_rule = rule;
        c_sched = sched;
        c_wave = wave;
        c_leader_round = leader_round;
        c_leader_source = leader_source;
        c_direct = direct;
        c_anchor = anchor_wave;
        c_via_round = via_round;
        c_via_source = via_source;
        c_support = support;
        c_quorum = quorum;
        c_delivered = delivered;
        c_at = e.Trace.time }
    in
    let tbl = node_stories t node in
    let prior = Hashtbl.find_opt tbl wave in
    Hashtbl.replace tbl wave
      { st_wave = wave;
        st_skip = Option.bind prior (fun s -> s.st_skip);
        st_commit = Some cert };
    Hashtbl.replace t.last_commit node cert
  | Trace.Skip_cert
      { node; rule; sched; wave; leader_round; leader_source; reason; support;
        quorum } ->
    note_cert t ~node ~rule ~wave ~leader_round;
    let cert =
      { s_node = node;
        s_rule = rule;
        s_sched = sched;
        s_wave = wave;
        s_leader_round = leader_round;
        s_leader_source = leader_source;
        s_reason = reason;
        s_support = support;
        s_quorum = quorum;
        s_at = e.Trace.time }
    in
    let tbl = node_stories t node in
    let prior = Hashtbl.find_opt tbl wave in
    (* keep the first skip; a commit recorded before a skip would be a
       tracer anomaly — never overwrite it *)
    Hashtbl.replace tbl wave
      { st_wave = wave;
        st_skip =
          (match Option.bind prior (fun s -> s.st_skip) with
          | Some s -> Some s
          | None -> Some cert);
        st_commit = Option.bind prior (fun s -> s.st_commit) }
  | Trace.A_deliver { node; round; source } -> (
    (match Hashtbl.find_opt t.order node with
    | Some r -> r := (round, source) :: !r
    | None -> Hashtbl.add t.order node (ref [ (round, source) ]));
    match Hashtbl.find_opt t.last_commit node with
    | Some cert -> Hashtbl.replace t.vertex_commit (node, round, source) cert
    | None -> ())
  | _ -> ()

let of_events events =
  let t = create () in
  List.iter (feed t) events;
  t

let of_jsonl_file path =
  Result.map of_events (Trace.events_of_jsonl_file path)

let nodes t =
  Hashtbl.fold (fun node _ acc -> node :: acc) t.cert_count []
  |> List.sort compare

let observer t =
  Hashtbl.fold
    (fun node count acc ->
      match acc with
      | None -> Some (node, !count)
      | Some (bn, bc) ->
        if !count > bc || (!count = bc && node < bn) then Some (node, !count)
        else acc)
    t.cert_count None
  |> Option.map fst

let rule_name t = t.rule

let wave_length t =
  match t.wl with
  | Some _ as l -> l
  | None ->
    Option.bind t.rule (fun name ->
        Option.map
          (fun r -> r.Dagrider.Ordering.rule_wave_length)
          (Dagrider.Ordering.rule_of_name name))

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

let last_round_of t leader_round =
  match wave_length t with
  | Some l -> leader_round + l - 1
  | None -> leader_round

(* the chain a commit belongs to: every commit at the node sharing its
   anchor, ascending by wave (the anchor's direct commit last) *)
let chain_of t ~node (c : commit_cert) =
  List.filter_map
    (fun st ->
      match st.st_commit with
      | Some c' when c'.c_anchor = c.c_anchor -> Some c'
      | _ -> None)
    (stories t ~node)

let justification t ~node ~wave =
  match find_story t ~node ~wave with
  | None | Some { st_commit = None; _ } -> None
  | Some { st_commit = Some c; _ } ->
    let leader =
      { Dagrider.Vertex.round = c.c_leader_round; source = c.c_leader_source }
    in
    let last_round = last_round_of t c.c_leader_round in
    let support =
      List.map
        (fun src -> { Dagrider.Vertex.round = last_round; source = src })
        c.c_support
    in
    let chain =
      List.filter_map
        (fun c' ->
          if c'.c_wave = wave then None
          else
            Some
              { Dagrider.Vertex.round = c'.c_leader_round;
                source = c'.c_leader_source })
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

let explain_commit t ~node buf (c : commit_cert) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if c.c_direct then begin
    add "outcome: committed (direct) at t=%.2f\n" c.c_at;
    add "  support: %d last-round (r%d) vertices reach the leader by strong \
         paths\n"
      (List.length c.c_support)
      (last_round_of t c.c_leader_round);
    add "           %s — quorum %d met (Algorithm 3 line 36 / Bullshark vote \
         count)\n"
      (fmt_sources c.c_support) c.c_quorum
  end
  else begin
    add "outcome: committed (chained) at t=%.2f\n" c.c_at;
    add "  evidence: leader (r%d,p%d) reaches (r%d,p%d) by a strong path\n"
      c.c_via_round c.c_via_source c.c_leader_round c.c_leader_source;
    add "            (lines 38-43 chain-back, anchored at wave %d's direct \
         commit)\n"
      c.c_anchor
  end;
  (match chain_of t ~node c with
  | [] | [ _ ] -> ()
  | chain ->
    add "  chain: %s\n"
      (String.concat " <- "
         (List.map
            (fun c' ->
              Printf.sprintf "w%d (r%d,p%d)%s" c'.c_wave c'.c_leader_round
                c'.c_leader_source
                (if c'.c_direct then " [direct]" else ""))
            chain)));
  add "  delivered: %d vertices\n" c.c_delivered

let explain_skip t buf (s : skip_cert) ~recovered =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if recovered then add "skipped first at t=%.2f: " s.s_at
  else add "outcome: skipped at t=%.2f: " s.s_at;
  (match s.s_reason with
  | "leader-absent" ->
    add "leader vertex (r%d,p%d) absent from the local DAG (line 47)\n"
      s.s_leader_round s.s_leader_source
  | "under-supported" ->
    add "under-supported — support %s (%d of quorum %d) at round r%d\n"
      (fmt_sources s.s_support)
      (List.length s.s_support)
      s.s_quorum
      (last_round_of t s.s_leader_round)
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
      | Some c, _ -> (c.c_rule, c.c_sched, c.c_leader_round, c.c_leader_source)
      | None, Some s -> (s.s_rule, s.s_sched, s.s_leader_round, s.s_leader_source)
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

let commit_cert_to_json (c : commit_cert) =
  Stdx.Json.Obj
    [ ("node", Stdx.Json.Int c.c_node);
      ("rule", Stdx.Json.String c.c_rule);
      ("sched", Stdx.Json.String c.c_sched);
      ("wave", Stdx.Json.Int c.c_wave);
      ("leader_round", Stdx.Json.Int c.c_leader_round);
      ("leader_source", Stdx.Json.Int c.c_leader_source);
      ("direct", Stdx.Json.Bool c.c_direct);
      ("anchor_wave", Stdx.Json.Int c.c_anchor);
      ("via_round", Stdx.Json.Int c.c_via_round);
      ("via_source", Stdx.Json.Int c.c_via_source);
      ( "support",
        Stdx.Json.List (List.map (fun s -> Stdx.Json.Int s) c.c_support) );
      ("quorum", Stdx.Json.Int c.c_quorum);
      ("delivered", Stdx.Json.Int c.c_delivered);
      ("at", Stdx.Json.Float c.c_at) ]

let skip_cert_to_json (s : skip_cert) =
  Stdx.Json.Obj
    [ ("node", Stdx.Json.Int s.s_node);
      ("rule", Stdx.Json.String s.s_rule);
      ("sched", Stdx.Json.String s.s_sched);
      ("wave", Stdx.Json.Int s.s_wave);
      ("leader_round", Stdx.Json.Int s.s_leader_round);
      ("leader_source", Stdx.Json.Int s.s_leader_source);
      ("reason", Stdx.Json.String s.s_reason);
      ( "support",
        Stdx.Json.List (List.map (fun x -> Stdx.Json.Int x) s.s_support) );
      ("quorum", Stdx.Json.Int s.s_quorum);
      ("at", Stdx.Json.Float s.s_at) ]

let story_outcome st =
  match (st.st_commit, st.st_skip) with
  | Some c, _ when c.c_direct -> "committed"
  | Some _, _ -> "committed-chained"
  | None, Some _ -> "skipped"
  | None, None -> "unresolved"

let explain_wave_json t ~node ~wave =
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
      | Some c when not c.c_direct ->
        [ ( "chain",
            Stdx.Json.List (List.map commit_cert_to_json (chain_of t ~node c))
          ) ]
      | _ -> []
    in
    Stdx.Json.Obj
      ([ ("node", Stdx.Json.Int node);
         ("wave", Stdx.Json.Int wave);
         ("outcome", Stdx.Json.String (story_outcome st));
         ( "commit",
           match st.st_commit with
           | Some c -> commit_cert_to_json c
           | None -> Stdx.Json.Null );
         ( "skip",
           match st.st_skip with
           | Some s -> skip_cert_to_json s
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
      round source c.c_wave
      (explain_wave t ~node ~wave:c.c_wave)

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
        ("ordered_by", Stdx.Json.Int c.c_wave);
        ("explain", explain_wave_json t ~node ~wave:c.c_wave) ]

let summary t ~node =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sts = stories t ~node in
  add "certificate summary for p%d (%d waves%s):\n" node (List.length sts)
    (match t.rule with Some r -> ", rule " ^ r | None -> "");
  List.iter
    (fun st ->
      match (st.st_commit, st.st_skip) with
      | Some c, skip ->
        add "  w%-4d committed %s (r%d,p%d)%s%s\n" st.st_wave
          (if c.c_direct then
             Printf.sprintf "direct, support %s >= %d"
               (fmt_sources c.c_support) c.c_quorum
           else Printf.sprintf "chained via (r%d,p%d)" c.c_via_round c.c_via_source)
          c.c_leader_round c.c_leader_source
          (if skip <> None then " [recovered after skip]" else "")
          (Printf.sprintf ", %d delivered" c.c_delivered)
      | None, Some s ->
        add "  w%-4d skipped (%s, support %s < %d)\n" st.st_wave s.s_reason
          (fmt_sources s.s_support) s.s_quorum
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
      a_commit : commit_cert option;
      b_commit : commit_cert option;
    }

(* a decision's identity for stream comparison: what was decided, not
   the local evidence — two honest nodes may commit the same wave with
   different direct/chained paths and that is not a divergence *)
let story_digest = function
  | None -> "U"
  | Some { st_commit = Some c; _ } ->
    Printf.sprintf "C%d:%d" c.c_leader_round c.c_leader_source
  | Some { st_skip = Some _; st_commit = None; _ } -> "S"
  | Some { st_skip = None; st_commit = None; _ } -> "U"

(* cumulative digest chain over stream prefixes: prefix equality is one
   int comparison, so first-divergence location is a binary search *)
let cumulative digests =
  let n = Array.length digests in
  let out = Array.make n 0 in
  let h = ref 0x1505 in
  for i = 0 to n - 1 do
    h := Hashtbl.hash (!h, digests.(i));
    out.(i) <- !h
  done;
  out

(* smallest index where the cumulative chains differ; the predicate is
   monotone (once the chains split they stay split), with a linear
   fallback guarding against hash collisions *)
let first_divergent_index da db =
  let n = min (Array.length da) (Array.length db) in
  let ca = cumulative da and cb = cumulative db in
  if n = 0 || ca.(n - 1) = cb.(n - 1) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ca.(mid) = cb.(mid) then lo := mid + 1 else hi := mid
    done;
    if da.(!lo) <> db.(!lo) then Some !lo
    else begin
      (* cumulative-hash collision upstream: locate the truth linearly *)
      let i = ref 0 in
      while !i < n && da.(!i) = db.(!i) do incr i done;
      if !i < n then Some !i else None
    end
  end

let max_wave t ~node =
  List.fold_left (fun acc st -> max acc st.st_wave) 0 (stories t ~node)

(* both rules order the same vertices, so the delivery logs are always
   comparable — the cross-rule mode, and the fallback when same-rule
   wave decisions agree but the delivered histories still differ *)
let log_divergence ta ~node_a tb ~node_b =
  let log t node =
    match Hashtbl.find_opt t.order node with
    | Some r -> Array.of_list (List.rev !r)
    | None -> [||]
  in
  let la = log ta node_a and lb = log tb node_b in
  let n = min (Array.length la) (Array.length lb) in
  let digest l = Array.init n (fun i -> Printf.sprintf "%d:%d" (fst l.(i)) (snd l.(i))) in
  match first_divergent_index (digest la) (digest lb) with
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
  let certs t node =
    match Hashtbl.find_opt t.cert_count node with Some r -> !r | None -> 0
  in
  if certs ta node_a = 0 || certs tb node_b = 0 then No_certificates
  else if ta.rule = tb.rule then begin
    (* same rule: waves are comparable decision-for-decision *)
    let wa = max_wave ta ~node:node_a and wb = max_wave tb ~node:node_b in
    let n = min wa wb in
    let da =
      Array.init n (fun i -> story_digest (find_story ta ~node:node_a ~wave:(i + 1)))
    in
    let db =
      Array.init n (fun i -> story_digest (find_story tb ~node:node_b ~wave:(i + 1)))
    in
    match first_divergent_index da db with
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
      (match Hashtbl.find_opt t.order node with
      | Some r -> List.length !r
      | None -> 0)
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
  | Diverged_wave { wave; a; b } ->
    add "FIRST DIVERGENT DECISION: wave %d\n\n" wave;
    add "--- side A (p%d) ---\n%s\n" node_a (explain_wave ta ~node:node_a ~wave);
    ignore a;
    ignore b;
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
