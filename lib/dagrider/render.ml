let ascii ?(highlight = fun _ -> false) ?(min_round = 1) ?max_round dag =
  let top =
    match max_round with
    | Some r -> min r (Dag.highest_round dag)
    | None -> Dag.highest_round dag
  in
  let lo = max 1 min_round in
  let n = Dag.n dag in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "round   ";
  for r = lo to top do
    Buffer.add_string buf (Printf.sprintf "%-5d" r)
  done;
  Buffer.add_char buf '\n';
  for source = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "p%-2d     " source);
    for round = lo to top do
      let cell =
        match Dag.find dag { Vertex.round; source } with
        | None -> "."
        | Some v ->
          let mark =
            if highlight { Vertex.round; source } then "@" else "*"
          in
          let weak = List.length v.Vertex.weak_edges in
          if weak > 0 then Printf.sprintf "%sw%d" mark weak else mark
      in
      Buffer.add_string buf (Printf.sprintf "%-5s" cell)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

type vertex_class =
  | Plain
  | Elected_leader
  | Skipped_leader
  | Committed_leader
  | Shaded
  | Supporter
  | Chained_leader

let class_style = function
  | Plain -> ""
  | Elected_leader -> " [style=filled, fillcolor=lightskyblue]"
  | Skipped_leader -> " [style=filled, fillcolor=lightcoral]"
  | Committed_leader -> " [style=filled, fillcolor=gold]"
  | Shaded -> " [style=filled, fillcolor=gray90]"
  | Supporter -> " [style=filled, fillcolor=palegreen]"
  | Chained_leader -> " [style=filled, fillcolor=orange]"

let dot_classified ?(classify = fun _ -> Plain) ?(legend = false) ?max_round dag
    =
  let top =
    match max_round with
    | Some r -> min r (Dag.highest_round dag)
    | None -> Dag.highest_round dag
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph dag {\n  rankdir=LR;\n  node [shape=circle];\n";
  if legend then
    Buffer.add_string buf
      "  // legend: gold = committed leader, lightcoral = skipped leader,\n\
      \  //         lightskyblue = elected (unresolved) leader,\n\
      \  //         gray90 = causal history of the chosen commit,\n\
      \  //         palegreen = supporting-quorum vertex,\n\
      \  //         orange = chain-back leader,\n\
      \  //         solid edge = strong, dashed edge = weak\n";
  let node_id (vref : Vertex.vref) =
    Printf.sprintf "r%dp%d" vref.Vertex.round vref.Vertex.source
  in
  for round = 1 to top do
    Buffer.add_string buf (Printf.sprintf "  { rank=same;");
    List.iter
      (fun v ->
        let vref = Vertex.vref_of v in
        Buffer.add_string buf (Printf.sprintf " %s;" (node_id vref)))
      (Dag.round_vertices dag round);
    Buffer.add_string buf " }\n"
  done;
  for round = 1 to top do
    List.iter
      (fun v ->
        let vref = Vertex.vref_of v in
        let style = class_style (classify vref) in
        Buffer.add_string buf
          (Printf.sprintf "  %s [label=\"%d,%d\"]%s;\n" (node_id vref)
             vref.Vertex.round vref.Vertex.source style);
        List.iter
          (fun (e : Vertex.vref) ->
            if e.Vertex.round >= 1 then
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s;\n" (node_id vref) (node_id e)))
          v.Vertex.strong_edges;
        List.iter
          (fun (e : Vertex.vref) ->
            Buffer.add_string buf
              (Printf.sprintf "  %s -> %s [style=dashed];\n" (node_id vref)
                 (node_id e)))
          v.Vertex.weak_edges)
      (Dag.round_vertices dag round)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let dot_justification ?(support = []) ?(chain = []) ?legend ?max_round dag
    ~leader =
  let classes : (Vertex.vref, vertex_class) Hashtbl.t = Hashtbl.create 64 in
  (* paint lowest-priority first so the stronger roles win the slot *)
  if Dag.contains dag leader then
    List.iter
      (fun v -> Hashtbl.replace classes v Shaded)
      (Dag.reachable_from dag leader ~via_strong_only:false);
  List.iter (fun v -> Hashtbl.replace classes v Supporter) support;
  List.iter (fun v -> Hashtbl.replace classes v Chained_leader) chain;
  Hashtbl.replace classes leader Committed_leader;
  dot_classified
    ~classify:(fun v ->
      match Hashtbl.find_opt classes v with Some c -> c | None -> Plain)
    ?legend ?max_round dag

let dot ?(highlight = fun _ -> false) ?max_round dag =
  dot_classified
    ~classify:(fun vref -> if highlight vref then Committed_leader else Plain)
    ?max_round dag

let wave_summary dag ~rule ~f ~leader_of =
  let quorum = Ordering.quorum_of rule ~f in
  let top_wave = Dag.highest_round dag / rule.Ordering.rule_wave_length in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "wave | leader | present | support (need %d)\n" quorum);
  for w = 1 to top_wave do
    match leader_of w with
    | None -> Buffer.add_string buf (Printf.sprintf "%4d | (coin unresolved)\n" w)
    | Some leader_source ->
      let line =
        match Ordering.leader_vertex ~rule ~dag ~wave:w ~leader_source with
        | None -> Printf.sprintf "%4d | p%-4d | no      | -\n" w leader_source
        | Some leader ->
          let support =
            List.length (Ordering.supporters ~rule ~dag ~wave:w ~leader)
          in
          Printf.sprintf "%4d | p%-4d | yes     | %d%s\n" w leader_source support
            (if support >= quorum then " COMMIT" else "")
      in
      Buffer.add_string buf line
  done;
  Buffer.contents buf
