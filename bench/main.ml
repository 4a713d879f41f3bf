(* Paper-table driver: regenerates the paper's tables and figures.

   Usage:
     dune exec bench/main.exe                  -- every paper table
     dune exec bench/main.exe -- table1-comm   -- one experiment
     dune exec bench/main.exe -- list          -- list experiment names

   Add "--json [FILE]" to any experiment invocation to also serialize
   the table(s) — rows, notes, and the runs' metrics snapshots
   (per-kind bit counters, latency percentiles, engine gauges) — as a
   JSON array. FILE defaults to BENCH_TABLES.json.

   Each table regenerates one artifact of the paper (DESIGN.md §4 maps
   table/figure -> experiment id); EXPERIMENTS.md records paper-claimed
   vs measured values. The implementation's own cost (CPU, allocation,
   per-layer self time) is measured by perfbench/, not here. *)

module E = Harness.Experiments

let find name = List.find_opt (fun e -> e.E.name = name) E.all

let run_experiment e =
  let t0 = Sys.time () in
  let table = e.E.run () in
  let dt = Sys.time () -. t0 in
  print_string (E.render table);
  Printf.printf "  (regenerated in %.1fs cpu)\n\n" dt;
  (e.E.name, table)

let write_json path named_tables =
  let entry (name, table) =
    match E.to_json table with
    | Stdx.Json.Obj fields ->
      Stdx.Json.Obj (("experiment", Stdx.Json.String name) :: fields)
    | other -> other
  in
  let json = Stdx.Json.List (List.map entry named_tables) in
  let oc = open_out path in
  output_string oc (Stdx.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d experiment%s)\n" path
    (List.length named_tables)
    (if List.length named_tables = 1 then "" else "s")

let default_json_file = "BENCH_TABLES.json"

(* pull "--json [FILE]" out of the argument list; the next argument is
   FILE only when it is neither a flag nor an experiment name, so
   "--json table1-comm" runs table1-comm into the default file *)
let rec extract_json acc = function
  | [] -> (None, List.rev acc)
  | "--json" :: rest -> (
    match rest with
    | file :: more when (file = "" || file.[0] <> '-') && find file = None ->
      (Some file, List.rev_append acc more)
    | _ -> (Some default_json_file, List.rev_append acc rest))
  | a :: rest -> extract_json (a :: acc) rest

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json_out, args = extract_json [] args in
  let maybe_write tables =
    match json_out with None -> () | Some path -> write_json path tables
  in
  match args with
  | [ "list" ] ->
    List.iter
      (fun e -> Printf.printf "%-22s %s\n" e.E.name e.E.description)
      E.all
  | [ name ] -> (
    match find name with
    | Some e -> maybe_write [ run_experiment e ]
    | None ->
      Printf.eprintf "unknown experiment %S; try 'list'\n" name;
      exit 1)
  | [] ->
    print_endline
      "DAG-Rider reproduction: regenerating every paper table/figure\n";
    maybe_write (List.map run_experiment E.all)
  | _ ->
    prerr_endline "usage: main.exe [list | <experiment>] [--json [FILE]]";
    exit 1
