(* Byte pins of the observability outputs built on the ordering
   certificates: the analyzer report (text and JSON), the forensics
   summary and explain JSON, the divergence report (text and JSON) and
   the justification DOT; and of the critical-path report (text and
   JSON) beside them. Each is computed twice — from a traced run's
   live analyzer and from a fresh one fed its JSONL dump — on the runs
   the CI forensics smoke uses: n=4 seed 1 with p3 crashed to t=200,
   and the seed-1 dagrider/bullshark pair to t=120.

   A pin is the MD5 of the output's bytes. A refactor of the certificate
   path must leave every pin unchanged; a change that means to alter an
   output updates its pin and says why. *)

let build_traced ~rule ~faults ~until =
  let tracer = Trace.create () in
  (* the flags dagrider_run's shared options give these runs *)
  let fleet =
    Harness.Runner.build
      { (Harness.Runner.default_options ~n:4) with
        seed = 1;
        rule;
        faults;
        block_bytes = 64;
        trace = Some tracer }
  in
  Harness.Runner.run fleet ~until;
  Alcotest.(check int) "ring kept the whole run" 0 (Trace.dropped tracer);
  (fleet, tracer)

(* [f path] over the tracer's JSONL dump *)
let with_dump tracer f =
  let path = Filename.temp_file "golden" ".trace.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (Trace.to_jsonl tracer);
      close_out oc;
      f path)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* A run's ledger, analyzer report and critical-path report: read off
   the fleet's live analyzer, or off a fresh analyzer fed its JSONL dump
   and finalized under the rule the certificates name. *)
let collectors ~replay (fleet, tracer) =
  if replay then
    with_dump tracer (fun path ->
        let acc = Analyze.of_events (ok (Trace.events_of_jsonl_file path)) in
        let config = Analyze.with_certified_rule Analyze.default_config acc in
        ( Analyze.ledger acc,
          Analyze.finalize ~config acc,
          Analyze.critpath_report acc ))
  else
    let acc = Option.get (Harness.Runner.analyzer fleet) in
    ( Analyze.ledger acc,
      Option.get (Harness.Runner.analysis fleet),
      Analyze.critpath_report acc )

let json = Stdx.Json.to_string

let analysis_outputs label report =
  [ (label ^ " analyze render", Analyze.render report);
    (label ^ " analyze json", json (Analyze.report_to_json report)) ]

let forensics_outputs label fx =
  let node = Option.get (Forensics.observer fx) in
  [ (label ^ " summary", Forensics.summary fx ~node);
    (label ^ " explain w2", json (Forensics.explain_wave_json fx ~node ~wave:2));
    (label ^ " explain w7", json (Forensics.explain_wave_json fx ~node ~wave:7)) ]

let justification_output label fx dag =
  let node = Option.get (Forensics.observer fx) in
  match Forensics.justification fx ~node ~wave:2 with
  | None -> Alcotest.fail (label ^ ": wave 2 has no commit certificate")
  | Some (leader, support, chain) ->
    ( label ^ " dot justification w2",
      Dagrider.Render.dot_justification ~support ~chain ~legend:true
        ~max_round:12 dag ~leader )

let critpath_outputs label report =
  [ (label ^ " critpath render", Critpath.render report);
    (label ^ " critpath json", json (Critpath.report_to_json report)) ]

let divergence_outputs label fa fb =
  let node_a = Option.get (Forensics.observer fa) in
  let node_b = Option.get (Forensics.observer fb) in
  [ (label ^ " divergence", Forensics.render_divergence fa ~node_a fb ~node_b);
    ( label ^ " divergence json",
      json (Forensics.divergence_to_json fa ~node_a fb ~node_b) ) ]

(* The crash run: analyzer, forensics and the wave-2 justification
   over p0's DAG, read off the live sinks or the replayed dump. *)
let crash_outputs ~replay =
  let ((fleet, _) as run) =
    build_traced ~rule:Dagrider.Ordering.dag_rider
      ~faults:[ Harness.Runner.Crash 3 ] ~until:200.0
  in
  let dag = Dagrider.Node.dag (Harness.Runner.node fleet 0) in
  let fx, report, cp = collectors ~replay run in
  analysis_outputs "crash" report
  @ forensics_outputs "crash" fx
  @ [ justification_output "crash" fx dag ]
  @ critpath_outputs "crash" cp

(* The dagrider/bullshark pair on one schedule: each side's analyzer
   and forensics, and the cross-rule divergence between them. *)
let pair_outputs ~replay =
  let side rule =
    let fx, report, cp =
      collectors ~replay (build_traced ~rule ~faults:[] ~until:120.0)
    in
    (rule.Dagrider.Ordering.rule_name, fx, report, cp)
  in
  let sides = List.map side Dagrider.Ordering.[ dag_rider; bullshark ] in
  List.concat_map
    (fun (label, fx, report, cp) ->
      analysis_outputs label report
      @ forensics_outputs label fx
      @ critpath_outputs label cp)
    sides
  @
  match sides with
  | [ (_, fa, _, _); (_, fb, _, _) ] -> divergence_outputs "pair" fa fb
  | _ -> assert false

let pins =
  [ ("crash analyze render", "bf6448775368268303e2e24b257101e9");
    ("crash analyze json", "1e017d03f5d9ca4dc6c105cdb943b1f5");
    ("crash summary", "f51720e615ee9206088146c830fe8eb5");
    ("crash explain w2", "a9ae3a047700fccf858e5e26b95e6214");
    ("crash explain w7", "416c455b5ad52f6a76cf900cb8802076");
    ("crash dot justification w2", "501f0d8661fc2094c8d778509e0dc1c8");
    ("crash critpath render", "657d347082f1dde2ceac8efdf79ad60b");
    ("crash critpath json", "b43a15a56dbd0a028db06097b18f3140");
    ("dagrider analyze render", "a195903b12195534037f90a2d550fc82");
    ("dagrider analyze json", "b72fe40e95aa24d41c661463599f0433");
    ("bullshark analyze render", "03d86aa5d8b0ff25434e34e11e32fc75");
    ("bullshark analyze json", "d5dff57f1ef954fc6f40abc3b6eec661");
    ("dagrider summary", "d347a76c20484d766c4a825682a7b9c2");
    ("dagrider explain w2", "bda570340b7d5bde8af37e8e54d96410");
    ("dagrider explain w7", "faa033150e625bf8afad06ba19751306");
    ("bullshark summary", "1a3feb3518f6b03601d89c6c12183224");
    ("bullshark explain w2", "7b4eed18e6ae4b1361b96d401a460fe2");
    ("bullshark explain w7", "f648412c024657678b02d8d67f90da27");
    ("dagrider critpath render", "0b30eedd62491f9dccf3dc31cbe04982");
    ("dagrider critpath json", "95b0463e67eb83590200b94df9de8949");
    ("bullshark critpath render", "5f1cad0675d01f6f69898675f11bb7f4");
    ("bullshark critpath json", "6b2df329cf44c255dbb2c37cd335ba31");
    ("pair divergence", "6052937e1bd57aab55b9d99ee71cf634");
    ("pair divergence json", "42dae6ffecf42caa74c0efa94c0e7100") ]

let check_pins outputs ~replay () =
  List.iter
    (fun (label, text) ->
      match List.assoc_opt label pins with
      | None -> Alcotest.fail ("no pin for " ^ label)
      | Some pin ->
        Alcotest.(check string) label pin (Digest.to_hex (Digest.string text)))
    (outputs ~replay)

let () =
  Alcotest.run "golden"
    [ ( "pins",
        [ Alcotest.test_case "crash run, live" `Quick
            (check_pins crash_outputs ~replay:false);
          Alcotest.test_case "crash run, replayed" `Quick
            (check_pins crash_outputs ~replay:true);
          Alcotest.test_case "dagrider/bullshark pair, live" `Quick
            (check_pins pair_outputs ~replay:false);
          Alcotest.test_case "dagrider/bullshark pair, replayed" `Quick
            (check_pins pair_outputs ~replay:true) ] ) ]
