(* Unit and property tests for the DAG layer: vertex codec and
   validation (Algorithm 1 / Algorithm 2 line 25), and the DAG store's
   reachability semantics (Claim 1's invariant). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let vref round source = { Dagrider.Vertex.round; source }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let mkv ~round ~source ?(block = "") ?(strong = []) ?(weak = []) () =
  { Dagrider.Vertex.round;
    source;
    block;
    strong_edges = List.map (fun (r, s) -> vref r s) strong;
    weak_edges = List.map (fun (r, s) -> vref r s) weak }

(* ---- Vertex codec ---- *)

let test_codec_roundtrip_simple () =
  let v =
    mkv ~round:3 ~source:1 ~block:"transactions here"
      ~strong:[ (2, 0); (2, 1); (2, 2) ]
      ~weak:[ (1, 3) ] ()
  in
  match Dagrider.Vertex.decode ~round:3 ~source:1 (Dagrider.Vertex.encode v) with
  | Some v' -> checkb "identical" true (v = v')
  | None -> Alcotest.fail "decode failed"

let test_codec_envelope_wins () =
  (* round/source come from the RBC envelope, not the payload *)
  let v = mkv ~round:3 ~source:1 ~strong:[ (2, 0); (2, 1); (2, 2) ] () in
  match Dagrider.Vertex.decode ~round:9 ~source:2 (Dagrider.Vertex.encode v) with
  | Some v' ->
    checki "envelope round" 9 v'.Dagrider.Vertex.round;
    checki "envelope source" 2 v'.Dagrider.Vertex.source
  | None -> Alcotest.fail "decode failed"

let test_codec_rejects_garbage () =
  checkb "empty" true (Dagrider.Vertex.decode ~round:1 ~source:0 "" = None);
  checkb "truncated" true
    (Dagrider.Vertex.decode ~round:1 ~source:0 "\x00\x00\x00\xFFxx" = None);
  checkb "trailing junk" true
    (let v = mkv ~round:1 ~source:0 ~strong:[ (0, 0) ] () in
     Dagrider.Vertex.decode ~round:1 ~source:0 (Dagrider.Vertex.encode v ^ "z")
     = None)

let test_codec_binary_block () =
  let block = String.init 257 (fun i -> Char.chr (i mod 256)) in
  let v = mkv ~round:2 ~source:0 ~block ~strong:[ (1, 0); (1, 1); (1, 2) ] () in
  match Dagrider.Vertex.decode ~round:2 ~source:0 (Dagrider.Vertex.encode v) with
  | Some v' -> checks "binary block survives" block v'.Dagrider.Vertex.block
  | None -> Alcotest.fail "decode failed"

let prop_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      let* round = int_range 2 40 in
      let* source = int_range 0 9 in
      let* block = string_size (int_range 0 300) in
      let* n_strong = int_range 3 10 in
      let* strong_sources = list_repeat n_strong (int_range 0 9) in
      let* weak_rounds = list_size (int_range 0 4) (int_range 1 (max 1 (round - 2))) in
      let strong =
        List.mapi (fun i s -> (round - 1, (s + i) mod 10)) strong_sources
        |> List.sort_uniq compare
      in
      let weak =
        List.mapi (fun i r -> (r, i mod 10)) weak_rounds |> List.sort_uniq compare
      in
      (* drop weak refs colliding with strong refs *)
      let weak = List.filter (fun w -> not (List.mem w strong)) weak in
      return (round, source, block, strong, weak))
  in
  QCheck.Test.make ~name:"vertex codec roundtrip" ~count:300
    (QCheck.make gen) (fun (round, source, block, strong, weak) ->
      let v = mkv ~round ~source ~block ~strong ~weak () in
      Dagrider.Vertex.decode ~round ~source (Dagrider.Vertex.encode v) = Some v)

(* ---- Vertex validation ---- *)

let ok = function Ok () -> true | Error _ -> false

let test_validate_accepts_good () =
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 2) ] ~weak:[ (1, 3) ] ()
  in
  checkb "valid" true (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_too_few_strong () =
  let v = mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1) ] () in
  checkb "2 < 2f+1" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_wrong_round_strong () =
  let v = mkv ~round:3 ~source:0 ~strong:[ (1, 0); (2, 1); (2, 2) ] () in
  checkb "strong edge to r-2" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_weak_to_previous_round () =
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 2) ] ~weak:[ (2, 3) ] ()
  in
  checkb "weak edge to r-1" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_weak_in_round_one () =
  let v =
    mkv ~round:1 ~source:0 ~strong:[ (0, 0); (0, 1); (0, 2) ] ~weak:[ (1, 3) ] ()
  in
  checkb "round-1 vertex cannot have weak edges" false
    (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_round_zero () =
  let v = mkv ~round:0 ~source:0 () in
  checkb "round 0 not broadcastable" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_rejects_bad_source () =
  let v = mkv ~round:3 ~source:7 ~strong:[ (2, 0); (2, 1); (2, 2) ] () in
  checkb "source out of range" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v));
  let v2 = mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 9) ] () in
  checkb "edge source out of range" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v2))

let test_validate_rejects_duplicate_edges () =
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 0); (2, 1) ] ()
  in
  checkb "duplicate strong" false (ok (Dagrider.Vertex.validate ~n:4 ~f:1 v))

let test_validate_error_messages_name_rule () =
  (match
     Dagrider.Vertex.validate ~n:4 ~f:1
       (mkv ~round:3 ~source:0 ~strong:[ (2, 0) ] ())
   with
  | Error msg -> checkb "mentions strong edges" true
      (contains msg "strong")
  | Ok () -> Alcotest.fail "should reject")

(* ---- Vertex intake against the reference (test/vertex_reference.ml) ---- *)

let show_vertex (v : Dagrider.Vertex.t) =
  let edges l =
    String.concat " "
      (List.map
         (fun (e : Dagrider.Vertex.vref) -> Printf.sprintf "%d/%d" e.round e.source)
         l)
  in
  Printf.sprintf "r=%d p=%d |b|=%d strong=[%s] weak=[%s]" v.round v.source
    (String.length v.block) (edges v.strong_edges) (edges v.weak_edges)

(* Insert [x] into [l] at a random position. *)
let insert_anywhere x l =
  QCheck.Gen.(
    let* i = int_range 0 (List.length l) in
    return (List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)))

(* A vertex for [n] in {4, 16, 64, 100} processes (the last two past the
   int mask of the strong-edge check), valid before at most one fault:
   a duplicate strong or weak edge, an out-of-range source, a strong or
   weak edge to a wrong round, a round below 1, or too few strong
   edges. With [~wire] every number stays encodable. *)
let gen_intake_vertex ~wire =
  QCheck.Gen.(
    let* n = oneofl [ 4; 16; 64; 100 ] in
    let f = (n - 1) / 3 in
    let* round = int_range 1 30 in
    let* source = int_range 0 (n - 1) in
    let* block = string_size (int_range 0 40) in
    let* k = int_range ((2 * f) + 1) n in
    let* order = shuffle_l (List.init n Fun.id) in
    let strong = List.filteri (fun i _ -> i < k) order |> List.map (vref (round - 1)) in
    let* weak_count = frequencyl [ (3, 0); (1, 1); (2, 5) ] in
    let* weak =
      if round < 3 then return []
      else list_repeat weak_count (pair (int_range 1 (round - 2)) (int_range 0 (n - 1)))
    in
    let* weak = shuffle_l (List.sort_uniq compare weak |> List.map (fun (r, s) -> vref r s)) in
    let* bad_source =
      if wire then oneofl [ n; n + 7; 0xFFFFFFFF ] else oneofl [ n; -1; max_int ]
    in
    let* pick = int_range 0 999 in
    let nth l = List.nth l (pick mod List.length l) in
    let replace_nth l e = List.mapi (fun i x -> if i = pick mod List.length l then e else x) l in
    let* fault = int_range 0 9 in
    let v = { Dagrider.Vertex.round; source; block; strong_edges = strong; weak_edges = weak } in
    let* v =
      match fault with
      | 1 ->
        let* strong = insert_anywhere (nth strong) strong in
        return { v with strong_edges = strong }
      | 2 ->
        let* weak =
          match weak with
          | [] -> return [ vref (max 1 (round - 2)) 0; vref (max 1 (round - 2)) 0 ]
          | _ -> insert_anywhere (nth weak) weak
        in
        return { v with weak_edges = weak }
      | 3 ->
        let e = nth strong in
        return { v with strong_edges = replace_nth strong (vref e.round bad_source) }
      | 4 ->
        let* wrong = oneofl (if wire && round < 2 then [ round ] else [ round; round - 2 ]) in
        let e = nth strong in
        return { v with strong_edges = replace_nth strong (vref wrong e.source) }
      | 5 ->
        let* wrong = oneofl [ 0; round - 1; round ] in
        let* weak = insert_anywhere (vref (max 0 wrong) (pick mod n)) weak in
        return { v with weak_edges = weak }
      | 6 -> return { v with round = (if wire then 0 else -3) }
      | 7 ->
        let* keep = int_range 0 (2 * f) in
        return { v with strong_edges = List.filteri (fun i _ -> i < keep) strong }
      | 8 -> return { v with source = bad_source }
      | 9 when weak <> [] ->
        let e = nth weak in
        return { v with weak_edges = replace_nth weak (vref e.round bad_source) }
      | _ -> return v
    in
    return (n, f, v))

let prop_validate_matches_reference =
  QCheck.Test.make ~name:"validate = reference validate" ~count:2000
    (QCheck.make
       ~print:(fun (n, f, v) -> Printf.sprintf "n=%d f=%d %s" n f (show_vertex v))
       (gen_intake_vertex ~wire:false))
    (fun (n, f, v) ->
      Dagrider.Vertex.validate ~n ~f v = Vertex_reference.validate ~n ~f v)

(* [payload] with the u32 at [pos] replaced by [x] *)
let set_u32 payload pos x =
  let b = Bytes.of_string payload in
  Bytes.set_int32_be b pos (Int32.of_int x);
  Bytes.to_string b

(* The encoding of a generated vertex, kept, truncated, extended, or
   with its block length or an edge count rewritten (huge values
   included), or replaced by random bytes. *)
let gen_intake_payload =
  QCheck.Gen.(
    let* n, f, v = gen_intake_vertex ~wire:true in
    let payload = Dagrider.Vertex.encode v in
    let len = String.length payload in
    let block_len = String.length v.block in
    let strong_at = 4 + block_len in
    let weak_at = strong_at + 4 + (8 * List.length v.strong_edges) in
    let* mutation = int_range 0 6 in
    let* payload =
      match mutation with
      | 1 ->
        let* cut = int_range 0 (len - 1) in
        return (String.sub payload 0 cut)
      | 2 ->
        let* extra = string_size (int_range 1 12) in
        return (payload ^ extra)
      | 3 ->
        let* x = oneofl [ 0xFFFFFFFF; 0x7FFFFFFF; block_len + 1; max 0 (block_len - 1); len ] in
        return (set_u32 payload 0 x)
      | 4 ->
        let* at = oneofl [ strong_at; weak_at ] in
        let count = if at = strong_at then List.length v.strong_edges else List.length v.weak_edges in
        let* x = oneofl [ 0xFFFFFFFF; 0x1FFFFFFF; count + 1; max 0 (count - 1); len ] in
        return (set_u32 payload at x)
      | 5 -> string_size (int_range 0 64)
      | _ -> return payload
    in
    return (n, f, v.round, v.source, payload))

let prop_decode_matches_reference =
  QCheck.Test.make ~name:"decode/validate = reference on payloads" ~count:2000
    (QCheck.make
       ~print:(fun (n, f, round, source, payload) ->
         Printf.sprintf "n=%d f=%d round=%d source=%d payload=%S" n f round source
           payload)
       gen_intake_payload)
    (fun (n, f, round, source, payload) ->
      let got = Dagrider.Vertex.decode ~round ~source payload in
      got = Vertex_reference.decode ~round ~source payload
      &&
      match got with
      | Some v -> Dagrider.Vertex.validate ~n ~f v = Vertex_reference.validate ~n ~f v
      | None -> true)

(* Intake allocates the decoded vertex and nothing else. Like every
   allocation bound in the suite, these hold for the repository's
   default (release) build. *)
let test_intake_allocation () =
  let n = 16 and f = 5 in
  let v =
    mkv ~round:7 ~source:3 ~block:(String.make 32 'b')
      ~strong:(List.init n (fun s -> (6, s)))
      ()
  in
  let payload = Dagrider.Vertex.encode v in
  ignore (Dagrider.Vertex.decode ~round:7 ~source:3 payload);
  let before = Gc.minor_words () in
  let decoded = Sys.opaque_identity (Dagrider.Vertex.decode ~round:7 ~source:3 payload) in
  let words = Gc.minor_words () -. before in
  let v' = match decoded with Some v' -> v' | None -> Alcotest.fail "decode failed" in
  (* the result's own words plus the [Some] block around it *)
  let bound = Obj.reachable_words (Obj.repr v') + 2 in
  checkb (Printf.sprintf "decode: %.0f words <= %d" words bound) true
    (words <= float_of_int bound);
  ignore (Dagrider.Vertex.validate ~n ~f v');
  let before = Gc.minor_words () in
  let verdict = Sys.opaque_identity (Dagrider.Vertex.validate ~n ~f v') in
  let words = Gc.minor_words () -. before in
  checkb "valid" true (verdict = Ok ());
  checkb (Printf.sprintf "validate: %.0f words = 0" words) true (words = 0.0)

(* [encode] writes the bytes of the Buffer encoder it replaced, and
   raises its error on an edge number outside u32 (the generator's
   negative and [max_int] sources) *)
let encoded encode v =
  match encode v with s -> Ok s | exception Invalid_argument m -> Error m

let prop_encode_matches_reference =
  QCheck.Test.make ~name:"encode = reference encode" ~count:2000
    (QCheck.make
       ~print:(fun (n, f, v) -> Printf.sprintf "n=%d f=%d %s" n f (show_vertex v))
       QCheck.Gen.(
         let* wire = bool in
         gen_intake_vertex ~wire))
    (fun (_, _, v) ->
      encoded Dagrider.Vertex.encode v = encoded Vertex_reference.encode v)

(* the words [Bytes.create] takes for a string of [s]'s length: a
   header and the bytes padded to a word *)
let string_words s = 1 + (String.length s / (Sys.word_size / 8)) + 1

(* [encode] allocates its result and the 3-word writer that fills it *)
let test_encode_allocation () =
  let v =
    mkv ~round:7 ~source:3 ~block:(String.make 200 'b')
      ~strong:(List.init 16 (fun s -> (6, s)))
      ~weak:[ (2, 1); (4, 9) ] ()
  in
  ignore (Dagrider.Vertex.encode v);
  let before = Gc.minor_words () in
  let payload = Sys.opaque_identity (Dagrider.Vertex.encode v) in
  let words = Gc.minor_words () -. before in
  let expected = string_words payload + 3 in
  checkb
    (Printf.sprintf "encode: %.0f words = %d" words expected)
    true
    (words = float_of_int expected)

(* ---- Dag store ---- *)

let full_round dag ~n ~round =
  (* add n vertices at [round], each pointing to all of round-1 *)
  let prev =
    List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag (round - 1))
  in
  for source = 0 to n - 1 do
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round;
        source;
        block = Printf.sprintf "b%d.%d" round source;
        strong_edges = prev;
        weak_edges = [] }
  done

let test_dag_genesis () =
  let dag = Dagrider.Dag.create ~n:4 in
  checki "genesis size" 4 (Dagrider.Dag.round_size dag 0);
  checki "round 1 empty" 0 (Dagrider.Dag.round_size dag 1);
  checki "highest" 0 (Dagrider.Dag.highest_round dag);
  checkb "genesis present" true (Dagrider.Dag.contains dag (vref 0 2))

let test_dag_add_and_lookup () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  checki "round 1 full" 4 (Dagrider.Dag.round_size dag 1);
  checki "highest" 1 (Dagrider.Dag.highest_round dag);
  match Dagrider.Dag.find dag (vref 1 2) with
  | Some v -> checks "block" "b1.2" v.Dagrider.Vertex.block
  | None -> Alcotest.fail "vertex missing"

let test_dag_missing_predecessor_rejected () =
  let dag = Dagrider.Dag.create ~n:4 in
  let orphan =
    mkv ~round:2 ~source:0 ~strong:[ (1, 0); (1, 1); (1, 2) ] ()
  in
  checkb "can_add false" false (Dagrider.Dag.can_add dag orphan);
  Alcotest.check_raises "add raises"
    (Invalid_argument "Dag.add: missing predecessor") (fun () ->
      Dagrider.Dag.add dag orphan)

let test_dag_conflicting_vertex_rejected () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  let conflicting =
    mkv ~round:1 ~source:0 ~block:"different"
      ~strong:[ (0, 0); (0, 1); (0, 2); (0, 3) ] ()
  in
  Alcotest.check_raises "equivocation caught"
    (Invalid_argument "Dag.add: conflicting vertex for (round, source)")
    (fun () -> Dagrider.Dag.add dag conflicting)

let test_dag_readd_identical_noop () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  let v = Option.get (Dagrider.Dag.find dag (vref 1 0)) in
  Dagrider.Dag.add dag v;
  checki "still 4" 4 (Dagrider.Dag.round_size dag 1)

let test_dag_strong_path_reflexive_and_transitive () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  full_round dag ~n:4 ~round:3;
  checkb "reflexive" true (Dagrider.Dag.strong_path dag (vref 2 1) (vref 2 1));
  checkb "one hop" true (Dagrider.Dag.strong_path dag (vref 2 1) (vref 1 3));
  checkb "two hops" true (Dagrider.Dag.strong_path dag (vref 3 0) (vref 1 2));
  checkb "no forward path" false (Dagrider.Dag.strong_path dag (vref 1 0) (vref 2 0));
  checkb "absent target" false (Dagrider.Dag.strong_path dag (vref 3 0) (vref 2 9))

let test_dag_weak_edges_only_in_path () =
  let dag = Dagrider.Dag.create ~n:4 in
  (* round 1: only 3 vertices (p3 slow) *)
  let prev = List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag 0) in
  for source = 0 to 2 do
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round = 1; source; block = ""; strong_edges = prev;
        weak_edges = [] }
  done;
  (* round 2: 3 vertices pointing to those *)
  let r1 = List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag 1) in
  for source = 0 to 2 do
    Dagrider.Dag.add dag
      { Dagrider.Vertex.round = 2; source; block = ""; strong_edges = r1;
        weak_edges = [] }
  done;
  (* now p3's round-1 vertex arrives late *)
  Dagrider.Dag.add dag
    { Dagrider.Vertex.round = 1; source = 3; block = "late"; strong_edges = prev;
      weak_edges = [] };
  (* a round-3 vertex weak-links it *)
  let r2 = List.map Dagrider.Vertex.vref_of (Dagrider.Dag.round_vertices dag 2) in
  Dagrider.Dag.add dag
    { Dagrider.Vertex.round = 3; source = 0; block = ""; strong_edges = r2;
      weak_edges = [ vref 1 3 ] };
  checkb "strong_path misses late vertex" false
    (Dagrider.Dag.strong_path dag (vref 3 0) (vref 1 3));
  checkb "path reaches via weak edge" true
    (Dagrider.Dag.path dag (vref 3 0) (vref 1 3))

let test_dag_causal_history_complete_and_sorted () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  full_round dag ~n:4 ~round:3;
  let hist = Dagrider.Dag.causal_history dag (vref 3 1) in
  (* full DAG: history of a round-3 vertex = rounds 1,2 fully + itself *)
  checki "size" 9 (List.length hist);
  let refs = List.map Dagrider.Vertex.vref_of hist in
  checkb "sorted" true (refs = List.sort Dagrider.Vertex.compare_vref refs);
  checkb "excludes genesis" true
    (List.for_all (fun (r : Dagrider.Vertex.vref) -> r.Dagrider.Vertex.round >= 1) refs);
  checkb "includes itself" true (List.mem (vref 3 1) refs)

let test_dag_causal_history_partial () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  (* round 2: vertex from p0 pointing to only 3 of round 1 *)
  Dagrider.Dag.add dag
    { Dagrider.Vertex.round = 2; source = 0; block = "";
      strong_edges = [ vref 1 0; vref 1 1; vref 1 2 ];
      weak_edges = [] };
  let hist = Dagrider.Dag.causal_history dag (vref 2 0) in
  checki "only reachable vertices" 4 (List.length hist);
  checkb "p3's round-1 vertex excluded" true
    (not (List.exists (fun v -> Dagrider.Vertex.vref_of v = vref 1 3) hist))

let test_dag_vertices_listing () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  checki "8 non-genesis" 8 (List.length (Dagrider.Dag.vertices dag))

let test_dag_prune () =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to 6 do
    full_round dag ~n:4 ~round:r
  done;
  Dagrider.Dag.prune_below dag ~round:3;
  checki "round 2 gone" 0 (Dagrider.Dag.round_size dag 2);
  checki "round 3 kept" 4 (Dagrider.Dag.round_size dag 3);
  (* a new vertex whose edges point into pruned rounds can still be
     added (its targets were delivered before pruning) *)
  let v =
    mkv ~round:3 ~source:0 ~strong:[ (2, 0); (2, 1); (2, 2) ] ()
  in
  checkb "edges into pruned rounds satisfied" true (Dagrider.Dag.can_add dag v);
  (* reachability stops at the pruned frontier instead of crashing *)
  checkb "path query safe" false (Dagrider.Dag.path dag (vref 4 0) (vref 1 1))

let test_dag_weak_edge_order () =
  (* round 2's (2,2) and (2,3) and round 1's (1,3) have no path from
     round 3's two vertices: three weak edges, two in one round *)
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  for source = 0 to 3 do
    Dagrider.Dag.add dag
      (mkv ~round:2 ~source ~strong:[ (1, 0); (1, 1); (1, 2) ] ())
  done;
  for source = 0 to 1 do
    Dagrider.Dag.add dag (mkv ~round:3 ~source ~strong:[ (2, 0); (2, 1) ] ())
  done;
  let strong_edges = [ vref 3 0; vref 3 1 ] in
  (* the order is on the wire: increasing round, decreasing source
     within a round, as the per-edge walks emitted it *)
  let expected = [ vref 1 3; vref 2 3; vref 2 2 ] in
  checkb "sweep order" true
    (Dagrider.Dag.weak_edges dag ~round:4 ~strong_edges = expected);
  let reference = Dag_reference.create ~n:4 in
  List.iter (Dag_reference.add reference) (Dagrider.Dag.vertices dag);
  checkb "reference order" true
    (Dag_reference.weak_edges reference ~round:4 ~strong_edges = expected)

let test_dag_store_bounded_under_gc () =
  let n = 4 and depth = 8 in
  let dag = Dagrider.Dag.create ~n in
  for round = 1 to 5000 do
    full_round dag ~n ~round;
    if round > depth then Dagrider.Dag.prune_below dag ~round:(round - depth);
    let retained =
      Dagrider.Dag.highest_round dag - Dagrider.Dag.pruned_below dag + 1
    in
    if Dagrider.Dag.size dag > (depth + 1) * n then
      Alcotest.failf "round %d: %d vertices retained" round
        (Dagrider.Dag.size dag);
    if Dagrider.Dag.window_rounds dag > retained then
      Alcotest.failf "round %d: window of %d rounds, %d retained" round
        (Dagrider.Dag.window_rounds dag) retained
  done;
  checki "window = depth + 1" (depth + 1) (Dagrider.Dag.window_rounds dag)

let test_dag_edges_must_descend () =
  let dag = Dagrider.Dag.create ~n:4 in
  Dagrider.Dag.add dag (mkv ~round:1 ~source:1 ~strong:[ (0, 0) ] ());
  let rejected v =
    match Dagrider.Dag.add dag v with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let sideways = mkv ~round:1 ~source:0 ~strong:[ (1, 1) ] () in
  checkb "same-round edge not addable" false (Dagrider.Dag.can_add dag sideways);
  checkb "add rejects it" true (rejected sideways);
  checkb "out-of-range source rejected" true
    (rejected (mkv ~round:2 ~source:4 ~strong:[ (1, 1) ] ()))

let test_dag_pruned_round_stays_empty () =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to 5 do
    full_round dag ~n:4 ~round:r
  done;
  Dagrider.Dag.prune_below dag ~round:3;
  let size = Dagrider.Dag.size dag in
  (* a straggler for a garbage-collected round is dropped *)
  Dagrider.Dag.add dag (mkv ~round:2 ~source:0 ~strong:[ (1, 0) ] ());
  checkb "not stored" false (Dagrider.Dag.contains dag (vref 2 0));
  checki "size unchanged" size (Dagrider.Dag.size dag);
  checki "horizon" 3 (Dagrider.Dag.pruned_below dag);
  checki "window" 3 (Dagrider.Dag.window_rounds dag)

let prop_dag_path_strong_implies_path =
  QCheck.Test.make ~name:"strong_path implies path" ~count:50
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let n = 4 in
      let dag = Dagrider.Dag.create ~n in
      (* random partial rounds, each vertex points to 3 random vertices
         of the previous round when available *)
      for round = 1 to 5 do
        let prev = Dagrider.Dag.round_vertices dag (round - 1) in
        if List.length prev >= 3 then
          for source = 0 to n - 1 do
            if Stdx.Rng.bool rng || round = 1 then begin
              let prev_arr = Array.of_list prev in
              Stdx.Rng.shuffle rng prev_arr;
              let strong =
                Array.to_list (Array.sub prev_arr 0 3)
                |> List.map Dagrider.Vertex.vref_of
              in
              Dagrider.Dag.add dag
                { Dagrider.Vertex.round; source; block = "";
                  strong_edges = strong; weak_edges = [] }
            end
          done
      done;
      let vs = Dagrider.Dag.vertices dag in
      List.for_all
        (fun v ->
          List.for_all
            (fun u ->
              let a = Dagrider.Vertex.vref_of v in
              let b = Dagrider.Vertex.vref_of u in
              (not (Dagrider.Dag.strong_path dag a b)) || Dagrider.Dag.path dag a b)
            vs)
        vs)

let prop_dag_causal_history_closed =
  QCheck.Test.make ~name:"causal history is edge-closed" ~count:50
    (QCheck.int_range 0 10_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let n = 4 in
      let dag = Dagrider.Dag.create ~n in
      for round = 1 to 4 do
        let prev = Dagrider.Dag.round_vertices dag (round - 1) in
        if List.length prev >= 3 then
          for source = 0 to n - 1 do
            let prev_arr = Array.of_list prev in
            Stdx.Rng.shuffle rng prev_arr;
            let strong =
              Array.to_list (Array.sub prev_arr 0 3)
              |> List.map Dagrider.Vertex.vref_of
            in
            Dagrider.Dag.add dag
              { Dagrider.Vertex.round; source; block = "";
                strong_edges = strong; weak_edges = [] }
          done
      done;
      List.for_all
        (fun v ->
          let hist = Dagrider.Dag.causal_history dag (Dagrider.Vertex.vref_of v) in
          let in_hist (r : Dagrider.Vertex.vref) =
            r.Dagrider.Vertex.round = 0
            || List.exists (fun u -> Dagrider.Vertex.vref_of u = r) hist
          in
          List.for_all
            (fun u ->
              List.for_all in_hist
                (u.Dagrider.Vertex.strong_edges @ u.Dagrider.Vertex.weak_edges))
            hist)
        (Dagrider.Dag.vertices dag))

(* ---- Snapshot ---- *)

let test_snapshot_roundtrip_full () =
  let dag = Dagrider.Dag.create ~n:4 in
  for r = 1 to 6 do
    full_round dag ~n:4 ~round:r
  done;
  match Dagrider.Snapshot.dag_of_string (Dagrider.Snapshot.dag_to_string dag) with
  | Error e -> Alcotest.fail e
  | Ok dag' ->
    checki "same n" 4 (Dagrider.Dag.n dag');
    checkb "same vertex set" true
      (Dagrider.Dag.vertices dag = Dagrider.Dag.vertices dag');
    checkb "reachability preserved" true
      (Dagrider.Dag.strong_path dag' (vref 6 0) (vref 1 3))

let test_snapshot_roundtrip_live_node () =
  (* snapshot a DAG produced by an actual protocol run (weak edges,
     partial rounds and all) *)
  let h = Harness.Runner.build { (Harness.Runner.default_options ~n:4) with seed = 71 } in
  Harness.Runner.run h ~until:40.0;
  let dag = Dagrider.Node.dag (Harness.Runner.node h 0) in
  match Dagrider.Snapshot.dag_of_string (Dagrider.Snapshot.dag_to_string dag) with
  | Error e -> Alcotest.fail e
  | Ok dag' ->
    checkb "identical vertex sets" true
      (Dagrider.Dag.vertices dag = Dagrider.Dag.vertices dag');
    (* causal histories agree on a sample vertex *)
    let some_vertex =
      List.nth (Dagrider.Dag.vertices dag) (List.length (Dagrider.Dag.vertices dag) / 2)
    in
    let r = Dagrider.Vertex.vref_of some_vertex in
    checkb "same causal history" true
      (Dagrider.Dag.causal_history dag r = Dagrider.Dag.causal_history dag' r)

let test_snapshot_detects_corruption () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  let snap = Dagrider.Snapshot.dag_to_string dag in
  (* flip a byte in the middle *)
  let corrupted = Bytes.of_string snap in
  Bytes.set corrupted (String.length snap / 2)
    (Char.chr (Char.code (Bytes.get corrupted (String.length snap / 2)) lxor 1));
  (match Dagrider.Snapshot.dag_of_string (Bytes.to_string corrupted) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption undetected");
  (* truncation *)
  (match Dagrider.Snapshot.dag_of_string (String.sub snap 0 (String.length snap - 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation undetected");
  (* garbage *)
  match Dagrider.Snapshot.dag_of_string "not a snapshot at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_snapshot_delivered_roundtrip () =
  let refs = [ vref 1 0; vref 1 2; vref 2 1; vref 3 3 ] in
  (match
     Dagrider.Snapshot.delivered_of_string
       (Dagrider.Snapshot.delivered_to_string refs)
   with
  | Ok refs' -> checkb "roundtrip" true (refs = refs')
  | Error e -> Alcotest.fail e);
  (match Dagrider.Snapshot.delivered_of_string "junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted");
  match
    Dagrider.Snapshot.delivered_of_string (Dagrider.Snapshot.delivered_to_string [])
  with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty list mangled"
  | Error e -> Alcotest.fail e

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot roundtrips random protocol DAGs" ~count:20
    (QCheck.int_range 0 10_000) (fun seed ->
      let h =
        Harness.Runner.build { (Harness.Runner.default_options ~n:4) with seed }
      in
      Harness.Runner.run h ~until:20.0;
      let dag = Dagrider.Node.dag (Harness.Runner.node h 0) in
      match
        Dagrider.Snapshot.dag_of_string (Dagrider.Snapshot.dag_to_string dag)
      with
      | Ok dag' -> Dagrider.Dag.vertices dag = Dagrider.Dag.vertices dag'
      | Error _ -> false)

(* ---- Render smoke tests ---- *)

let test_render_ascii () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  let out = Dagrider.Render.ascii dag in
  checkb "mentions p0" true (contains out "p0");
  checkb "has vertices" true (contains out "*")

let test_render_dot () =
  let dag = Dagrider.Dag.create ~n:4 in
  full_round dag ~n:4 ~round:1;
  full_round dag ~n:4 ~round:2;
  let out = Dagrider.Render.dot_classified dag in
  checkb "digraph" true (contains out "digraph");
  checkb "edges" true (contains out "->")

let () =
  Alcotest.run "dagrider-core"
    [ ( "vertex-codec",
        [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip_simple;
          Alcotest.test_case "envelope wins" `Quick test_codec_envelope_wins;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "binary block" `Quick test_codec_binary_block;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip ] );
      ( "vertex-validate",
        [ Alcotest.test_case "accepts good" `Quick test_validate_accepts_good;
          Alcotest.test_case "too few strong" `Quick test_validate_rejects_too_few_strong;
          Alcotest.test_case "wrong round strong" `Quick
            test_validate_rejects_wrong_round_strong;
          Alcotest.test_case "weak to r-1" `Quick
            test_validate_rejects_weak_to_previous_round;
          Alcotest.test_case "weak in round 1" `Quick
            test_validate_rejects_weak_in_round_one;
          Alcotest.test_case "round zero" `Quick test_validate_rejects_round_zero;
          Alcotest.test_case "bad source" `Quick test_validate_rejects_bad_source;
          Alcotest.test_case "duplicate edges" `Quick test_validate_rejects_duplicate_edges;
          Alcotest.test_case "error names rule" `Quick
            test_validate_error_messages_name_rule ] );
      ( "vertex-intake",
        [ QCheck_alcotest.to_alcotest prop_validate_matches_reference;
          QCheck_alcotest.to_alcotest prop_decode_matches_reference;
          Alcotest.test_case "allocation" `Quick test_intake_allocation;
          QCheck_alcotest.to_alcotest prop_encode_matches_reference;
          Alcotest.test_case "encode allocation" `Quick test_encode_allocation ] );
      ( "dag",
        [ Alcotest.test_case "genesis" `Quick test_dag_genesis;
          Alcotest.test_case "add and lookup" `Quick test_dag_add_and_lookup;
          Alcotest.test_case "missing predecessor" `Quick
            test_dag_missing_predecessor_rejected;
          Alcotest.test_case "conflicting vertex" `Quick
            test_dag_conflicting_vertex_rejected;
          Alcotest.test_case "re-add identical" `Quick test_dag_readd_identical_noop;
          Alcotest.test_case "strong path semantics" `Quick
            test_dag_strong_path_reflexive_and_transitive;
          Alcotest.test_case "weak edge reachability" `Quick
            test_dag_weak_edges_only_in_path;
          Alcotest.test_case "causal history full" `Quick
            test_dag_causal_history_complete_and_sorted;
          Alcotest.test_case "causal history partial" `Quick
            test_dag_causal_history_partial;
          Alcotest.test_case "vertices listing" `Quick test_dag_vertices_listing;
          Alcotest.test_case "prune" `Quick test_dag_prune;
          Alcotest.test_case "weak edge order" `Quick test_dag_weak_edge_order;
          Alcotest.test_case "store bounded under gc" `Quick
            test_dag_store_bounded_under_gc;
          Alcotest.test_case "edges must descend" `Quick
            test_dag_edges_must_descend;
          Alcotest.test_case "pruned round stays empty" `Quick
            test_dag_pruned_round_stays_empty;
          QCheck_alcotest.to_alcotest prop_dag_path_strong_implies_path;
          QCheck_alcotest.to_alcotest prop_dag_causal_history_closed ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip full" `Quick test_snapshot_roundtrip_full;
          Alcotest.test_case "roundtrip live node" `Quick
            test_snapshot_roundtrip_live_node;
          Alcotest.test_case "detects corruption" `Quick test_snapshot_detects_corruption;
          Alcotest.test_case "delivered roundtrip" `Quick
            test_snapshot_delivered_roundtrip;
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip ] );
      ( "render",
        [ Alcotest.test_case "ascii" `Quick test_render_ascii;
          Alcotest.test_case "dot" `Quick test_render_dot ] )
    ]
