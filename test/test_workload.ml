(* Tests for transaction generation and block (batch) round-tripping. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let test_tx_roundtrip () =
  let tx = { Workload.Txgen.owner = 3; seqno = 17; body = "payload" } in
  (match Workload.Txgen.tx_of_string (Workload.Txgen.tx_to_string tx) with
  | Some tx' -> checkb "roundtrip" true (tx = tx')
  | None -> Alcotest.fail "parse failed");
  checkb "garbage rejected" true (Workload.Txgen.tx_of_string "nope" = None)

let test_gen_sequencing () =
  let g = Workload.Txgen.gen ~owner:2 ~body_bytes:16 in
  let t1 = Workload.Txgen.next_tx g in
  let t2 = Workload.Txgen.next_tx g in
  checki "owner" 2 t1.Workload.Txgen.owner;
  checki "seq 0" 0 t1.Workload.Txgen.seqno;
  checki "seq 1" 1 t2.Workload.Txgen.seqno;
  checki "produced" 2 (Workload.Txgen.produced g)

let test_gen_body_size () =
  let g = Workload.Txgen.gen ~owner:0 ~body_bytes:32 in
  let tx = Workload.Txgen.next_tx g in
  checki "body padded" 32 (String.length tx.Workload.Txgen.body)

let test_block_roundtrip () =
  let g = Workload.Txgen.gen ~owner:1 ~body_bytes:8 in
  let block = Workload.Txgen.make_block g ~count:5 in
  let txs = Workload.Txgen.block_txs block in
  checki "five txs" 5 (List.length txs);
  List.iteri
    (fun i tx ->
      checki "owner" 1 tx.Workload.Txgen.owner;
      checki "seqno" i tx.Workload.Txgen.seqno)
    txs

let test_block_of_txs_inverse () =
  let txs =
    List.init 3 (fun i ->
        { Workload.Txgen.owner = i; seqno = i * 7; body = Printf.sprintf "b%d" i })
  in
  checkb "inverse" true
    (Workload.Txgen.block_txs (Workload.Txgen.block_of_txs txs) = txs)

let test_foreign_block_parses_empty () =
  Alcotest.(check (list bool)) "padding block yields nothing" []
    (List.map (fun _ -> true) (Workload.Txgen.block_txs "xxxxxyyyyy"));
  checki "empty block" 0 (List.length (Workload.Txgen.block_txs ""))

let test_tx_bytes_estimate () =
  let g = Workload.Txgen.gen ~owner:3 ~body_bytes:20 in
  let tx = Workload.Txgen.next_tx g in
  let actual = String.length (Workload.Txgen.tx_to_string tx) in
  let estimate = Workload.Txgen.tx_bytes ~body_bytes:20 in
  checkb
    (Printf.sprintf "estimate %d within 8 of actual %d" estimate actual)
    true
    (abs (estimate - actual) <= 8)

let test_block_through_node_payload () =
  (* blocks survive the vertex codec (binary-safe separators) *)
  let g = Workload.Txgen.gen ~owner:0 ~body_bytes:16 in
  let block = Workload.Txgen.make_block g ~count:4 in
  let v =
    { Dagrider.Vertex.round = 1;
      source = 0;
      block;
      strong_edges =
        [ { Dagrider.Vertex.round = 0; source = 0 };
          { Dagrider.Vertex.round = 0; source = 1 };
          { Dagrider.Vertex.round = 0; source = 2 } ];
      weak_edges = [] }
  in
  match Dagrider.Vertex.decode ~round:1 ~source:0 (Dagrider.Vertex.encode v) with
  | Some v' ->
    checks "block intact" block v'.Dagrider.Vertex.block;
    checki "txs parse" 4 (List.length (Workload.Txgen.block_txs v'.Dagrider.Vertex.block))
  | None -> Alcotest.fail "decode failed"

(* ---- Mempool ---- *)

let mk_tx owner seqno = { Workload.Txgen.owner; seqno; body = "b" }

let test_mempool_submit_dedup () =
  let m = Workload.Mempool.create ~owner:0 () in
  checkb "first accepted" true (Workload.Mempool.submit m (mk_tx 0 1));
  checkb "duplicate dropped" false (Workload.Mempool.submit m (mk_tx 0 1));
  checkb "different seqno ok" true (Workload.Mempool.submit m (mk_tx 0 2));
  checki "pending" 2 (Workload.Mempool.pending m);
  checki "submitted counter" 2 (Workload.Mempool.submitted m)

let test_mempool_assemble_and_retire () =
  let m = Workload.Mempool.create ~owner:0 ~max_batch:2 () in
  List.iter (fun i -> ignore (Workload.Mempool.submit m (mk_tx 0 i))) [ 1; 2; 3 ];
  let block = Workload.Mempool.assemble_block m in
  checki "batch capped" 2 (List.length (Workload.Txgen.block_txs block));
  checki "one left pending" 1 (Workload.Mempool.pending m);
  checki "two in flight" 2 (Workload.Mempool.in_flight m);
  checki "both were ours" 2 (Workload.Mempool.retire_block m block);
  checki "in flight cleared" 0 (Workload.Mempool.in_flight m)

let test_mempool_empty_block () =
  let m = Workload.Mempool.create ~owner:1 () in
  checks "empty pool, empty block" "" (Workload.Mempool.assemble_block m)

let test_mempool_foreign_retirement_drops_queued () =
  (* a client multi-submitted: the tx gets ordered via another process's
     block while still queued here — it must not be proposed again *)
  let m = Workload.Mempool.create ~owner:0 () in
  ignore (Workload.Mempool.submit m (mk_tx 9 5));
  ignore (Workload.Mempool.submit m (mk_tx 0 1));
  let foreign_block = Workload.Txgen.block_of_txs [ mk_tx 9 5 ] in
  checki "not ours" 0 (Workload.Mempool.retire_block m foreign_block);
  let block = Workload.Mempool.assemble_block m in
  let txs = Workload.Txgen.block_txs block in
  checki "only the un-retired tx" 1 (List.length txs);
  checki "the right one" 0 (List.hd txs).Workload.Txgen.owner;
  (* and a late re-submission of the foreign tx is rejected *)
  checkb "re-submission rejected" false (Workload.Mempool.submit m (mk_tx 9 5))

let test_mempool_resubmit_after_retire () =
  (* ordered-and-retired transactions stay remembered: a client retrying
     a tx that already made it into the total order must be rejected,
     not ordered twice *)
  let m = Workload.Mempool.create ~owner:0 () in
  checkb "accepted" true (Workload.Mempool.submit m (mk_tx 0 7));
  let block = Workload.Mempool.assemble_block m in
  checki "retired" 1 (Workload.Mempool.retire_block m block);
  checkb "re-submit after retire rejected" false
    (Workload.Mempool.submit m (mk_tx 0 7));
  checki "nothing pending" 0 (Workload.Mempool.pending m);
  checki "submitted counted once" 1 (Workload.Mempool.submitted m)

let test_mempool_empty_assembly_no_inflight () =
  let m = Workload.Mempool.create ~owner:2 () in
  checks "empty block" "" (Workload.Mempool.assemble_block m);
  checki "no in-flight from empty assembly" 0 (Workload.Mempool.in_flight m);
  (* retiring the empty block is a no-op, not a crash *)
  checki "empty retirement" 0 (Workload.Mempool.retire_block m "")

let test_mempool_foreign_only_block () =
  (* a block of transactions this pool has never seen: nothing counts as
     ours, but the keys are remembered so later local submissions of the
     same transactions are rejected *)
  let m = Workload.Mempool.create ~owner:0 () in
  let foreign = Workload.Txgen.block_of_txs [ mk_tx 5 1; mk_tx 6 2 ] in
  checki "none of it ours" 0 (Workload.Mempool.retire_block m foreign);
  checki "nothing pending" 0 (Workload.Mempool.pending m);
  checki "nothing in flight" 0 (Workload.Mempool.in_flight m);
  checkb "ordered-elsewhere tx rejected locally" false
    (Workload.Mempool.submit m (mk_tx 5 1));
  checkb "ordered-elsewhere tx rejected locally (2)" false
    (Workload.Mempool.submit m (mk_tx 6 2));
  checkb "fresh tx still accepted" true (Workload.Mempool.submit m (mk_tx 0 1))

let test_mempool_backpressure () =
  let m = Workload.Mempool.create ~owner:0 ~max_pending:2 () in
  checkb "1 accepted" true (Workload.Mempool.submit m (mk_tx 0 1));
  checkb "2 accepted" true (Workload.Mempool.submit m (mk_tx 0 2));
  checkb "3 rejected at cap" false (Workload.Mempool.submit m (mk_tx 0 3));
  checki "rejection counted" 1 (Workload.Mempool.rejected m);
  checki "pending holds at cap" 2 (Workload.Mempool.pending m);
  checki "submitted excludes rejected" 2 (Workload.Mempool.submitted m);
  (* a rejected tx was NOT remembered: once the queue drains the client's
     retry succeeds *)
  ignore (Workload.Mempool.assemble_block m);
  checkb "retry after drain accepted" true (Workload.Mempool.submit m (mk_tx 0 3));
  checki "rejected stays at 1" 1 (Workload.Mempool.rejected m);
  (* in-flight transactions do not count against the pending cap *)
  checkb "cap is on the queue, not in-flight" true
    (Workload.Mempool.submit m (mk_tx 0 4))

let test_mempool_end_to_end_with_node () =
  (* drive a real fleet with mempools as block sources; every submitted
     transaction must appear exactly once in the total order *)
  let n = 4 in
  let mempools =
    Array.init n (fun owner -> Workload.Mempool.create ~owner ~max_batch:4 ())
  in
  let opts =
    { (Harness.Runner.default_options ~n) with
      seed = 91;
      on_deliver =
        Some
          (fun ~node ~block ~round:_ ~source:_ ~time:_ ->
            ignore (Workload.Mempool.retire_block mempools.(node) block)) }
  in
  let h = Harness.Runner.build opts in
  (* the runner's default block_source pads blocks; route through the
     mempools instead by submitting explicit blocks via a_bcast *)
  let gens =
    Array.init n (fun owner -> Workload.Txgen.gen ~owner ~body_bytes:8)
  in
  Array.iteri
    (fun i node ->
      for _ = 1 to 3 do
        ignore (Workload.Mempool.submit mempools.(i) (Workload.Txgen.next_tx gens.(i)))
      done;
      Dagrider.Node.a_bcast node (Workload.Mempool.assemble_block mempools.(i)))
    (Harness.Runner.nodes h);
  Harness.Runner.run h ~until:60.0;
  Array.iteri
    (fun i m ->
      checki (Printf.sprintf "p%d in-flight drained" i) 0
        (Workload.Mempool.in_flight m);
      checkb "retired counts the fleet's blocks" true
        (Workload.Mempool.retired m >= 12))
    mempools;
  (* exactly-once: each tx appears once in p0's ordered log *)
  let all_txs =
    List.concat_map
      (fun v -> Workload.Txgen.block_txs v.Dagrider.Vertex.block)
      (Dagrider.Node.delivered_log (Harness.Runner.node h 0))
  in
  let keys = List.map (fun (tx : Workload.Txgen.tx) -> (tx.owner, tx.seqno)) all_txs in
  checki "no duplicates in the order" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  checki "all 12 explicit txs ordered" 12
    (List.length
       (List.filter (fun (tx : Workload.Txgen.tx) -> tx.body = "t" ^ String.sub tx.body 1 (String.length tx.body - 1)) all_txs))

(* ---- differential: Mempool and Txgen against mempool_reference.ml ---- *)

module Ref = Mempool_reference

(* a field as a generator might render it: canonical decimals near the
   range edges, and the non-canonical spellings int_of_string accepts *)
let field_spelling rng =
  let v =
    match Stdx.Rng.int rng 4 with
    | 0 -> Stdx.Rng.int rng 100
    | 1 -> (1 lsl 30) + Stdx.Rng.int_in_range rng ~lo:(-3) ~hi:3
    | 2 -> (1 lsl 32) + Stdx.Rng.int_in_range rng ~lo:(-3) ~hi:3
    | _ -> Stdx.Rng.int_in_range rng ~lo:(-5) ~hi:99_999_999_999
  in
  let d = string_of_int v in
  match Stdx.Rng.int rng 8 with
  | 0 -> "0" ^ d
  | 1 -> "+" ^ d
  | 2 -> Printf.sprintf "0x%x" v
  | 3 when String.length d > 1 -> String.sub d 0 1 ^ "_" ^ String.sub d 1 (String.length d - 1)
  | 4 -> d ^ " "
  | _ -> d

let junk rng =
  let alphabet = "0123456789\x1f\x1e-+x_ab" in
  String.init (Stdx.Rng.int rng 60) (fun _ ->
      alphabet.[Stdx.Rng.int rng (String.length alphabet)])

(* a block of records, each a real transaction, a mangled one or junk *)
let random_block rng =
  let record () =
    match Stdx.Rng.int rng 4 with
    | 0 -> junk rng
    | 1 ->
      Printf.sprintf "%s\x1f%s\x1f%s" (field_spelling rng) (field_spelling rng)
        (junk rng)
    | _ ->
      Workload.Txgen.tx_to_string
        { Workload.Txgen.owner = Stdx.Rng.int rng 4;
          seqno = Stdx.Rng.int rng 30;
          body = "b" }
  in
  String.concat "\x1e" (List.init (Stdx.Rng.int rng 6) (fun _ -> record ()))

let keys_of txs =
  List.map (fun (tx : Workload.Txgen.tx) -> (tx.owner, tx.seqno)) txs

let iter_keys_list block =
  let acc = ref [] in
  Workload.Txgen.iter_keys block (fun o s -> acc := (o, s) :: !acc);
  List.rev !acc

(* Transactions as clients make them, so the per-owner watermarks are
   exercised: each owner mostly runs its seqnos up from a cursor, and
   sometimes skips ahead (a gap), steps back (out of order or a repeat),
   jumps near 2^32 - 1 or picks at random. Three cursors start near the top
   of the seqno range, so their runs reach 2^32 - 1. *)
let tx_source rng =
  let owners = [| 0; 1; 2; 3; 4; 5; (1 lsl 30) - 1 |] in
  let top = (1 lsl 32) - 1 in
  let cursor = Array.map (fun o -> if o >= 4 then top - 6 else 0) owners in
  fun () ->
    let i = Stdx.Rng.int rng (Array.length owners) in
    let c = cursor.(i) in
    let seqno =
      match Stdx.Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 ->
        cursor.(i) <- min top (c + 1);
        c
      | 5 ->
        let s = min top (c + Stdx.Rng.int_in_range rng ~lo:1 ~hi:4) in
        cursor.(i) <- min top (s + 1);
        s
      | 6 | 7 -> max 0 (c - Stdx.Rng.int_in_range rng ~lo:1 ~hi:5)
      | 8 -> top - Stdx.Rng.int rng 3
      | _ -> Stdx.Rng.int rng 40
    in
    { Workload.Txgen.owner = owners.(i); seqno; body = "b" }

(* random submit / assemble / retire sequences on both pools: duplicate
   submits, several owners, out-of-order and skipped seqnos, seqnos up to
   2^32 - 1, a max_pending cap, and retirement of assembled blocks,
   blocks of transactions not yet submitted (so retirement comes first),
   and mangled and junk blocks. Every block assembled, every return value
   and every counter must be equal after each step. *)
let prop_mempool_differential =
  QCheck.Test.make ~name:"mempool = reference" ~count:300
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let max_batch = Stdx.Rng.int_in_range rng ~lo:1 ~hi:8 in
      let max_pending =
        if Stdx.Rng.bool rng then None
        else Some (Stdx.Rng.int_in_range rng ~lo:1 ~hi:10)
      in
      let m = Workload.Mempool.create ~max_batch ?max_pending ~owner:0 () in
      let r = Ref.create ~max_batch ?max_pending () in
      let next_tx = tx_source rng in
      let assembled = ref [ "" ] in
      let fail fmt = Printf.ksprintf failwith fmt in
      for step = 1 to 120 do
        (match Stdx.Rng.int rng 5 with
        | 0 | 1 ->
          let tx = next_tx () in
          if Workload.Mempool.submit m tx <> Ref.submit r tx then
            fail "step %d: submit differs" step
        | 2 ->
          let a = Workload.Mempool.assemble_block m and b = Ref.assemble_block r in
          if a <> b then fail "step %d: blocks differ: %S vs %S" step a b;
          assembled := a :: !assembled
        | _ ->
          let block =
            match Stdx.Rng.int rng 3 with
            | 0 -> Stdx.Rng.choose rng (Array.of_list !assembled)
            | 1 ->
              Workload.Txgen.block_of_txs
                (List.init (Stdx.Rng.int_in_range rng ~lo:1 ~hi:6) (fun _ ->
                     next_tx ()))
            | _ -> random_block rng
          in
          if Workload.Mempool.retire_block m block <> Ref.retire_block r block
          then fail "step %d: retire_block differs on %S" step block);
        let counters_m =
          Workload.Mempool.
            [ pending m; in_flight m; submitted m; retired m; rejected m ]
        and counters_r =
          Ref.[ pending r; in_flight r; submitted r; retired r; rejected r ]
        in
        if counters_m <> counters_r then fail "step %d: counters differ" step
      done;
      true)

(* iter_keys visits exactly the keys of block_txs, in order, and both
   parse a block as the reference parser does *)
let prop_iter_keys_is_block_txs =
  QCheck.Test.make ~name:"iter_keys = keys of block_txs = reference" ~count:1000
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let block = if Stdx.Rng.bool rng then random_block rng else junk rng in
      let txs = Workload.Txgen.block_txs block in
      iter_keys_list block = keys_of txs && txs = Ref.block_txs block)

(* ---- writers = the Printf / String.concat renderings they replaced ---- *)

module Txref = Txgen_reference

(* any int: the digit-count boundaries, the key limits, negatives and
   random values *)
let gen_any_int =
  QCheck.Gen.(
    frequency
      [ ( 2,
          oneofl
            [ 0; 9; 10; 99; 100; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 32) - 1;
              1 lsl 32; -1; -9; -10; min_int; min_int + 1; max_int ] );
        (1, int);
        (2, int_range (-1000) 100_000) ])

(* bodies shorter and longer than a tag, separators included *)
let gen_body =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 'z'; '0'; '.'; '\x1f'; '\x1e'; '\000' ])
      (int_range 0 40))

let gen_tx =
  QCheck.Gen.(
    map3
      (fun owner seqno body -> { Workload.Txgen.owner; seqno; body })
      gen_any_int gen_any_int gen_body)

let print_txs txs = String.concat "; " (List.map Txref.tx_to_string txs)

let prop_tx_to_string_reference =
  QCheck.Test.make ~name:"tx_to_string = Printf form" ~count:2000
    (QCheck.make ~print:(fun tx -> Txref.tx_to_string tx) gen_tx)
    (fun tx ->
      String.equal (Workload.Txgen.tx_to_string tx) (Txref.tx_to_string tx))

(* a generator's first transactions, across the 9/10 and 99/100 digit
   steps, for any owner and a body size below, at or above the tag's *)
let prop_next_tx_reference =
  QCheck.Test.make ~name:"next_tx = Printf form" ~count:300
    QCheck.(
      make
        ~print:(fun (owner, body_bytes, count) ->
          Printf.sprintf "owner=%d body_bytes=%d count=%d" owner body_bytes count)
        Gen.(
          triple gen_any_int (int_range (-1) 48) (int_range 1 130)))
    (fun (owner, body_bytes, count) ->
      let g = Workload.Txgen.gen ~owner ~body_bytes in
      List.for_all
        (fun seqno ->
          Workload.Txgen.next_tx g = Txref.nth_tx ~owner ~body_bytes seqno)
        (List.init count Fun.id))

let prop_block_of_txs_reference =
  QCheck.Test.make ~name:"block_of_txs = String.concat form" ~count:1000
    (QCheck.make ~print:print_txs
       QCheck.Gen.(
         let* count = frequencyl [ (1, 0); (2, 1); (4, 5); (2, 40) ] in
         list_repeat count gen_tx))
    (fun txs ->
      let expected = Txref.block_of_txs txs in
      let array = Array.of_list txs in
      String.equal (Workload.Txgen.block_of_txs txs) expected
      && String.equal
           (Workload.Txgen.block_of_array
              (Array.append array array)
              ~count:(Array.length array))
           expected)

let prop_synthetic_block_reference =
  QCheck.Test.make ~name:"synthetic_block = Printf form" ~count:2000
    QCheck.(
      make
        ~print:(fun (me, round, block_bytes) ->
          Printf.sprintf "me=%d round=%d block_bytes=%d" me round block_bytes)
        Gen.(triple gen_any_int gen_any_int (int_range (-1) 80)))
    (fun (me, round, block_bytes) ->
      String.equal
        (Harness.Runner.synthetic_block ~block_bytes ~me ~round)
        (Txref.synthetic_block ~block_bytes ~me ~round))

(* malformed blocks: stray and doubled separators, leading zeros,
   signs, 11-digit and out-of-range fields, missing and extra fields,
   and 19-digit fields whose value wraps a 63-bit int to 7 *)
let test_iter_keys_malformed () =
  let good = "7\x1f12\x1fbody" in
  let blocks =
    [ ""; "\x1e"; "\x1e\x1e"; "\x1f"; "\x1f\x1f"; good; good ^ "\x1e";
      "\x1e" ^ good; good ^ "\x1e\x1e" ^ good; "07\x1f12\x1fb";
      "7\x1f012\x1fb"; "0\x1f0\x1f"; "00\x1f0\x1fb"; "-1\x1f2\x1fb";
      "+1\x1f2\x1fb"; "12345678901\x1f1\x1fb"; "1\x1f12345678901\x1fb";
      "1073741823\x1f4294967295\x1fb"; "1073741824\x1f1\x1fb";
      "1\x1f4294967296\x1fb"; "9999999999\x1f1\x1fb"; "1\x1f2";
      "1\x1f2\x1f"; "\x1f2\x1fb"; "1\x1f\x1fb"; "1\x1f2\x1fb\x1fc";
      "1\x1f2\x1fb\x1e3\x1f4\x1f\x1f"; "1 \x1f2\x1fb"; "1\x1f2\x1fa\x1e\x1f";
      "1\x1f2\x1fa\x1e" ^ String.make 30 '9' ^ "\x1f1\x1fb\x1e5\x1f6\x1fc";
      "9223372036854775815\x1f1\x1fb"; "1\x1f9223372036854775815\x1fb" ]
  in
  List.iter
    (fun block ->
      let txs = Workload.Txgen.block_txs block in
      checkb (Printf.sprintf "block_txs %S = reference" block) true
        (txs = Ref.block_txs block);
      checkb (Printf.sprintf "iter_keys %S = keys of block_txs" block) true
        (iter_keys_list block = keys_of txs))
    blocks

(* the words [Bytes.create] takes for a string of [s]'s length: a
   header and the bytes padded to a word *)
let string_words s = 1 + (String.length s / (Sys.word_size / 8)) + 1

(* minor-heap words [f ()] allocates, after a warm-up call *)
let words_of f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* each writer allocates its result and nothing else; the blocks stay
   below the largest block the minor heap takes (256 words) *)
let test_writer_allocation () =
  let g = Workload.Txgen.gen ~owner:5 ~body_bytes:32 in
  let txs = List.init 40 (fun _ -> Workload.Txgen.next_tx g) in
  let array = Array.of_list txs in
  let tx = List.hd txs in
  let check ?(slack = 0) name f expected_of =
    let result = f () in
    let words = words_of f in
    let expected = expected_of result in
    checkb
      (Printf.sprintf "%s: %.0f words = %d (+ %d)" name words expected slack)
      true
      (words >= float_of_int expected
      && words <= float_of_int (expected + slack))
  in
  check "tx_to_string" (fun () -> Workload.Txgen.tx_to_string tx) string_words;
  (* and the array of the list it writes from, which [Array.of_list]
     may build with a closure of its own *)
  check ~slack:8 "block_of_txs"
    (fun () -> Workload.Txgen.block_of_txs txs)
    (fun block -> string_words block + 1 + List.length txs);
  check "block_of_array"
    (fun () -> Workload.Txgen.block_of_array array ~count:40)
    string_words;
  check "synthetic_block"
    (fun () -> Harness.Runner.synthetic_block ~block_bytes:64 ~me:3 ~round:120)
    string_words;
  (* the record and its body *)
  check "next_tx" (fun () -> Workload.Txgen.next_tx g) (fun (tx : Workload.Txgen.tx) ->
      4 + string_words tx.body)

(* [iter_keys] allocates nothing per record: a 40-transaction block
   costs what a one-transaction block does *)
let test_iter_keys_allocation () =
  let g = Workload.Txgen.gen ~owner:5 ~body_bytes:32 in
  let one = Workload.Txgen.make_block g ~count:1 in
  let forty = Workload.Txgen.make_block g ~count:40 in
  let seen = ref 0 in
  let count _ _ = incr seen in
  let words block = words_of (fun () -> Workload.Txgen.iter_keys block count) in
  let w1 = words one and w40 = words forty in
  checkb (Printf.sprintf "40 records: %.0f words = 1 record: %.0f" w40 w1) true
    (w40 = w1);
  checkb (Printf.sprintf "%.0f words <= 8" w1) true (w1 <= 8.0)

(* tx_of_string accepts a field exactly when string_of_int prints it
   and it is in range: owner < 2^30, seqno < 2^32 *)
let test_tx_of_string_canonical () =
  let renders v limit = v >= 0 && v < limit in
  let accepts_owner f =
    Workload.Txgen.tx_of_string (f ^ "\x1f7\x1fbody") <> None
  and accepts_seqno f =
    Workload.Txgen.tx_of_string ("7\x1f" ^ f ^ "\x1fbody") <> None
  in
  let canonical f limit =
    match int_of_string_opt f with
    | Some v -> string_of_int v = f && renders v limit
    | None -> false
  in
  let edges =
    [ "0"; "00"; "-0"; "-1"; "+1"; "0x1"; "0b1"; "0o1"; "0u1"; "1_0"; " 1";
      "1 "; ""; "7"; "10"; "1073741823"; "1073741824"; "4294967295";
      "4294967296"; "99999999999"; "4611686018427387903"; "01073741823" ]
  in
  let rng = Stdx.Rng.create 3 in
  let random = List.init 2000 (fun _ -> field_spelling rng) in
  List.iter
    (fun f ->
      checkb (Printf.sprintf "owner %S" f) (canonical f (1 lsl 30)) (accepts_owner f);
      checkb (Printf.sprintf "seqno %S" f) (canonical f (1 lsl 32)) (accepts_seqno f))
    (edges @ random);
  checkb "body may hold any byte but the separators" true
    (Workload.Txgen.tx_of_string "1\x1f2\x1f-+0x\x00" <> None);
  checkb "a third field separator is rejected" true
    (Workload.Txgen.tx_of_string "1\x1f2\x1fa\x1fb" = None)

let test_mempool_key_range () =
  Alcotest.check_raises "an owner past 2^30 has no key"
    (Invalid_argument "Txgen.key: owner or seqno out of range") (fun () ->
      ignore
        (Workload.Mempool.submit
           (Workload.Mempool.create ~owner:0 ())
           { Workload.Txgen.owner = 1 lsl 30; seqno = 0; body = "" }))

let () =
  Alcotest.run "workload"
    [ ( "txgen",
        [ Alcotest.test_case "tx roundtrip" `Quick test_tx_roundtrip;
          Alcotest.test_case "sequencing" `Quick test_gen_sequencing;
          Alcotest.test_case "body size" `Quick test_gen_body_size;
          Alcotest.test_case "block roundtrip" `Quick test_block_roundtrip;
          Alcotest.test_case "block_of_txs inverse" `Quick test_block_of_txs_inverse;
          Alcotest.test_case "foreign block" `Quick test_foreign_block_parses_empty;
          Alcotest.test_case "tx bytes estimate" `Quick test_tx_bytes_estimate;
          Alcotest.test_case "block through codec" `Quick
            test_block_through_node_payload;
          Alcotest.test_case "tx_of_string accepts canonical fields" `Quick
            test_tx_of_string_canonical;
          QCheck_alcotest.to_alcotest prop_iter_keys_is_block_txs;
          QCheck_alcotest.to_alcotest prop_tx_to_string_reference;
          QCheck_alcotest.to_alcotest prop_next_tx_reference;
          QCheck_alcotest.to_alcotest prop_block_of_txs_reference;
          QCheck_alcotest.to_alcotest prop_synthetic_block_reference;
          Alcotest.test_case "iter_keys on malformed blocks" `Quick
            test_iter_keys_malformed;
          Alcotest.test_case "writers allocate their result" `Quick
            test_writer_allocation;
          Alcotest.test_case "iter_keys allocates nothing per record" `Quick
            test_iter_keys_allocation ] );
      ( "mempool",
        [ Alcotest.test_case "submit dedup" `Quick test_mempool_submit_dedup;
          Alcotest.test_case "assemble and retire" `Quick
            test_mempool_assemble_and_retire;
          Alcotest.test_case "empty block" `Quick test_mempool_empty_block;
          Alcotest.test_case "foreign retirement" `Quick
            test_mempool_foreign_retirement_drops_queued;
          Alcotest.test_case "re-submit after retire" `Quick
            test_mempool_resubmit_after_retire;
          Alcotest.test_case "empty assembly leaves no in-flight" `Quick
            test_mempool_empty_assembly_no_inflight;
          Alcotest.test_case "foreign-only block" `Quick
            test_mempool_foreign_only_block;
          Alcotest.test_case "backpressure cap" `Quick
            test_mempool_backpressure;
          Alcotest.test_case "end to end with fleet" `Quick
            test_mempool_end_to_end_with_node;
          Alcotest.test_case "key range" `Quick test_mempool_key_range;
          QCheck_alcotest.to_alcotest prop_mempool_differential ] )
    ]
