(* Unit and property tests for the stdx utility library. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Stdx.Rng.create 123 and b = Stdx.Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Stdx.Rng.next a) (Stdx.Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Stdx.Rng.create 1 and b = Stdx.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Stdx.Rng.next a <> Stdx.Rng.next b then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_rng_split_independence () =
  let parent = Stdx.Rng.create 7 in
  let child = Stdx.Rng.split parent in
  (* child must not mirror the parent stream *)
  let same = ref 0 in
  for _ = 1 to 50 do
    if Stdx.Rng.next parent = Stdx.Rng.next child then incr same
  done;
  checkb "streams diverge" true (!same < 5)

let test_rng_split_deterministic () =
  let mk () =
    let p = Stdx.Rng.create 99 in
    let c = Stdx.Rng.split p in
    (Stdx.Rng.next p, Stdx.Rng.next c)
  in
  let p1, c1 = mk () and p2, c2 = mk () in
  check Alcotest.int64 "parent replay" p1 p2;
  check Alcotest.int64 "child replay" c1 c2

(* The first 1000 [int], [float] and [split] draws of three seeds,
   printed exactly and hashed. The digests were taken from the boxed
   [int64]-state implementation, so any change to the stream — not just
   to its statistics — fails here. *)
let rng_stream seed =
  let rng = Stdx.Rng.create seed in
  let buf = Buffer.create 65536 in
  for _ = 1 to 1000 do
    Printf.bprintf buf "%d %d " (Stdx.Rng.int rng 1_000_003)
      (Stdx.Rng.int rng max_int)
  done;
  for _ = 1 to 1000 do
    Printf.bprintf buf "%h " (Stdx.Rng.float rng 1.0)
  done;
  for _ = 1 to 1000 do
    let child = Stdx.Rng.split rng in
    Printf.bprintf buf "%Ld %d " (Stdx.Rng.next child) (Stdx.Rng.int child 97)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_rng_streams_pinned () =
  List.iter
    (fun (seed, digest) ->
      check Alcotest.string (Printf.sprintf "seed %d" seed) digest
        (rng_stream seed))
    [ (0, "0d5852d129d4ea3c22310766d8377554");
      (42, "26c9d4f167063edf3e7eff909313fd49");
      (-7, "2527175dd2b752ad7912c70bc83e2a64") ]

let test_rng_int_bounds () =
  let rng = Stdx.Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Stdx.Rng.int rng 7 in
    checkb "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Stdx.Rng.int rng 0))

let test_rng_int_coverage () =
  let rng = Stdx.Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Stdx.Rng.int rng 5) <- true
  done;
  checkb "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_in_range () =
  let rng = Stdx.Rng.create 3 in
  for _ = 1 to 200 do
    let v = Stdx.Rng.int_in_range rng ~lo:(-3) ~hi:3 in
    checkb "range" true (v >= -3 && v <= 3)
  done;
  checki "degenerate range" 9 (Stdx.Rng.int_in_range rng ~lo:9 ~hi:9)

let test_rng_float_bounds () =
  let rng = Stdx.Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Stdx.Rng.float rng 2.5 in
    checkb "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bool_balance () =
  let rng = Stdx.Rng.create 29 in
  let trues = ref 0 in
  for _ = 1 to 2000 do
    if Stdx.Rng.bool rng then incr trues
  done;
  checkb "roughly balanced" true (!trues > 800 && !trues < 1200)

let test_rng_shuffle_permutation () =
  let rng = Stdx.Rng.create 31 in
  let a = Array.init 20 Fun.id in
  Stdx.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 20 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Stdx.Rng.create 37 in
  let s = Stdx.Rng.sample_without_replacement rng ~k:5 ~n:10 in
  checki "size" 5 (List.length s);
  checki "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> checkb "range" true (v >= 0 && v < 10)) s;
  let all = Stdx.Rng.sample_without_replacement rng ~k:10 ~n:10 in
  checki "full sample" 10 (List.length (List.sort_uniq compare all))

let test_rng_exponential_positive () =
  let rng = Stdx.Rng.create 41 in
  let sum = ref 0.0 in
  for _ = 1 to 2000 do
    let v = Stdx.Rng.exponential rng ~mean:2.0 in
    checkb "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. 2000.0 in
  checkb "mean near 2.0" true (mean > 1.7 && mean < 2.3)

let test_rng_geometric () =
  let rng = Stdx.Rng.create 43 in
  let sum = ref 0 in
  for _ = 1 to 2000 do
    let v = Stdx.Rng.geometric rng ~p:0.5 in
    checkb ">= 1" true (v >= 1);
    sum := !sum + v
  done;
  let mean = float_of_int !sum /. 2000.0 in
  checkb "mean near 2" true (mean > 1.8 && mean < 2.2)

(* ---- Pqueue ---- *)

module Q = Stdx.Pqueue

let make_queue () = Q.create ~dummy:""

let test_pqueue_basic_order () =
  let q = make_queue () in
  Q.push q ~priority:3.0 ~seq:1 ~arg:0 "c";
  Q.push q ~priority:1.0 ~seq:2 ~arg:0 "a";
  Q.push q ~priority:2.0 ~seq:3 ~arg:0 "b";
  check Alcotest.string "first" "a" (Q.take q);
  check Alcotest.string "second" "b" (Q.take q);
  check Alcotest.string "third" "c" (Q.take q);
  checkb "empty" true (Q.is_empty q);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Pqueue.take: empty queue") (fun () ->
      ignore (Q.take q))

let test_pqueue_fifo_ties () =
  let q = Q.create ~dummy:0 in
  for i = 1 to 10 do
    Q.push q ~priority:1.0 ~seq:i ~arg:(-i) i
  done;
  for i = 1 to 10 do
    checki "arg travels with its value" (-i) (Q.min_arg q);
    checki "tie broken by seq" i (Q.take q)
  done

(* the minimum-priority read is the engine's peek *)
let test_pqueue_peek () =
  let q = make_queue () in
  Alcotest.check_raises "peek empty"
    (Invalid_argument "Pqueue.min_priority: empty queue") (fun () ->
      ignore (Q.min_priority q));
  Q.push q ~priority:5.0 ~seq:1 ~arg:7 "x";
  check Alcotest.(float 0.0) "peek priority" 5.0 (Q.min_priority q);
  checki "peek arg" 7 (Q.min_arg q);
  checki "peek does not remove" 1 (Q.length q);
  check Alcotest.string "value" "x" (Q.take q)

let test_pqueue_clear () =
  let q = Q.create ~dummy:0 in
  for i = 1 to 5 do
    Q.push q ~priority:(float_of_int i) ~seq:i ~arg:0 i
  done;
  Q.clear q;
  checkb "cleared" true (Q.is_empty q);
  Q.push q ~priority:9.0 ~seq:6 ~arg:0 6;
  checki "usable after clear" 6 (Q.take q)

let test_pqueue_interleaved () =
  let q = Q.create ~dummy:0 in
  Q.push q ~priority:2.0 ~seq:1 ~arg:0 2;
  Q.push q ~priority:1.0 ~seq:2 ~arg:0 1;
  checki "min first" 1 (Q.take q);
  Q.push q ~priority:0.5 ~seq:3 ~arg:0 0;
  checki "new min" 0 (Q.take q);
  checki "last" 2 (Q.take q)

(* take every entry as (priority, arg, value) *)
let drain q =
  let rec loop acc =
    if Q.is_empty q then List.rev acc
    else begin
      let p = Q.min_priority q and a = Q.min_arg q in
      let v = Q.take q in
      loop ((p, a, v) :: acc)
    end
  in
  loop []

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted (priority, seq) order"
    ~count:200
    QCheck.(list (pair (float_bound_inclusive 100.0) small_nat))
    (fun items ->
      let q = Q.create ~dummy:0 in
      (* [arg] carries the seq, so the drained order is checkable *)
      List.iteri (fun i (p, v) -> Q.push q ~priority:p ~seq:i ~arg:i v) items;
      let popped = List.map (fun (p, seq, _) -> (p, seq)) (drain q) in
      List.length popped = List.length items
      && popped = List.sort compare popped)

let prop_pqueue_stable =
  QCheck.Test.make
    ~name:"pqueue is FIFO-stable for equal priorities" ~count:200
    QCheck.(list small_nat)
    (fun values ->
      (* every push shares one priority, so take order must be exactly
         insertion order — the seq tiebreak at work *)
      let q = Q.create ~dummy:0 in
      List.iteri (fun i v -> Q.push q ~priority:1.0 ~seq:i ~arg:0 v) values;
      List.map (fun (_, _, v) -> v) (drain q) = values)

(* Differential checks against the boxed heap the engine used to run
   on (test/pqueue_reference.ml). Both queues get the same operations;
   every take must return the same entry. Priorities come from a few
   values so that ties are common; the reference keeps [(value, arg)]
   as its value. *)
type op = Push of int | Take | Clear

let run_both ops =
  let q = Q.create ~dummy:(-1) and r = Pqueue_reference.create () in
  let seq = ref 0 in
  List.for_all
    (function
      | Push p ->
        incr seq;
        let priority = float_of_int p /. 4.0 in
        Q.push q ~priority ~seq:!seq ~arg:(!seq * 3) (!seq * 7);
        Pqueue_reference.push r ~priority ~seq:!seq (!seq * 7, !seq * 3);
        Q.length q = Pqueue_reference.length r
      | Take -> (
        match Pqueue_reference.pop r with
        | None -> Q.is_empty q
        | Some (p, _, (v, a)) ->
          let p' = Q.min_priority q and a' = Q.min_arg q in
          let v' = Q.take q in
          p = p' && a = a' && v = v')
      | Clear ->
        Q.clear q;
        Pqueue_reference.clear r;
        Q.is_empty q)
    ops
  &&
  let rec rest acc =
    match Pqueue_reference.pop r with
    | Some (p, _, (v, a)) -> rest ((p, a, v) :: acc)
    | None -> List.rev acc
  in
  drain q = rest []

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 600)
      (frequency
         [ (6, map (fun p -> Push p) (int_range 0 12));
           (4, return Take);
           (1, map (fun _ -> Clear) (int_range 0 0)) ]))

let print_op = function
  | Push p -> Printf.sprintf "push %d" p
  | Take -> "take"
  | Clear -> "clear"

let prop_pqueue_matches_reference =
  QCheck.Test.make ~name:"pqueue matches reference heap: push, take, clear"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_op) gen_ops)
    run_both

(* Populations far past the small differential's: fill to up to 5,000
   entries, churn, clear with entries still queued, then fill and churn
   again. After the clear every push must hand out a slot that no queued
   entry holds, whatever order the takes before it freed slots in. *)
let gen_big_ops =
  QCheck.Gen.(
    let push = map (fun p -> Push p) (int_range 0 12) in
    let fill = int_range 0 5000 >>= fun k -> list_repeat k push in
    let churn =
      list_size (int_range 0 2000) (frequency [ (1, push); (1, return Take) ])
    in
    map List.concat (flatten_l [ fill; churn; return [ Clear ]; fill; churn ]))

(* run-length summary: "push x4000, take x3, ..." *)
let print_big_ops ops =
  let rec runs acc = function
    | [] -> List.rev acc
    | op :: rest -> (
      let name = match op with Push _ -> "push" | Take -> "take" | Clear -> "clear" in
      match acc with
      | (n, k) :: acc' when n = name -> runs ((n, k + 1) :: acc') rest
      | _ -> runs ((name, 1) :: acc) rest)
  in
  String.concat ", "
    (List.map (fun (n, k) -> Printf.sprintf "%s x%d" n k) (runs [] ops))

let prop_pqueue_matches_reference_large =
  QCheck.Test.make
    ~name:"pqueue matches reference heap at populations up to 5000, clear \
           in the middle"
    ~count:25
    (QCheck.make ~print:print_big_ops gen_big_ops)
    run_both

(* fill past each capacity the arrays double through (16, 32, ... 1024),
   then interleave takes and pushes while draining *)
let test_pqueue_growth_matches_reference () =
  let rng = Stdx.Rng.create 5 in
  List.iter
    (fun cap ->
      let fill = List.init (cap + 1) (fun _ -> Push (Stdx.Rng.int rng 12)) in
      let churn =
        List.init (2 * cap) (fun i ->
            if i mod 3 = 0 then Push (Stdx.Rng.int rng 12) else Take)
      in
      checkb (Printf.sprintf "past %d" cap) true (run_both (fill @ churn)))
    [ 16; 32; 64; 128; 256; 512; 1024 ]

(* a taken value is not kept alive by the slot it vacated *)
let test_pqueue_take_releases_value () =
  let q = Q.create ~dummy:(ref 0) in
  let weak = Weak.create 1 in
  let fill () =
    for i = 1 to 3 do
      let v = ref i in
      if i = 3 then Weak.set weak 0 (Some v);
      Q.push q ~priority:(float_of_int i) ~seq:i ~arg:0 v
    done;
    ignore (Q.take q);
    ignore (Q.take q);
    ignore (Q.take q)
  in
  fill ();
  Gc.full_major ();
  checkb "taken value collected" true (Weak.get weak 0 = None);
  (* the queue itself stayed reachable throughout *)
  checkb "queue drained" true (Q.is_empty q)

(* Words allocated per push+take at a steady population of 2,048, once
   the rows have grown to it. Like test_sim_net's send path allocation,
   the bound of 0 holds for the default (release) build only. *)
let test_pqueue_steady_state_allocation () =
  let f (_ : int) = () in
  let q = Q.create ~dummy:ignore in
  let pop = 2048 in
  for i = 1 to pop do
    Q.push q ~priority:(float_of_int (i * 7919 mod pop)) ~seq:i ~arg:i f
  done;
  let seq = ref pop in
  let churn k =
    for _ = 1 to k do
      let p = Q.min_priority q and a = Q.min_arg q in
      let g = Q.take q in
      incr seq;
      Q.push q ~priority:(p +. float_of_int ((a * 7919) land 1023)) ~seq:!seq
        ~arg:!seq g
    done
  in
  churn pop;
  let rounds = 100_000 in
  let before = Gc.minor_words () in
  churn rounds;
  let words = (Gc.minor_words () -. before) /. float_of_int rounds in
  checki "population held" pop (Q.length q);
  checkb (Printf.sprintf "%.3f words per push+take = 0" words) true
    (words = 0.0)

let prop_rng_same_seed_same_stream =
  QCheck.Test.make ~name:"rng: same seed yields same stream" ~count:100
    QCheck.(pair small_nat (int_bound 50))
    (fun (seed, len) ->
      let draw () =
        let rng = Stdx.Rng.create seed in
        List.init (len + 1) (fun _ -> Stdx.Rng.next rng)
      in
      draw () = draw ())

(* ---- Stats ---- *)

let test_stats_empty () =
  let s = Stdx.Stats.create () in
  checki "count" 0 (Stdx.Stats.count s);
  check Alcotest.(float 0.0) "mean" 0.0 (Stdx.Stats.mean s);
  check Alcotest.(float 0.0) "percentile" 0.0 (Stdx.Stats.percentile s 50.0)

let test_stats_mean_stddev () =
  let s = Stdx.Stats.create () in
  List.iter (Stdx.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.(float 1e-9) "mean" 5.0 (Stdx.Stats.mean s);
  check Alcotest.(float 1e-6) "stddev" 2.13809 (Stdx.Stats.stddev s)

let test_stats_minmax () =
  let s = Stdx.Stats.create () in
  List.iter (Stdx.Stats.add s) [ 3.0; -1.0; 7.0 ];
  check Alcotest.(float 0.0) "min" (-1.0) (Stdx.Stats.min_value s);
  check Alcotest.(float 0.0) "max" 7.0 (Stdx.Stats.max_value s)

let test_stats_percentiles () =
  let s = Stdx.Stats.create () in
  for i = 1 to 100 do
    Stdx.Stats.add s (float_of_int i)
  done;
  check Alcotest.(float 0.0) "p50" 50.0 (Stdx.Stats.percentile s 50.0);
  check Alcotest.(float 0.0) "p99" 99.0 (Stdx.Stats.percentile s 99.0);
  check Alcotest.(float 0.0) "p100" 100.0 (Stdx.Stats.percentile s 100.0);
  check Alcotest.(float 0.0) "p1" 1.0 (Stdx.Stats.percentile s 1.0)

let test_stats_linear_fit () =
  (* y = 3 + 2x exactly *)
  let pts = List.map (fun x -> (float_of_int x, 3.0 +. (2.0 *. float_of_int x))) [ 0; 1; 2; 5; 9 ] in
  let a, b = Stdx.Stats.linear_fit pts in
  check Alcotest.(float 1e-9) "intercept" 3.0 a;
  check Alcotest.(float 1e-9) "slope" 2.0 b

let test_stats_growth_exponent () =
  (* y = 4 x^2: log-log slope 2 *)
  let pts =
    List.map (fun x -> (float_of_int x, 4.0 *. float_of_int (x * x))) [ 1; 2; 4; 8; 16 ]
  in
  check Alcotest.(float 1e-9) "exponent" 2.0 (Stdx.Stats.growth_exponent pts)

let test_stats_growth_exponent_drops_nonpositive () =
  let pts = [ (0.0, 1.0); (1.0, 2.0); (2.0, 4.0); (4.0, 8.0) ] in
  (* the (0, 1) point must be dropped, leaving slope 1 on log-log *)
  check Alcotest.(float 1e-9) "exponent" 1.0 (Stdx.Stats.growth_exponent pts)

let test_stats_percentile_caching_not_quadratic () =
  (* the sorted snapshot is cached between adds: 1000 summaries over
     1e5 points must cost ~one sort, not one sort per call (which
     would take minutes) *)
  let s = Stdx.Stats.create () in
  let rng = Stdx.Rng.create 77 in
  for _ = 1 to 100_000 do
    Stdx.Stats.add s (Stdx.Rng.float rng 1000.0)
  done;
  let t0 = Sys.time () in
  for _ = 1 to 1000 do
    ignore (Stdx.Stats.summary s)
  done;
  let dt = Sys.time () -. t0 in
  checkb
    (Printf.sprintf "1000 summaries on 1e5 points in %.2fs cpu (< 5s)" dt)
    true (dt < 5.0)

let test_stats_summary_digest () =
  let s = Stdx.Stats.create () in
  let fmt = Stdx.Stats.fmt_summary in
  check Alcotest.string "empty" "(no samples)"
    (fmt (Stdx.Stats.to_summary s));
  List.iter (Stdx.Stats.add s) [ 1.0; 2.0; 4.0 ];
  let d = Stdx.Stats.to_summary s in
  checki "count" 3 d.Stdx.Stats.s_count;
  check Alcotest.string "default columns"
    "n=3      mean=2.333    p50=2.000    p99=4.000    max=4.000" (fmt d);
  check Alcotest.string "wide columns, padded max"
    "n=3      mean=2.333     p50=2.000     p99=4.000     max=4.000    "
    (fmt ~width:9 ~max_width:9 d);
  check Alcotest.string "json"
    {|{"count":3,"mean":2.3333333333333335,"p50":2.0,"p99":4.0,"max":4.0}|}
    (Stdx.Json.to_string (Stdx.Stats.summary_to_json d))

let test_stats_percentile_cache_invalidated () =
  let s = Stdx.Stats.create () in
  List.iter (Stdx.Stats.add s) [ 1.0; 2.0; 3.0 ];
  check Alcotest.(float 0.0) "p100 before" 3.0 (Stdx.Stats.percentile s 100.0);
  (* an add after a percentile query must invalidate the sorted cache *)
  Stdx.Stats.add s 10.0;
  check Alcotest.(float 0.0) "p100 after add" 10.0
    (Stdx.Stats.percentile s 100.0);
  check Alcotest.(float 0.0) "p1 after add" 1.0 (Stdx.Stats.percentile s 1.0)

(* ---- Json ---- *)

let json_sample =
  Stdx.Json.(
    Obj
      [ ("null", Null);
        ("flag", Bool true);
        ("count", Int (-42));
        ("pi", Float 3.14159);
        ("tiny", Float 1e-9);
        ("text", String "he said \"hi\"\n\ttab \\ slash");
        ("empty_list", List []);
        ("empty_obj", Obj []);
        ("nested", List [ Int 1; List [ Bool false ]; Obj [ ("k", Null) ] ]) ])

let test_json_round_trip () =
  let s = Stdx.Json.to_string json_sample in
  match Stdx.Json.of_string s with
  | Ok v -> checkb "round trip" true (v = json_sample)
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_floats_stay_floats () =
  (* the emitter must keep a decimal point/exponent so Float round-trips
     as Float, not Int *)
  match Stdx.Json.of_string (Stdx.Json.to_string (Stdx.Json.Float 2.0)) with
  | Ok (Stdx.Json.Float f) -> check Alcotest.(float 0.0) "value" 2.0 f
  | Ok _ -> Alcotest.fail "float re-parsed as non-float"
  | Error e -> Alcotest.fail e

let test_json_nonfinite_is_null () =
  checkb "nan" true (Stdx.Json.to_string (Stdx.Json.Float Float.nan) = "null");
  checkb "inf" true (Stdx.Json.to_string (Stdx.Json.Float infinity) = "null")

let test_json_accessors () =
  let open Stdx.Json in
  checkb "member" true (member "count" json_sample = Some (Int (-42)));
  checkb "member missing" true (member "nope" json_sample = None);
  checkb "to_int" true (to_int_opt (Int 5) = Some 5);
  checkb "int widens" true (to_float_opt (Int 5) = Some 5.0);
  checkb "to_string" true (to_string_opt (String "x") = Some "x");
  checkb "to_bool" true (to_bool_opt (Bool false) = Some false);
  checkb "to_list" true (to_list_opt (List [ Null ]) = Some [ Null ])

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "12 34"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Stdx.Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    bad

let test_json_whitespace_tolerated () =
  match Stdx.Json.of_string "  { \"a\" : [ 1 , 2 ] }  " with
  | Ok v ->
    checkb "parsed" true
      Stdx.Json.(v = Obj [ ("a", List [ Int 1; Int 2 ]) ])
  | Error e -> Alcotest.fail e

(* ---- Table ---- *)

let test_stats_linear_fit_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Stats.linear_fit: need at least two points") (fun () ->
      ignore (Stdx.Stats.linear_fit [ (1.0, 1.0) ]));
  Alcotest.check_raises "vertical line"
    (Invalid_argument "Stats.linear_fit: degenerate x values") (fun () ->
      ignore (Stdx.Stats.linear_fit [ (1.0, 1.0); (1.0, 2.0) ]))

let test_rng_range_errors () =
  let rng = Stdx.Rng.create 1 in
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in_range: hi < lo")
    (fun () -> ignore (Stdx.Rng.int_in_range rng ~lo:5 ~hi:4));
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample_without_replacement: k > n") (fun () ->
      ignore (Stdx.Rng.sample_without_replacement rng ~k:5 ~n:4));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Stdx.Rng.choose rng [||]))

let test_table_renders () =
  let out =
    Stdx.Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  checkb "has separator" true (String.length out > 0 && String.contains out '-');
  let lines = String.split_on_char '\n' (String.trim out) in
  checki "line count" 4 (List.length lines);
  (* all lines same width *)
  let widths = List.map String.length lines in
  checki "uniform width" 1 (List.length (List.sort_uniq compare widths))

let test_table_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Table.render: ragged row")
    (fun () -> ignore (Stdx.Table.render ~header:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let () =
  Alcotest.run "stdx"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "split deterministic" `Quick test_rng_split_deterministic;
          Alcotest.test_case "streams pinned" `Quick test_rng_streams_pinned;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int coverage" `Quick test_rng_int_coverage;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balance;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_positive;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "range errors" `Quick test_rng_range_errors;
          QCheck_alcotest.to_alcotest prop_rng_same_seed_same_stream ] );
      ( "pqueue",
        [ Alcotest.test_case "basic order" `Quick test_pqueue_basic_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "interleaved" `Quick test_pqueue_interleaved;
          QCheck_alcotest.to_alcotest prop_pqueue_sorts;
          QCheck_alcotest.to_alcotest prop_pqueue_stable;
          QCheck_alcotest.to_alcotest prop_pqueue_matches_reference;
          Alcotest.test_case "growth matches reference" `Quick
            test_pqueue_growth_matches_reference;
          Alcotest.test_case "take releases value" `Quick
            test_pqueue_take_releases_value;
          QCheck_alcotest.to_alcotest prop_pqueue_matches_reference_large;
          Alcotest.test_case "steady-state push+take allocation" `Quick
            test_pqueue_steady_state_allocation ] );
      ( "stats",
        [ Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "summary digest" `Quick test_stats_summary_digest;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "growth exponent" `Quick test_stats_growth_exponent;
          Alcotest.test_case "growth drops nonpositive" `Quick
            test_stats_growth_exponent_drops_nonpositive;
          Alcotest.test_case "linear fit errors" `Quick test_stats_linear_fit_errors;
          Alcotest.test_case "percentile caching not quadratic" `Quick
            test_stats_percentile_caching_not_quadratic;
          Alcotest.test_case "percentile cache invalidated by add" `Quick
            test_stats_percentile_cache_invalidated ] );
      ( "json",
        [ Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "floats stay floats" `Quick
            test_json_floats_stay_floats;
          Alcotest.test_case "non-finite is null" `Quick
            test_json_nonfinite_is_null;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "whitespace tolerated" `Quick
            test_json_whitespace_tolerated ] );
      ( "table",
        [ Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected ] )
    ]
