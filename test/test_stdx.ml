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

(* Adversarial priority distributions for the calendar queue, each
   driven against the reference in lockstep: every take must return the
   reference's entry, and the two must drain alike at the end. *)
type lockstep = {
  lq : int Q.t;
  lr : (int * int) Pqueue_reference.t;
  mutable lseq : int;
  mutable agree : bool;
}

let lockstep () =
  { lq = Q.create ~dummy:(-1);
    lr = Pqueue_reference.create ();
    lseq = 0;
    agree = true }

let l_push l priority =
  l.lseq <- l.lseq + 1;
  Q.push l.lq ~priority ~seq:l.lseq ~arg:(l.lseq * 3) (l.lseq * 7);
  Pqueue_reference.push l.lr ~priority ~seq:l.lseq (l.lseq * 7, l.lseq * 3)

(* the priority taken, or nan once both are empty *)
let l_take l =
  match Pqueue_reference.pop l.lr with
  | None ->
    if not (Q.is_empty l.lq) then l.agree <- false;
    Float.nan
  | Some (p, _, (v, a)) ->
    let p' = Q.min_priority l.lq and a' = Q.min_arg l.lq in
    let v' = Q.take l.lq in
    if not (Float.equal p p' && a = a' && v = v') then l.agree <- false;
    p

let l_clear l =
  Q.clear l.lq;
  Pqueue_reference.clear l.lr

let l_agrees l =
  while not (Pqueue_reference.is_empty l.lr) do
    ignore (l_take l : float)
  done;
  l.agree && Q.is_empty l.lq

(* [k] steps of half pushes from [gen], half takes *)
let l_churn l rng k gen =
  for _ = 1 to k do
    if Stdx.Rng.bool rng then l_push l (gen ()) else ignore (l_take l : float)
  done

let test_pqueue_all_equal () =
  let l = lockstep () and rng = Stdx.Rng.create 11 in
  for _ = 1 to 3000 do
    l_push l 7.5
  done;
  l_churn l rng 6000 (fun () -> 7.5);
  for _ = 1 to 1000 do
    l_push l 7.5
  done;
  checkb "every priority equal" true (l_agrees l)

let test_pqueue_cluster_and_outliers () =
  let l = lockstep () and rng = Stdx.Rng.create 12 in
  let gen () =
    match Stdx.Rng.int rng 100 with
    | 0 -> 1e6 +. Stdx.Rng.float rng 1.0
    | 1 -> 1e12 +. Stdx.Rng.float rng 1e3
    | 2 -> infinity
    | _ -> Stdx.Rng.float rng 1.0
  in
  for _ = 1 to 5000 do
    l_push l (gen ())
  done;
  l_churn l rng 10_000 gen;
  (* drain across the gaps to the outliers, pushing behind the front *)
  for _ = 1 to 5000 do
    let p = l_take l in
    if Stdx.Rng.int rng 4 = 0 then l_push l (p +. Stdx.Rng.float rng 1.0)
  done;
  checkb "dense cluster, outliers at 1e6, 1e12 and infinity" true
    (l_agrees l)

let test_pqueue_neighbouring_floats () =
  let l = lockstep () and rng = Stdx.Rng.create 13 in
  let run base =
    let a = Array.make 2000 base in
    for i = 1 to 1999 do
      a.(i) <- Float.succ a.(i - 1)
    done;
    Stdx.Rng.shuffle rng a;
    Array.iteri
      (fun i p ->
        l_push l p;
        (* a duplicate now and then, and a take every third push *)
        if i mod 7 = 0 then l_push l p;
        if i mod 3 = 0 then ignore (l_take l : float))
      a
  in
  List.iter run [ 1.0; 1e6; 0.0; -3.0 ];
  checkb "successive floats" true (l_agrees l)

let test_pqueue_below_minimum () =
  let l = lockstep () and rng = Stdx.Rng.create 14 in
  for _ = 1 to 1000 do
    l_push l (100.0 +. Stdx.Rng.float rng 1.0)
  done;
  for i = 1 to 4000 do
    let p = l_take l in
    (* below the minimum just taken: at the front's bucket, a few
       buckets back, and far below zero *)
    l_push l (p -. Stdx.Rng.float rng 0.01);
    if i mod 5 = 0 then l_push l (p -. 10.0 -. Stdx.Rng.float rng 50.0);
    if i mod 97 = 0 then l_push l (-1e9 -. float_of_int i)
  done;
  checkb "pushes below the current minimum" true (l_agrees l)

(* the bucket table re-tunes as the population doubles and halves *)
let test_pqueue_population_ramp () =
  let l = lockstep () and rng = Stdx.Rng.create 15 in
  let gen () = Stdx.Rng.float rng 100.0 in
  while Q.length l.lq < 20_000 do
    l_push l (gen ());
    if Stdx.Rng.int rng 4 = 0 then ignore (l_take l : float)
  done;
  let top = Q.buckets l.lq in
  while Q.length l.lq > 40 do
    let p = l_take l in
    if Stdx.Rng.int rng 4 = 0 then l_push l (p +. gen ())
  done;
  let bottom = Q.buckets l.lq in
  l_churn l rng 2000 gen;
  checkb (Printf.sprintf "%d buckets at 20,000 entries" top) true
    (top >= 8192);
  checkb (Printf.sprintf "%d buckets back at 40 entries" bottom) true
    (bottom <= 128);
  checkb "ramp 0 -> 20,000 -> 40" true (l_agrees l)

let test_pqueue_clear_mid_ramp () =
  let l = lockstep () and rng = Stdx.Rng.create 16 in
  let gen () = Stdx.Rng.float rng 10.0 in
  for _ = 1 to 10_000 do
    l_push l (gen ())
  done;
  l_churn l rng 3000 gen;
  l_clear l;
  checkb "empty after clear" true (Q.is_empty l.lq && Q.buckets l.lq = 0);
  for _ = 1 to 5000 do
    l_push l (50.0 +. gen ())
  done;
  l_churn l rng 3000 (fun () -> 50.0 +. gen ());
  checkb "clear in mid-ramp" true (l_agrees l)

(* the engine's shape at n=16: each take runs an event at [now], which
   sends a burst of 16 messages at [now + U(0,1]] while fewer than 2,400
   are in flight *)
let test_pqueue_engine_shaped () =
  let l = lockstep () and rng = Stdx.Rng.create 17 in
  let burst now =
    for _ = 1 to 16 do
      l_push l (now +. (1.0 -. Stdx.Rng.float rng 1.0))
    done
  in
  burst 0.0;
  for _ = 1 to 100_000 do
    let now = l_take l in
    if Q.length l.lq < 2400 then burst now
  done;
  checkb "100,000 engine-shaped events" true (l_agrees l)

let test_pqueue_nan_rejected () =
  let q = make_queue () in
  Alcotest.check_raises "nan"
    (Invalid_argument "Pqueue.push: nan priority") (fun () ->
      Q.push q ~priority:Float.nan ~seq:1 ~arg:0 "x");
  checkb "nothing queued" true (Q.is_empty q)

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

(* Words allocated per push+take at steady populations of 2,048 and
   16,384, once the rows have grown to them. Like test_sim_net's send
   path allocation, the bound of 0 holds for the default (release)
   build only. *)
let test_pqueue_steady_state_allocation () =
  let f (_ : int) = () in
  List.iter
    (fun pop ->
      let q = Q.create ~dummy:ignore in
      for i = 1 to pop do
        Q.push q ~priority:(float_of_int (i * 7919 mod pop)) ~seq:i ~arg:i f
      done;
      let seq = ref pop in
      let churn k =
        for _ = 1 to k do
          let p = Q.min_priority q and a = Q.min_arg q in
          let g = Q.take q in
          incr seq;
          Q.push q ~priority:(p +. float_of_int ((a * 7919) land 1023))
            ~seq:!seq ~arg:!seq g
        done
      in
      churn pop;
      let rounds = 100_000 in
      let before = Gc.minor_words () in
      churn rounds;
      let words = (Gc.minor_words () -. before) /. float_of_int rounds in
      checki "population held" pop (Q.length q);
      checkb
        (Printf.sprintf "%.3f words per push+take at %d = 0" words pop)
        true (words = 0.0))
    [ 2048; 16_384 ]

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

(* ---- seqset: a watermark set against a plain hash set ---- *)

(* Values as a dedup window sees them: ascending runs from a cursor,
   gaps, repeats and steps back, and runs near 2^32 - 1 and max_int.
   After every add, [add]'s result and [mem] of every value the model
   holds, and of values around the cursor, must agree with the model. *)
let prop_seqset_model =
  QCheck.Test.make ~name:"seqset = hash set: mem and add after every step"
    ~count:200 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let set = Stdx.Seqset.create () and model = Hashtbl.create 64 in
      let top = (1 lsl 32) - 1 in
      let cursor =
        ref
          (match Stdx.Rng.int rng 3 with
          | 0 -> 0
          | 1 -> top - 20
          | _ -> max_int - 20)
      in
      let fail fmt = Printf.ksprintf failwith fmt in
      for step = 1 to 200 do
        let x =
          match Stdx.Rng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 ->
            let x = !cursor in
            if x < max_int then incr cursor;
            x
          | 5 ->
            let x = !cursor + Stdx.Rng.int_in_range rng ~lo:1 ~hi:6 in
            let x = if x < 0 then max_int else x in
            cursor := x;
            x
          | 6 | 7 -> max 0 (!cursor - Stdx.Rng.int_in_range rng ~lo:1 ~hi:8)
          | 8 -> Stdx.Rng.choose rng [| top; top - 1; max_int; max_int - 1 |]
          | _ -> Stdx.Rng.int rng 50
        in
        let fresh = not (Hashtbl.mem model x) in
        Hashtbl.replace model x ();
        if Stdx.Seqset.add set x <> fresh then fail "step %d: add %d" step x;
        Hashtbl.iter
          (fun y () ->
            if not (Stdx.Seqset.mem set y) then fail "step %d: %d lost" step y)
          model;
        for y = max 0 (!cursor - 10) to min (max_int - 10) !cursor + 10 do
          if Stdx.Seqset.mem set y <> Hashtbl.mem model y then
            fail "step %d: mem %d" step y
        done;
        if Stdx.Seqset.above_floor set > Hashtbl.length model then
          fail "step %d: %d above the floor, %d members" step
            (Stdx.Seqset.above_floor set) (Hashtbl.length model)
      done;
      true)

let test_seqset_dense_run_is_flat () =
  let set = Stdx.Seqset.create () in
  checkb "empty" false (Stdx.Seqset.mem set 0);
  checkb "negatives are below the floor" true (Stdx.Seqset.mem set (-1));
  checkb "adding one is not new" false (Stdx.Seqset.add set (-1));
  (* 0 .. 9999 in shuffled blocks of 100: out of order within a window *)
  let rng = Stdx.Rng.create 7 in
  for block = 0 to 99 do
    let xs = Array.init 100 (fun i -> (block * 100) + i) in
    Stdx.Rng.shuffle rng xs;
    Array.iter (fun x -> checkb "new" true (Stdx.Seqset.add set x)) xs
  done;
  checki "nothing above the floor" 0 (Stdx.Seqset.above_floor set);
  checkb "all members" true (Stdx.Seqset.mem set 9999);
  checkb "next is not" false (Stdx.Seqset.mem set 10_000);
  checkb "repeat" false (Stdx.Seqset.add set 5000);
  checkb "gap" true (Stdx.Seqset.add set 10_002);
  checki "one above the floor" 1 (Stdx.Seqset.above_floor set);
  checkb "fill the gap" true (Stdx.Seqset.add set 10_000);
  checkb "fill the gap" true (Stdx.Seqset.add set 10_001);
  checki "caught up" 0 (Stdx.Seqset.above_floor set);
  checkb "max_int" true (Stdx.Seqset.add set max_int);
  checkb "max_int again" false (Stdx.Seqset.add set max_int);
  checkb "max_int member" true (Stdx.Seqset.mem set max_int)

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

(* ---- Decimal ---- *)

(* [length] and [write] agree with [string_of_int] on every int, written
   anywhere in a buffer, and a write with no room raises *)
let prop_decimal_is_string_of_int =
  QCheck.Test.make ~name:"decimal = string_of_int" ~count:3000
    QCheck.(
      pair
        (make ~print:string_of_int
           Gen.(
             frequency
               [ ( 1,
                   oneofl
                     [ 0; 9; 10; -9; -10; 99; 100; max_int; min_int;
                       min_int + 1; max_int - 1 ] );
                 (2, int);
                 (2, int_range (-100_000) 100_000) ]))
        (int_range 0 5))
    (fun (v, pos) ->
      let s = string_of_int v in
      let b = Bytes.make (pos + String.length s + 2) '#' in
      let stop = Stdx.Decimal.write b ~pos v in
      Stdx.Decimal.length v = String.length s
      && stop = pos + String.length s
      && Bytes.to_string b
         = String.make pos '#' ^ s ^ "##"
      && (match Stdx.Decimal.write b ~pos:(Bytes.length b - String.length s + 1) v with
         | _ -> false
         | exception Invalid_argument _ -> true))

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
            test_pqueue_steady_state_allocation;
          Alcotest.test_case "all-equal priorities" `Quick
            test_pqueue_all_equal;
          Alcotest.test_case "dense cluster and far outliers" `Quick
            test_pqueue_cluster_and_outliers;
          Alcotest.test_case "neighbouring floats" `Quick
            test_pqueue_neighbouring_floats;
          Alcotest.test_case "pushes below the minimum" `Quick
            test_pqueue_below_minimum;
          Alcotest.test_case "population ramp 0 -> 20,000 -> 40" `Quick
            test_pqueue_population_ramp;
          Alcotest.test_case "clear in mid-ramp" `Quick
            test_pqueue_clear_mid_ramp;
          Alcotest.test_case "engine-shaped stream" `Quick
            test_pqueue_engine_shaped;
          Alcotest.test_case "nan rejected" `Quick test_pqueue_nan_rejected ] );
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
      ( "seqset",
        [ Alcotest.test_case "dense run is flat" `Quick
            test_seqset_dense_run_is_flat;
          QCheck_alcotest.to_alcotest prop_seqset_model ] );
      ("digits", [ QCheck_alcotest.to_alcotest prop_decimal_is_string_of_int ]);
      ( "table",
        [ Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected ] )
    ]
