(* Tests for the discrete-event engine, scheduling policies, and the
   reliable point-to-point network layer. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---- Engine ---- *)

let test_engine_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  ignore (Sim.Engine.run e ());
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_at_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 20 do
    Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Sim.Engine.run e ());
  Alcotest.(check (list int)) "fifo ties" (List.init 20 (fun i -> i + 1))
    (List.rev !log)

let test_engine_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.schedule e ~delay:2.5 (fun () -> seen := Sim.Engine.now e :: !seen);
  Sim.Engine.schedule e ~delay:0.5 (fun () -> seen := Sim.Engine.now e :: !seen);
  ignore (Sim.Engine.run e ());
  Alcotest.(check (list (float 1e-9))) "timestamps" [ 0.5; 2.5 ] (List.rev !seen)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let fired = ref 0.0 in
  Sim.Engine.schedule e ~delay:1.0 (fun () ->
      Sim.Engine.schedule e ~delay:1.5 (fun () -> fired := Sim.Engine.now e));
  ignore (Sim.Engine.run e ());
  checkf "relative to parent event" 2.5 !fired

let test_engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  ignore (Sim.Engine.run e ~until:5.5 ());
  checki "only first five" 5 !count;
  checkf "clock clamped to until" 5.5 (Sim.Engine.now e);
  ignore (Sim.Engine.run e ());
  checki "rest runs later" 10 !count

let test_engine_max_events () =
  let e = Sim.Engine.create () in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> ())
  done;
  checki "max_events respected" 3 (Sim.Engine.run e ~max_events:3 ());
  checki "pending updated" 7 (Sim.Engine.pending e)

let test_engine_step () =
  let e = Sim.Engine.create () in
  checkb "step on empty" false (Sim.Engine.step e);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> ());
  checkb "step executes" true (Sim.Engine.step e);
  checki "executed counter" 1 (Sim.Engine.events_executed e)

let test_engine_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Sim.Engine.schedule e ~delay:(-1.0) (fun () -> ()))

(* The queue has no bucket for nan or an infinite time: a nan delay
   used to pass the negative-delay check, run first at clock nan and
   send the clock back to 1.0 afterwards. *)
let test_engine_non_finite_rejected () =
  let e = Sim.Engine.create () in
  let clocks = ref [] in
  let record () = clocks := Sim.Engine.now e :: !clocks in
  Sim.Engine.schedule e ~delay:1.0 record;
  Sim.Engine.schedule e ~delay:2.0 record;
  let raises name f =
    Alcotest.check_raises name (Invalid_argument name) (fun () -> f ())
  in
  raises "Engine.schedule: non-finite delay" (fun () ->
      Sim.Engine.schedule e ~delay:Float.nan record);
  raises "Engine.schedule: non-finite delay" (fun () ->
      Sim.Engine.schedule e ~delay:infinity record);
  raises "Engine.schedule: negative delay" (fun () ->
      Sim.Engine.schedule e ~delay:neg_infinity record);
  raises "Engine.schedule_call: non-finite delay" (fun () ->
      Sim.Engine.schedule_call e ~delay:Float.nan (fun _ -> record ()) 0);
  raises "Engine.schedule_call: non-finite delay" (fun () ->
      Sim.Engine.schedule_call e ~delay:infinity (fun _ -> record ()) 0);
  List.iter
    (fun time ->
      raises "Engine.schedule_at: non-finite time" (fun () ->
          Sim.Engine.schedule_at e ~time record))
    [ Float.nan; infinity; neg_infinity ];
  checki "nothing queued by a rejected call" 2 (Sim.Engine.pending e);
  checki "both events run" 2 (Sim.Engine.run e ());
  Alcotest.(check (list (float 0.0))) "clock never goes back" [ 1.0; 2.0 ]
    (List.rev !clocks)

let test_engine_schedule_at_past_clamped () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:5.0 (fun () ->
      (* scheduling in the past runs "now", not backwards *)
      Sim.Engine.schedule_at e ~time:1.0 (fun () ->
          checkf "clamped to now" 5.0 (Sim.Engine.now e)));
  ignore (Sim.Engine.run e ())

(* thunk events and int-argument events share one sequence counter:
   at equal times they run in scheduling order, whichever kind *)
let test_engine_thunks_and_calls_interleave () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let call i = log := i :: !log in
  let expected = ref [] in
  let rng = Stdx.Rng.create 4 in
  for i = 0 to 199 do
    let delay = float_of_int (Stdx.Rng.int rng 4) in
    expected := (delay, i) :: !expected;
    if i mod 2 = 0 then Sim.Engine.schedule_call e ~delay call i
    else Sim.Engine.schedule e ~delay (fun () -> call i)
  done;
  ignore (Sim.Engine.run e ());
  Alcotest.(check (list int)) "(time, seq) order"
    (List.map snd (List.sort compare !expected))
    (List.rev !log);
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule_call: negative delay") (fun () ->
      Sim.Engine.schedule_call e ~delay:(-1.0) call 0)

(* ---- Sched policies ---- *)

(* the delay [s] gives a message sent at [now] *)
let delay_at s ~now ~src ~dst ~kind =
  let io = { Net.Sched.now; delay = 0.0 } in
  s.Net.Sched.decide io ~src ~dst ~kind;
  io.Net.Sched.delay

let test_sched_synchronous () =
  let s = Net.Sched.synchronous () in
  let d = delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"x" in
  checkf "always 1.0" 1.0 d

let test_sched_uniform_in_unit () =
  let s = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 1) in
  for _ = 1 to 500 do
    let d = delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"x" in
    checkb "in (0,1]" true (d > 0.0 && d <= 1.0)
  done

let test_sched_skewed_in_unit () =
  let s = Net.Sched.skewed_random ~rng:(Stdx.Rng.create 2) in
  for _ = 1 to 500 do
    let d = delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"x" in
    checkb "in (0,1]" true (d > 0.0 && d <= 1.0)
  done

let test_sched_delay_process () =
  let inner = Net.Sched.synchronous () in
  let s = Net.Sched.delay_process ~inner ~victim:2 ~factor:10.0 in
  let v = delay_at s ~now:0.0 ~src:2 ~dst:0 ~kind:"x" in
  let o = delay_at s ~now:0.0 ~src:1 ~dst:0 ~kind:"x" in
  checkf "victim stretched" 10.0 v;
  checkf "others normal" 1.0 o

let test_sched_delay_matching () =
  let inner = Net.Sched.synchronous () in
  let s =
    Net.Sched.delay_matching ~inner
      ~pred:(fun ~src:_ ~dst ~kind -> dst = 3 && kind = "coin")
      ~factor:5.0
  in
  checkf "matched" 5.0
    (delay_at s ~now:0.0 ~src:0 ~dst:3 ~kind:"coin");
  checkf "unmatched kind" 1.0
    (delay_at s ~now:0.0 ~src:0 ~dst:3 ~kind:"x")

let test_sched_partition () =
  let inner = Net.Sched.synchronous () in
  let s = Net.Sched.partition ~inner ~left:(fun i -> i < 2) ~factor:20.0 in
  checkf "crossing left->right" 20.0
    (delay_at s ~now:0.0 ~src:0 ~dst:3 ~kind:"x");
  checkf "crossing right->left" 20.0
    (delay_at s ~now:0.0 ~src:3 ~dst:0 ~kind:"x");
  checkf "within left" 1.0
    (delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"x");
  checkf "within right" 1.0
    (delay_at s ~now:0.0 ~src:2 ~dst:3 ~kind:"x")

let test_sched_kind_storm () =
  let inner = Net.Sched.synchronous () in
  let s =
    Net.Sched.kind_storm ~inner ~kinds:[ "coin-"; "bracha-ready" ] ~factor:6.0
  in
  checkf "prefix matched" 6.0
    (delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"coin-share");
  checkf "exact kind matched" 6.0
    (delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"bracha-ready");
  checkf "other kinds normal" 1.0
    (delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"bracha-echo")

let test_sched_partition_window () =
  (* the sabotage scenarios build temporary partitions exactly like
     this: partition inside with_window, identity outside *)
  let inner = Net.Sched.synchronous () in
  let during = Net.Sched.partition ~inner ~left:(fun i -> i = 0) ~factor:9.0 in
  let s = Net.Sched.with_window ~inner ~from_time:10.0 ~until_time:20.0 ~during in
  checkf "before window" 1.0
    (delay_at s ~now:5.0 ~src:0 ~dst:1 ~kind:"x");
  checkf "inside window" 9.0
    (delay_at s ~now:15.0 ~src:0 ~dst:1 ~kind:"x");
  checkf "after window" 1.0
    (delay_at s ~now:25.0 ~src:0 ~dst:1 ~kind:"x")

let test_sched_rush () =
  let inner = Net.Sched.synchronous () in
  let s = Net.Sched.rush_process ~inner ~favored:1 in
  checkb "favored fast" true
    (delay_at s ~now:0.0 ~src:1 ~dst:0 ~kind:"x" < 0.01)

let test_sched_window () =
  let inner = Net.Sched.synchronous () in
  let during = Net.Sched.delay_process ~inner ~victim:0 ~factor:100.0 in
  let s = Net.Sched.with_window ~inner ~from_time:10.0 ~until_time:20.0 ~during in
  checkf "before window" 1.0
    (delay_at s ~now:5.0 ~src:0 ~dst:1 ~kind:"x");
  checkf "inside window" 100.0
    (delay_at s ~now:15.0 ~src:0 ~dst:1 ~kind:"x");
  checkf "after window" 1.0
    (delay_at s ~now:25.0 ~src:0 ~dst:1 ~kind:"x")

let test_sched_bimodal () =
  let s = Net.Sched.bimodal ~rng:(Stdx.Rng.create 4) in
  let slow = ref 0 and total = 2000 in
  for _ = 1 to total do
    let d = delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"x" in
    checkb "positive" true (d > 0.0);
    if d > 1.0 then incr slow
  done;
  (* ~25% of draws should exceed the base unit interval *)
  checkb
    (Printf.sprintf "slow fraction ~25%% (%d/%d)" !slow total)
    true
    (!slow > total / 8 && !slow < total / 2)

let test_sched_heavy_tailed () =
  let s = Net.Sched.heavy_tailed ~rng:(Stdx.Rng.create 5) in
  let sum = ref 0.0 and above3 = ref 0 in
  for _ = 1 to 2000 do
    let d = delay_at s ~now:0.0 ~src:0 ~dst:1 ~kind:"x" in
    checkb "positive" true (d > 0.0);
    sum := !sum +. d;
    if d > 3.0 then incr above3
  done;
  let mean = !sum /. 2000.0 in
  checkb (Printf.sprintf "mean ~1 (%.2f)" mean) true (mean > 0.85 && mean < 1.15);
  (* exp(1): P(X > 3) ~ 5% — the tail actually exists *)
  checkb "tail present" true (!above3 > 40)

let test_sched_mobile_sluggish () =
  let inner = Net.Sched.synchronous () in
  let s =
    Net.Sched.mobile_sluggish ~inner ~n:4 ~f:1 ~period:10.0 ~factor:7.0
  in
  (* epoch 0: slowed set = {0} *)
  checkf "p0 slowed in epoch 0" 7.0
    (delay_at s ~now:1.0 ~src:0 ~dst:1 ~kind:"x");
  checkf "p1 fast in epoch 0" 1.0
    (delay_at s ~now:1.0 ~src:1 ~dst:0 ~kind:"x");
  (* epoch 1 (t in [10, 20)): slowed set rotates to {1} *)
  checkf "p0 recovered in epoch 1" 1.0
    (delay_at s ~now:11.0 ~src:0 ~dst:1 ~kind:"x");
  checkf "p1 slowed in epoch 1" 7.0
    (delay_at s ~now:11.0 ~src:1 ~dst:0 ~kind:"x");
  (* every process is slowed in some epoch and fast in another:
     liveness-preserving by construction *)
  for p = 0 to 3 do
    let slowed_somewhere = ref false and fast_somewhere = ref false in
    for e = 0 to 7 do
      let d =
        delay_at s ~now:(float_of_int (e * 10) +. 1.0) ~src:p ~dst:0
          ~kind:"x"
      in
      if d > 1.0 then slowed_somewhere := true else fast_somewhere := true
    done;
    checkb (Printf.sprintf "p%d rotates" p) true
      (!slowed_somewhere && !fast_somewhere)
  done

(* ---- Network ---- *)

let make_net ?(n = 4) () =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let net =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ()) ~counters ~n
  in
  (engine, counters, net)

let test_net_unicast_delivery () =
  let engine, _, net = make_net () in
  let got = ref None in
  Net.Network.register net 1 (fun ~src msg -> got := Some (src, msg));
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 "hello";
  checkb "not delivered synchronously" true (!got = None);
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (option (pair int string))) "delivered with source"
    (Some (0, "hello")) !got

let test_net_broadcast_reaches_all_including_self () =
  let engine, _, net = make_net () in
  let hits = Array.make 4 0 in
  for i = 0 to 3 do
    Net.Network.register net i (fun ~src:_ _ -> hits.(i) <- hits.(i) + 1)
  done;
  Net.Network.broadcast net ~src:2 ~kind:"k" ~bits:8 "m";
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (array int)) "one delivery each" [| 1; 1; 1; 1 |] hits

let test_net_accounting () =
  let engine, counters, net = make_net () in
  Net.Network.register net 0 (fun ~src:_ _ -> ());
  Net.Network.broadcast net ~src:0 ~kind:"a" ~bits:100 "m";
  Net.Network.send net ~src:1 ~dst:0 ~kind:"b" ~bits:7 "m";
  ignore (Sim.Engine.run engine ());
  checki "total bits" 407 (Metrics.Counters.total_bits counters);
  checki "messages" 5 (Metrics.Counters.total_messages counters);
  checki "bits from p0" 400
    (Metrics.Counters.total_bits_from counters ~senders:(fun i -> i = 0));
  Alcotest.(check (list (pair string int)))
    "by kind"
    [ ("a", 400); ("b", 7) ]
    (Metrics.Counters.bits_by_kind counters)

let test_net_corrupt_drops_in_flight () =
  let engine, _, net = make_net () in
  let got = ref 0 in
  Net.Network.register net 1 (fun ~src:_ _ -> incr got);
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 "m1";
  (* corrupt p0 before the message lands: the adaptive adversary may
     drop its undelivered traffic *)
  Net.Network.corrupt net 0;
  ignore (Sim.Engine.run engine ());
  checki "in-flight dropped" 0 !got

let test_net_corrupt_without_drop () =
  let engine, _, net = make_net () in
  let got = ref 0 in
  Net.Network.register net 1 (fun ~src:_ _ -> incr got);
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 "m1";
  Net.Network.corrupt net ~drop_in_flight:false 0;
  ignore (Sim.Engine.run engine ());
  checki "in-flight kept" 1 !got

let test_net_corrupted_can_still_send_after () =
  (* corruption marks the process Byzantine; the adversary controls it,
     and it can keep sending (it is not crashed) *)
  let engine, _, net = make_net () in
  let got = ref 0 in
  Net.Network.register net 1 (fun ~src:_ _ -> incr got);
  Net.Network.corrupt net 0;
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 "m2";
  ignore (Sim.Engine.run engine ());
  checki "post-corruption sends deliver" 1 !got;
  checkb "flagged" true (Net.Network.is_corrupted net 0);
  checkb "correct predicate" false (Net.Network.correct net 0)

let test_net_unregister_drops_then_register_revives () =
  let engine, _, net = make_net () in
  let got = ref 0 in
  Net.Network.register net 1 (fun ~src:_ _ -> incr got);
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 "m1";
  ignore (Sim.Engine.run engine ());
  checki "delivered while registered" 1 !got;
  Net.Network.unregister net 1;
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 "m2";
  ignore (Sim.Engine.run engine ());
  checki "dropped while crashed" 1 !got;
  Net.Network.register net 1 (fun ~src:_ _ -> incr got);
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 "m3";
  ignore (Sim.Engine.run engine ());
  checki "revived by register" 2 !got;
  Alcotest.check_raises "bad index rejected"
    (Invalid_argument "Network: bad process index in unregister") (fun () ->
      Net.Network.unregister net 9)

let test_net_unregistered_destination_is_noop () =
  let engine, _, net = make_net () in
  Net.Network.send net ~src:0 ~dst:3 ~kind:"k" ~bits:8 "m";
  ignore (Sim.Engine.run engine ());
  checki "no delivery recorded" 0 (Net.Network.delivered_count net)

let test_net_reliability_under_random_sched () =
  (* every message between correct processes arrives exactly once *)
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let net =
    Net.Network.create ~engine
      ~sched:(Net.Sched.uniform_random ~rng:(Stdx.Rng.create 3))
      ~counters ~n:5
  in
  let received = Array.make 5 0 in
  for i = 0 to 4 do
    Net.Network.register net i (fun ~src:_ _ -> received.(i) <- received.(i) + 1)
  done;
  for _ = 1 to 50 do
    Net.Network.broadcast net ~src:0 ~kind:"k" ~bits:8 "m"
  done;
  ignore (Sim.Engine.run engine ());
  Array.iteri (fun i c -> checki (Printf.sprintf "p%d" i) 50 c) received

let test_net_bad_index_rejected () =
  let _, _, net = make_net () in
  Alcotest.check_raises "bad dst"
    (Invalid_argument "Network: bad process index in send") (fun () ->
      Net.Network.send net ~src:0 ~dst:9 ~kind:"k" ~bits:8 "m")

(* ---- Network allocation ---- *)

(* Words allocated per message by a steady-state n=16 broadcast/deliver
   loop through a port with no-op handlers, once the in-flight rows and
   the event queue have grown to the loop's peak. The bound of 0 holds
   for the repository's default (release) build: under dune's dev
   profile every module is compiled -opaque, nothing is inlined across
   modules, and each float crossing a call is boxed. *)
let words_per_message sched =
  let n = 16 in
  let engine = Sim.Engine.create () in
  let net =
    Net.Network.create ~engine ~sched ~counters:(Metrics.Counters.create ()) ~n
  in
  let port = Net.Port.of_network net in
  for i = 0 to n - 1 do
    Net.Port.register port i (fun ~src:_ (_ : string) -> ())
  done;
  let round () =
    for src = 0 to n - 1 do
      Net.Port.broadcast port ~src ~kind:"k" ~bits:8 "m"
    done;
    ignore (Sim.Engine.run engine ())
  in
  for _ = 1 to 10 do
    round ()
  done;
  let rounds = 50 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  (Gc.minor_words () -. before) /. float_of_int (rounds * n * n)

let test_net_send_path_allocation () =
  let uniform () = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 5) in
  List.iter
    (fun (label, sched) ->
      let w = words_per_message sched in
      checkb (Printf.sprintf "%s: %.2f words per message = 0" label w) true
        (w = 0.0))
    [ ("uniform", uniform ());
      ("skewed", Net.Sched.skewed_random ~rng:(Stdx.Rng.create 6));
      ("delay_process",
        Net.Sched.delay_process ~inner:(uniform ()) ~victim:3 ~factor:4.0);
      ("kind_storm",
        Net.Sched.kind_storm ~inner:(uniform ()) ~kinds:[ "coin-"; "k" ]
          ~factor:3.0);
      ("bimodal", Net.Sched.bimodal ~rng:(Stdx.Rng.create 7));
      ("heavy_tailed", Net.Sched.heavy_tailed ~rng:(Stdx.Rng.create 8));
      ("partition",
        Net.Sched.partition ~inner:(uniform ()) ~left:(fun i -> i < 8)
          ~factor:5.0);
      ("mobile_sluggish",
        Net.Sched.mobile_sluggish ~inner:(uniform ()) ~n:16 ~f:5 ~period:2.0
          ~factor:4.0);
      ("rush_process", Net.Sched.rush_process ~inner:(uniform ()) ~favored:2);
      ("delay_matching",
        Net.Sched.delay_matching ~inner:(uniform ())
          ~pred:(fun ~src ~dst ~kind:_ -> src = dst + 1)
          ~factor:2.0);
      ("with_window",
        Net.Sched.with_window ~inner:(uniform ()) ~from_time:3.0
          ~until_time:9.0
          ~during:(Net.Sched.heavy_tailed ~rng:(Stdx.Rng.create 9))) ]

(* ---- Network in-flight slots ---- *)

let random_net ?(n = 4) seed =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let net =
    Net.Network.create ~engine
      ~sched:(Net.Sched.uniform_random ~rng:(Stdx.Rng.create seed))
      ~counters ~n
  in
  (engine, net)

let test_net_slots_bounded_by_peak () =
  (* 10^5 sends in bursts of varying size, partly drained in between:
     the rows never hold more slots than were in flight at once *)
  let engine, net = random_net 21 in
  let received = ref 0 in
  for i = 0 to 3 do
    Net.Network.register net i (fun ~src:_ _ -> incr received)
  done;
  let rng = Stdx.Rng.create 22 in
  let peak = ref 0 and sent = ref 0 in
  while !sent < 100_000 do
    let burst = 1 + Stdx.Rng.int rng 2000 in
    for _ = 1 to burst do
      Net.Network.send net ~src:(Stdx.Rng.int rng 4) ~dst:(Stdx.Rng.int rng 4)
        ~kind:"k" ~bits:8 !sent;
      incr sent
    done;
    peak := max !peak (Net.Network.in_flight net);
    ignore (Sim.Engine.run engine ~until:(Sim.Engine.now engine +. 0.3) ())
  done;
  ignore (Sim.Engine.run engine ());
  checki "all delivered" !sent !received;
  checki "none in flight" 0 (Net.Network.in_flight net);
  checkb "capacity <= peak in flight" true
    (Net.Network.slot_capacity net <= !peak);
  checkb "peak was large" true (!peak >= 1000)

let test_net_handler_send_reuses_slot () =
  (* a relay: each delivery sends the next message from inside its
     handler, so the slot it frees is the one the send takes *)
  let engine, net = random_net ~n:2 23 in
  let seen = ref [] in
  for i = 0 to 1 do
    Net.Network.register net i (fun ~src k ->
        seen := (src, i, k) :: !seen;
        if k < 100 then
          Net.Network.send net ~src:i ~dst:(1 - i) ~kind:"k" ~bits:8 (k + 1))
  done;
  Net.Network.send net ~src:0 ~dst:1 ~kind:"k" ~bits:8 0;
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (list (triple int int int)))
    "every hop delivered intact"
    (List.init 101 (fun k -> if k mod 2 = 0 then (0, 1, k) else (1, 0, k)))
    (List.rev !seen);
  checki "one slot" 1 (Net.Network.slot_capacity net)

let test_net_drops_free_slots () =
  let engine, net = random_net 24 in
  let got = ref 0 in
  for i = 0 to 3 do
    Net.Network.register net i (fun ~src:_ _ -> incr got)
  done;
  (* corrupted-src drop *)
  for dst = 0 to 3 do
    for k = 1 to 5 do
      Net.Network.send net ~src:0 ~dst ~kind:"k" ~bits:8 k
    done
  done;
  Net.Network.corrupt net 0;
  ignore (Sim.Engine.run engine ());
  checki "in-flight dropped" 0 !got;
  checki "dropped slots freed" 0 (Net.Network.in_flight net);
  checki "twenty slots" 20 (Net.Network.slot_capacity net);
  (* fault duplicates: every send is delivered 1 + 2 times *)
  Net.Network.set_faults net
    { Net.Faults.name = "dup2";
      decide =
        (fun _ ~src:_ ~dst:_ ~kind:_ ->
          { Net.Faults.clean with duplicates = 2 }) };
  for dst = 0 to 3 do
    Net.Network.send net ~src:1 ~dst ~kind:"k" ~bits:8 dst
  done;
  checki "copies in flight" 12 (Net.Network.in_flight net);
  ignore (Sim.Engine.run engine ());
  checki "every copy delivered" 12 !got;
  checki "duplicate slots freed" 0 (Net.Network.in_flight net);
  checki "freed slots reused" 20 (Net.Network.slot_capacity net);
  Alcotest.(check (list (pair string int)))
    "drop reasons" [ ("corrupted-src", 20) ] (Net.Network.drop_counts net)

(* A traced run through every delivery path — a relay that sends from
   its handler, fault duplicates and extra delay, a fault drop, a
   corrupted-src drop and a no-handler drop — printed event by event
   with its correlation ids and causes and hashed. The digest was taken
   from the network that scheduled one closure per message; the slot
   rows must reproduce it exactly. *)
let test_net_traced_ids_unchanged () =
  let engine, net = random_net ~n:4 25 in
  let tr = Trace.create () in
  Trace.set_clock tr (fun () -> Sim.Engine.now engine);
  Net.Network.set_trace net tr;
  Net.Network.set_faults net
    (Net.Faults.lossy ~rng:(Stdx.Rng.create 26) ~drop:0.1 ~duplicate:0.2
       ~reorder:0.2 ());
  for i = 0 to 2 do
    Net.Network.register net i (fun ~src k ->
        if k < 40 then
          Net.Network.send net ~src:i ~dst:((i + src + 1) mod 4) ~kind:"relay"
            ~bits:8 (k + 1))
  done;
  for k = 0 to 9 do
    Net.Network.broadcast net ~src:(k mod 4) ~kind:"start" ~bits:16 (k * 4)
  done;
  ignore (Sim.Engine.run engine ~until:2.0 ());
  Net.Network.corrupt net 1;
  ignore (Sim.Engine.run engine ());
  let buf = Buffer.create 4096 in
  List.iter
    (fun (ev : Trace.event) ->
      Printf.bprintf buf "%d %h %d %s\n" ev.seq ev.time ev.cause
        (Trace.describe_kind ev.kind))
    (Trace.events tr);
  checkb "trace is non-trivial" true (Trace.emitted tr > 200);
  Alcotest.(check string) "event stream digest" "ff8d1ee9724ca536ef9247db3c8fa091"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---- Latency metrics ---- *)

let test_latency_first_delivery () =
  let l = Metrics.Latency.create () in
  Metrics.Latency.proposed l "tx1" ~now:2.0;
  Alcotest.(check (option (float 1e-9)))
    "undelivered" None
    (Metrics.Latency.first_delivery_latency l "tx1");
  Metrics.Latency.delivered l "tx1" ~process:1 ~now:5.0;
  Metrics.Latency.delivered l "tx1" ~process:2 ~now:4.0;
  Alcotest.(check (option (float 1e-9)))
    "earliest wins" (Some 2.0)
    (Metrics.Latency.first_delivery_latency l "tx1");
  checki "two deliverers" 2 (Metrics.Latency.delivery_count l "tx1")

let test_latency_undelivered_audit () =
  let l = Metrics.Latency.create () in
  Metrics.Latency.proposed l "a" ~now:0.0;
  Metrics.Latency.proposed l "b" ~now:0.0;
  Metrics.Latency.delivered l "a" ~process:0 ~now:1.0;
  Alcotest.(check (list string)) "b missing" [ "b" ] (Metrics.Latency.undelivered l)

(* Recording a delivery on an existing record allocates nothing: a new
   process, a repeat, an earlier and a later time. Holds for the
   default (release) build. *)
let test_latency_delivered_allocation () =
  let l = Metrics.Latency.create ~processes:4 () in
  let key = String.make 40 'k' in
  Metrics.Latency.proposed l key ~now:2.0;
  Metrics.Latency.delivered l key ~process:1 ~now:5.0;
  let before = Gc.minor_words () in
  Metrics.Latency.delivered l key ~process:2 ~now:4.0;
  Metrics.Latency.delivered l key ~process:1 ~now:3.0;
  Metrics.Latency.delivered l key ~process:3 ~now:9.0;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "delivered: %.0f words = 0" words) true (words = 0.0);
  checki "three deliverers" 3 (Metrics.Latency.delivery_count l key);
  Alcotest.(check (list (pair int (float 1e-9))))
    "first delivery per process" [ (1, 3.0); (2, 2.0); (3, 7.0) ]
    (Metrics.Latency.per_process_latency l key);
  (* a process past the record's room grows it *)
  Metrics.Latency.delivered l key ~process:9 ~now:1.0;
  Alcotest.(check (option (float 1e-9)))
    "earliest wins" (Some (-1.0))
    (Metrics.Latency.first_delivery_latency l key);
  checki "four deliverers" 4 (Metrics.Latency.delivery_count l key)

(* ---- Chain quality metric ---- *)

let test_chain_quality_all_correct () =
  let r =
    Metrics.Chain_quality.audit ~f:1
      ~correct:(fun _ -> true)
      ~sources:[ 0; 1; 2; 0; 1; 2 ]
  in
  checkb "holds" true r.Metrics.Chain_quality.holds;
  checki "correct entries" 6 r.Metrics.Chain_quality.correct_entries

let test_chain_quality_violation_detected () =
  (* f=1: quorum prefix 3 needs >= 2 correct; give it 1 *)
  let r =
    Metrics.Chain_quality.audit ~f:1
      ~correct:(fun i -> i = 0)
      ~sources:[ 3; 3; 0 ]
  in
  checkb "violated" false r.Metrics.Chain_quality.holds

let test_chain_quality_boundary () =
  (* exactly f+1 of 2f+1 per prefix: holds *)
  let r =
    Metrics.Chain_quality.audit ~f:1
      ~correct:(fun i -> i < 2)
      ~sources:[ 0; 1; 3; 1; 0; 3 ]
  in
  checkb "boundary holds" true r.Metrics.Chain_quality.holds;
  checkf "worst ratio" (2.0 /. 3.0) r.Metrics.Chain_quality.worst_prefix_ratio

let () =
  Alcotest.run "sim-net"
    [ ( "engine",
        [ Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_rejected;
          Alcotest.test_case "non-finite delay or time" `Quick
            test_engine_non_finite_rejected;
          Alcotest.test_case "past clamped" `Quick test_engine_schedule_at_past_clamped;
          Alcotest.test_case "thunks and calls interleave" `Quick
            test_engine_thunks_and_calls_interleave ] );
      ( "sched",
        [ Alcotest.test_case "synchronous" `Quick test_sched_synchronous;
          Alcotest.test_case "uniform in unit" `Quick test_sched_uniform_in_unit;
          Alcotest.test_case "skewed in unit" `Quick test_sched_skewed_in_unit;
          Alcotest.test_case "delay process" `Quick test_sched_delay_process;
          Alcotest.test_case "delay matching" `Quick test_sched_delay_matching;
          Alcotest.test_case "partition" `Quick test_sched_partition;
          Alcotest.test_case "kind storm" `Quick test_sched_kind_storm;
          Alcotest.test_case "partition window" `Quick test_sched_partition_window;
          Alcotest.test_case "rush" `Quick test_sched_rush;
          Alcotest.test_case "window" `Quick test_sched_window;
          Alcotest.test_case "bimodal" `Quick test_sched_bimodal;
          Alcotest.test_case "heavy tailed" `Quick test_sched_heavy_tailed;
          Alcotest.test_case "mobile sluggish" `Quick test_sched_mobile_sluggish ] );
      ( "network",
        [ Alcotest.test_case "unicast" `Quick test_net_unicast_delivery;
          Alcotest.test_case "broadcast incl self" `Quick
            test_net_broadcast_reaches_all_including_self;
          Alcotest.test_case "accounting" `Quick test_net_accounting;
          Alcotest.test_case "corrupt drops in-flight" `Quick
            test_net_corrupt_drops_in_flight;
          Alcotest.test_case "corrupt without drop" `Quick test_net_corrupt_without_drop;
          Alcotest.test_case "unregister drops, register revives" `Quick
            test_net_unregister_drops_then_register_revives;
          Alcotest.test_case "corrupted still sends" `Quick
            test_net_corrupted_can_still_send_after;
          Alcotest.test_case "unregistered dst" `Quick
            test_net_unregistered_destination_is_noop;
          Alcotest.test_case "reliability random sched" `Quick
            test_net_reliability_under_random_sched;
          Alcotest.test_case "bad index" `Quick test_net_bad_index_rejected;
          Alcotest.test_case "send path allocation" `Quick
            test_net_send_path_allocation ] );
      ( "network slots",
        [ Alcotest.test_case "capacity bounded by peak" `Quick
            test_net_slots_bounded_by_peak;
          Alcotest.test_case "handler send reuses slot" `Quick
            test_net_handler_send_reuses_slot;
          Alcotest.test_case "drops free slots" `Quick test_net_drops_free_slots;
          Alcotest.test_case "traced ids unchanged" `Quick
            test_net_traced_ids_unchanged ] );
      ( "metrics",
        [ Alcotest.test_case "latency first delivery" `Quick test_latency_first_delivery;
          Alcotest.test_case "latency undelivered" `Quick test_latency_undelivered_audit;
          Alcotest.test_case "latency delivered allocation" `Quick
            test_latency_delivered_allocation;
          Alcotest.test_case "chain quality all correct" `Quick
            test_chain_quality_all_correct;
          Alcotest.test_case "chain quality violation" `Quick
            test_chain_quality_violation_detected;
          Alcotest.test_case "chain quality boundary" `Quick test_chain_quality_boundary ] )
    ]
