(* Tests for the three reliable-broadcast instantiations: the
   abstraction's Agreement / Integrity / Validity properties under
   random asynchronous schedules, plus Byzantine-sender attacks. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

type backend = B_bracha | B_avid | B_gossip

let backend_name = function
  | B_bracha -> "bracha"
  | B_avid -> "avid"
  | B_gossip -> "gossip"

(* A fleet of RBC endpoints over one network; returns per-process
   delivery logs and broadcast handles. *)
type fleet = {
  engine : Sim.Engine.t;
  deliveries : (string * int * int) list ref array; (* payload, round, source *)
  bcast : int -> payload:string -> round:int -> unit;
  counters : Metrics.Counters.t;
}

let make_fleet ?(seed = 9) ~backend ~n ~f () =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let rng = Stdx.Rng.create seed in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.split rng) in
  let deliveries = Array.init n (fun _ -> ref []) in
  let deliver_to i ~payload ~round ~source =
    deliveries.(i) := (payload, round, source) :: !(deliveries.(i))
  in
  let bcast =
    match backend with
    | B_bracha ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let port = Net.Port.of_network net in
      let eps =
        Array.init n (fun me ->
            Rbc.Bracha.create_port ~port ~me ~f ~deliver:(deliver_to me))
      in
      fun i ~payload ~round -> Rbc.Bracha.bcast eps.(i) ~payload ~round
    | B_avid ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let port = Net.Port.of_network net in
      let eps =
        Array.init n (fun me ->
            Rbc.Avid.create_port ~port ~me ~f ~deliver:(deliver_to me))
      in
      fun i ~payload ~round -> Rbc.Avid.bcast eps.(i) ~payload ~round
    | B_gossip ->
      let net = Net.Network.create ~engine ~sched ~counters ~n in
      let port = Net.Port.of_network net in
      let eps =
        Array.init n (fun me ->
            Rbc.Gossip.create_port ~port ~rng:(Stdx.Rng.split rng) ~me ~f
              ~deliver:(deliver_to me))
      in
      fun i ~payload ~round -> Rbc.Gossip.bcast eps.(i) ~payload ~round
  in
  { engine; deliveries; bcast; counters }

let run fleet = ignore (Sim.Engine.run fleet.engine ())

(* -- generic properties, instantiated per backend -- *)

let test_validity backend () =
  let n = 7 and f = 2 in
  let fleet = make_fleet ~backend ~n ~f () in
  fleet.bcast 3 ~payload:"hello" ~round:1;
  run fleet;
  Array.iteri
    (fun i log ->
      checki
        (Printf.sprintf "%s: p%d delivered once" (backend_name backend) i)
        1 (List.length !log);
      let payload, round, source = List.hd !log in
      checks "payload" "hello" payload;
      checki "round" 1 round;
      checki "source" 3 source)
    fleet.deliveries

let test_all_senders backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  for i = 0 to n - 1 do
    fleet.bcast i ~payload:(Printf.sprintf "m%d" i) ~round:1
  done;
  run fleet;
  Array.iter
    (fun log ->
      checki "four instances delivered" 4 (List.length !log);
      let sources = List.sort compare (List.map (fun (_, _, s) -> s) !log) in
      Alcotest.(check (list int)) "one per source" [ 0; 1; 2; 3 ] sources)
    fleet.deliveries

let test_multiple_rounds backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  for r = 1 to 5 do
    fleet.bcast 0 ~payload:(Printf.sprintf "r%d" r) ~round:r
  done;
  run fleet;
  Array.iter
    (fun log ->
      checki "five rounds" 5 (List.length !log);
      List.iter
        (fun (payload, round, _) ->
          checks "round matches payload" (Printf.sprintf "r%d" round) payload)
        !log)
    fleet.deliveries

let test_agreement_on_logs backend () =
  (* same multiset of (payload, round, source) everywhere *)
  let n = 7 and f = 2 in
  let fleet = make_fleet ~seed:77 ~backend ~n ~f () in
  for i = 0 to n - 1 do
    for r = 1 to 3 do
      fleet.bcast i ~payload:(Printf.sprintf "p%d-r%d" i r) ~round:r
    done
  done;
  run fleet;
  let canon log = List.sort compare !log in
  let reference = canon fleet.deliveries.(0) in
  checki "reference complete" 21 (List.length reference);
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (triple string int int)))
        (Printf.sprintf "p%d log" i)
        reference (canon log))
    fleet.deliveries

let test_empty_payload backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  fleet.bcast 2 ~payload:"" ~round:1;
  run fleet;
  Array.iter
    (fun log ->
      checki "delivered" 1 (List.length !log);
      let payload, _, _ = List.hd !log in
      checks "empty payload survives" "" payload)
    fleet.deliveries

let test_large_payload backend () =
  let n = 4 and f = 1 in
  let fleet = make_fleet ~backend ~n ~f () in
  let big = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  fleet.bcast 1 ~payload:big ~round:1;
  run fleet;
  Array.iter
    (fun log ->
      let payload, _, _ = List.hd !log in
      checkb "large payload intact" true (String.equal big payload))
    fleet.deliveries

(* -- Bracha-specific Byzantine tests -- *)

let make_bracha_raw ~n ~f ~seed =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create seed) in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let port = Net.Port.of_network net in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        Rbc.Bracha.create_port ~port ~me ~f ~deliver:(fun ~payload ~round ~source ->
            deliveries.(me) := (payload, round, source) :: !(deliveries.(me))))
  in
  (engine, net, deliveries, eps)

let test_bracha_equivocation_no_split () =
  (* Byzantine p0 sends Init "A" to half the processes and Init "B" to
     the other half. Agreement: correct processes must not deliver
     different payloads (delivering nothing is allowed). *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:5 in
  for dst = 0 to n - 1 do
    let payload = if dst < n / 2 then "A" else "B" in
    Net.Network.send net ~src:0 ~dst ~kind:"bracha-init" ~bits:128
      (Rbc.Bracha.Init { round = 1; payload })
  done;
  ignore (Sim.Engine.run engine ());
  let delivered =
    Array.to_list deliveries
    |> List.concat_map (fun log -> List.map (fun (p, _, _) -> p) !log)
    |> List.sort_uniq compare
  in
  checkb "at most one payload delivered" true (List.length delivered <= 1)

let test_bracha_equivocation_majority_converges () =
  (* 2f+1 processes get "A": A can gather an echo quorum, so if anything
     is delivered it is "A" everywhere *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:6 in
  for dst = 0 to n - 1 do
    let payload = if dst < 3 then "A" else "B" in
    Net.Network.send net ~src:0 ~dst ~kind:"bracha-init" ~bits:128
      (Rbc.Bracha.Init { round = 1; payload })
  done;
  ignore (Sim.Engine.run engine ());
  Array.iteri
    (fun i log ->
      match !log with
      | [] -> Alcotest.fail (Printf.sprintf "p%d should deliver A" i)
      | [ (p, _, _) ] -> checks "A delivered" "A" p
      | _ -> Alcotest.fail "duplicate delivery")
    deliveries

let test_bracha_no_delivery_without_quorum () =
  (* READYs forged by the (single, f = 1) Byzantine process stay below
     the f+1 amplification threshold: no correct process echoes them and
     nothing is delivered. (With two forgers the fault bound would be
     violated and amplification would rightly fire.) *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:7 in
  for dst = 1 to 3 do
    Net.Network.send net ~src:0 ~dst ~kind:"bracha-ready" ~bits:128
      (Rbc.Bracha.Ready { origin = 0; round = 1; payload = "forged" })
  done;
  ignore (Sim.Engine.run engine ());
  Array.iter (fun log -> checki "nothing delivered" 0 (List.length !log)) deliveries

let test_bracha_integrity_duplicate_init () =
  (* re-sending the same INIT must not cause duplicate delivery *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:8 in
  Rbc.Bracha.bcast eps.(2) ~payload:"x" ~round:1;
  ignore (Sim.Engine.run engine ());
  (* replay the init *)
  Net.Network.broadcast net ~src:2 ~kind:"bracha-init" ~bits:128
    (Rbc.Bracha.Init { round = 1; payload = "x" });
  ignore (Sim.Engine.run engine ());
  Array.iter (fun log -> checki "exactly once" 1 (List.length !log)) deliveries

let test_bracha_silent_faults_tolerated () =
  (* f silent processes: the rest still deliver *)
  let n = 7 and f = 2 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:9 in
  Net.Network.register net 5 (fun ~src:_ _ -> ());
  Net.Network.register net 6 (fun ~src:_ _ -> ());
  Rbc.Bracha.bcast eps.(0) ~payload:"live" ~round:1;
  ignore (Sim.Engine.run engine ());
  for i = 0 to 4 do
    checki (Printf.sprintf "p%d delivers" i) 1 (List.length !(deliveries.(i)))
  done

let test_bracha_fplus1_faults_stall () =
  (* with f+1 silent processes the quorum is unreachable: nothing can be
     delivered (the resilience bound is tight) *)
  let n = 7 and f = 2 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:10 in
  List.iter (fun i -> Net.Network.register net i (fun ~src:_ _ -> ())) [ 4; 5; 6 ];
  Rbc.Bracha.bcast eps.(0) ~payload:"stuck" ~round:1;
  ignore (Sim.Engine.run engine ());
  Array.iter (fun log -> checki "no delivery" 0 (List.length !log)) deliveries

(* Silence every process but the last and record what reaches p0, so a
   test can feed the last process hand-built votes and watch its replies. *)
let bracha_victim ~n ~f =
  let engine, net, deliveries, _ = make_bracha_raw ~n ~f ~seed:12 in
  let seen = ref [] in
  for i = 0 to n - 2 do
    Net.Network.register net i (fun ~src msg ->
        if i = 0 then seen := (src, msg) :: !seen)
  done;
  let victim = n - 1 in
  let vote ~src msg =
    Net.Network.send net ~src ~dst:victim ~kind:"bracha-vote" ~bits:128 msg
  in
  let readies_sent () =
    List.length
      (List.filter
         (function src, Rbc.Bracha.Ready _ -> src = victim | _ -> false)
         !seen)
  in
  (engine, deliveries.(victim), vote, readies_sent)

let test_bracha_votes_pool_equal_bytes () =
  (* each Echo and Ready carries its own physically distinct copy of
     the payload: byte-equal copies are one vote, so 2f+1 of them make
     a quorum *)
  let n = 4 and f = 1 in
  let engine, delivered, vote, readies_sent = bracha_victim ~n ~f in
  let payload = "pooled payload" in
  let copy () = Bytes.to_string (Bytes.of_string payload) in
  checkb "copies are distinct blocks" false (copy () == copy ());
  for src = 0 to 2 do
    vote ~src (Rbc.Bracha.Echo { origin = 0; round = 1; payload = copy () })
  done;
  ignore (Sim.Engine.run engine ());
  checki "echo quorum reached: ready sent" 1 (readies_sent ());
  for src = 0 to 2 do
    vote ~src (Rbc.Bracha.Ready { origin = 0; round = 1; payload = copy () })
  done;
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (list (triple string int int)))
    "delivered once" [ (payload, 1, 0) ] !delivered

let test_bracha_votes_split_by_payload () =
  (* votes for two different payloads never add up: 3 + 2 Echoes stay
     below 2f+1 = 5 and 2 + 2 Readies below f+1 = 3, until one payload
     reaches each threshold on its own *)
  let n = 7 and f = 2 in
  let engine, delivered, vote, readies_sent = bracha_victim ~n ~f in
  let echo payload = Rbc.Bracha.Echo { origin = 0; round = 1; payload } in
  let ready payload = Rbc.Bracha.Ready { origin = 0; round = 1; payload } in
  List.iter (fun src -> vote ~src (echo "A")) [ 0; 1; 2 ];
  List.iter (fun src -> vote ~src (echo "B")) [ 3; 4 ];
  List.iter (fun src -> vote ~src (ready "A")) [ 0; 1 ];
  List.iter (fun src -> vote ~src (ready "B")) [ 2; 3 ];
  ignore (Sim.Engine.run engine ());
  checki "no ready from split votes" 0 (readies_sent ());
  checki "nothing delivered" 0 (List.length !delivered);
  vote ~src:4 (ready "A");
  ignore (Sim.Engine.run engine ());
  checki "f+1 readies for A amplify" 1 (readies_sent ());
  checki "own ready + 3 < 2f+1" 0 (List.length !delivered);
  vote ~src:5 (ready "A");
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (list (triple string int int)))
    "A delivered" [ ("A", 1, 0) ] !delivered

let test_bracha_out_of_range_origin_dropped () =
  (* votes for an instance no process can own — an origin outside
     [0, n) or a negative round — open no state anywhere, however many
     arrive, and never deliver *)
  let n = 4 and f = 1 in
  let engine, net, deliveries, eps = make_bracha_raw ~n ~f ~seed:13 in
  let bogus = [ (n, 1); (-1, 1); (1000, 2); (max_int, 3); (1, -1) ] in
  for src = 0 to n - 1 do
    List.iter
      (fun (origin, round) ->
        let payload = "bogus" in
        Net.Network.broadcast net ~src ~kind:"bracha-vote" ~bits:128
          (Rbc.Bracha.Echo { origin; round; payload });
        Net.Network.broadcast net ~src ~kind:"bracha-vote" ~bits:128
          (Rbc.Bracha.Ready { origin; round; payload }))
      bogus
  done;
  Net.Network.broadcast net ~src:2 ~kind:"bracha-init" ~bits:128
    (Rbc.Bracha.Init { round = -4; payload = "bogus" });
  ignore (Sim.Engine.run engine ());
  Array.iteri
    (fun i ep ->
      checki (Printf.sprintf "p%d holds no instance" i) 0
        (Rbc.Bracha.open_instances ep);
      checki (Printf.sprintf "p%d delivered nothing" i) 0
        (List.length !(deliveries.(i))))
    eps;
  (* the same flood for a real origin does deliver: the drop is the
     range check, not the harness *)
  for src = 0 to n - 1 do
    Net.Network.broadcast net ~src ~kind:"bracha-vote" ~bits:128
      (Rbc.Bracha.Ready { origin = 3; round = 1; payload = "real" })
  done;
  ignore (Sim.Engine.run engine ());
  Array.iter (fun ep -> checki "one instance" 1 (Rbc.Bracha.open_instances ep)) eps;
  Array.iter (fun log -> checki "delivered" 1 (List.length !log)) deliveries

(* bogus instances for the out-of-range tests: origins outside [0, n)
   and a negative round *)
let bogus_instances n = [ (n, 1); (-1, 1); (1000, 2); (max_int, 3); (1, -1) ]

(* After [prune_below ~round:5] at every process, one message of each
   kind for round 3 reaches process 0 alone: each opens no instance,
   sends nothing and counts one drop. A broadcast at the horizon itself
   still delivers everywhere. *)
let check_horizon ~create ~prune_below ~open_instances ~dropped ~bcast ~stale =
  let n = 4 and horizon = 5 in
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 21) in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let port = Net.Port.of_network net in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        create ~port ~me ~deliver:(fun ~payload ~round ~source ->
            deliveries.(me) := (payload, round, source) :: !(deliveries.(me))))
  in
  Array.iter (fun ep -> prune_below ep ~round:horizon) eps;
  List.iteri
    (fun i (kind, msg) ->
      Net.Network.send net ~src:1 ~dst:0 ~kind ~bits:128 msg;
      ignore (Sim.Engine.run engine ());
      checki (kind ^ ": no instance") 0 (open_instances eps.(0));
      checki (kind ^ ": one drop") (i + 1) (dropped eps.(0));
      checki (kind ^ ": nothing sent") (i + 1)
        (Metrics.Counters.total_messages counters))
    stale;
  bcast eps.(1) ~payload:"control" ~round:horizon;
  ignore (Sim.Engine.run engine ());
  Array.iteri
    (fun i ep ->
      checki (Printf.sprintf "p%d: one instance" i) 1 (open_instances ep);
      Alcotest.(check (list (triple string int int)))
        (Printf.sprintf "p%d: control delivered" i)
        [ ("control", horizon, 1) ]
        !(deliveries.(i)))
    eps

let test_bracha_below_horizon_dropped () =
  let payload = "stale" in
  check_horizon
    ~create:(fun ~port ~me ~deliver ->
      Rbc.Bracha.create_port ~port ~me ~f:1 ~deliver)
    ~prune_below:Rbc.Bracha.prune_below ~open_instances:Rbc.Bracha.open_instances
    ~dropped:Rbc.Bracha.dropped_below_horizon ~bcast:Rbc.Bracha.bcast
    ~stale:
      [ ("init", Rbc.Bracha.Init { round = 3; payload });
        ("echo", Rbc.Bracha.Echo { origin = 2; round = 3; payload });
        ("ready", Rbc.Bracha.Ready { origin = 2; round = 3; payload }) ]

let test_avid_below_horizon_dropped () =
  let n = 4 and f = 1 in
  let payload = "stale" in
  let frags =
    Crypto.Reed_solomon.encode (Crypto.Reed_solomon.make ~k:(f + 1) ~n) payload
  in
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree and data_len = String.length payload in
  let frag i = frags.(i) and proof i = Crypto.Merkle.prove tree i in
  check_horizon
    ~create:(fun ~port ~me ~deliver -> Rbc.Avid.create_port ~port ~me ~f ~deliver)
    ~prune_below:Rbc.Avid.prune_below ~open_instances:Rbc.Avid.open_instances
    ~dropped:Rbc.Avid.dropped_below_horizon ~bcast:Rbc.Avid.bcast
    ~stale:
      [ ( "disperse",
          Rbc.Avid.Disperse
            { round = 3; root; data_len; frag_index = 0; frag = frag 0;
              proof = proof 0 } );
        ( "echo",
          Rbc.Avid.Echo
            { origin = 2; round = 3; root; data_len; frag_index = 1;
              frag = frag 1; proof = proof 1 } );
        ("ready", Rbc.Avid.Ready { origin = 2; round = 3; root; data_len }) ]

let test_gossip_below_horizon_dropped () =
  let payload = "stale" in
  let digest = Crypto.Sha256.digest_string payload in
  let rng = Stdx.Rng.create 22 in
  check_horizon
    ~create:(fun ~port ~me ~deliver ->
      Rbc.Gossip.create_port ~port ~rng:(Stdx.Rng.split rng) ~me ~f:1 ~deliver)
    ~prune_below:Rbc.Gossip.prune_below ~open_instances:Rbc.Gossip.open_instances
    ~dropped:Rbc.Gossip.dropped_below_horizon ~bcast:Rbc.Gossip.bcast
    ~stale:
      [ ("gossip", Rbc.Gossip.Gossip { origin = 2; round = 3; payload });
        ("echo", Rbc.Gossip.Echo { origin = 2; round = 3; digest });
        ("ready", Rbc.Gossip.Ready { origin = 2; round = 3; digest }) ]

let test_avid_out_of_range_origin_dropped () =
  (* AVID's mirror of the Bracha test: echoes carrying a valid fragment
     and proof, and Readies, for instances no process can own open no
     state and never deliver *)
  let n = 4 and f = 1 in
  let engine = Sim.Engine.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 13) in
  let net =
    Net.Network.create ~engine ~sched ~counters:(Metrics.Counters.create ()) ~n
  in
  let port = Net.Port.of_network net in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        Rbc.Avid.create_port ~port ~me ~f ~deliver:(fun ~payload ~round:_ ~source:_ ->
            deliveries.(me) := payload :: !(deliveries.(me))))
  in
  let commitment payload =
    let frags =
      Crypto.Reed_solomon.encode (Crypto.Reed_solomon.make ~k:(f + 1) ~n) payload
    in
    let tree = Crypto.Merkle.build frags in
    (frags, tree, Crypto.Merkle.root tree, String.length payload)
  in
  let flood payload (origin, round) =
    let frags, tree, root, data_len = commitment payload in
    for src = 0 to n - 1 do
      let proof = Crypto.Merkle.prove tree src in
      Net.Network.broadcast net ~src ~kind:"avid-vote" ~bits:128
        (Rbc.Avid.Echo
           { origin; round; root; data_len; frag_index = src;
             frag = frags.(src); proof });
      Net.Network.broadcast net ~src ~kind:"avid-vote" ~bits:128
        (Rbc.Avid.Ready { origin; round; root; data_len })
    done
  in
  List.iter (flood "bogus") (bogus_instances n);
  (let frags, tree, root, data_len = commitment "bogus" in
   Net.Network.send net ~src:2 ~dst:0 ~kind:"avid-disperse" ~bits:128
     (Rbc.Avid.Disperse
        { round = -4; root; data_len; frag_index = 0; frag = frags.(0);
          proof = Crypto.Merkle.prove tree 0 }));
  ignore (Sim.Engine.run engine ());
  Array.iteri
    (fun i ep ->
      checki (Printf.sprintf "p%d holds no instance" i) 0
        (Rbc.Avid.open_instances ep);
      checki (Printf.sprintf "p%d delivered nothing" i) 0
        (List.length !(deliveries.(i))))
    eps;
  (* the same flood for a real origin does deliver: the drop is the
     range check, not the harness *)
  flood "real" (3, 1);
  ignore (Sim.Engine.run engine ());
  Array.iter (fun ep -> checki "one instance" 1 (Rbc.Avid.open_instances ep)) eps;
  Array.iter
    (fun log -> Alcotest.(check (list string)) "delivered" [ "real" ] !log)
    deliveries

let test_gossip_out_of_range_origin_dropped () =
  (* Gossip's mirror of the Bracha test: a gossiped payload, echoes and
     readies for instances no process can own open no state, relay
     nothing and never deliver *)
  let n = 4 and f = 1 in
  let engine = Sim.Engine.create () in
  let rng = Stdx.Rng.create 13 in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.split rng) in
  let counters = Metrics.Counters.create () in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let port = Net.Port.of_network net in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        Rbc.Gossip.create_port ~port ~rng:(Stdx.Rng.split rng) ~me ~f
          ~deliver:(fun ~payload ~round:_ ~source:_ ->
            deliveries.(me) := payload :: !(deliveries.(me))))
  in
  let flood payload (origin, round) =
    let digest = Crypto.Sha256.digest_string payload in
    Net.Network.broadcast net ~src:(n - 1) ~kind:"gossip-relay" ~bits:128
      (Rbc.Gossip.Gossip { origin; round; payload });
    for src = 0 to n - 1 do
      Net.Network.broadcast net ~src ~kind:"gossip-vote" ~bits:128
        (Rbc.Gossip.Echo { origin; round; digest });
      Net.Network.broadcast net ~src ~kind:"gossip-vote" ~bits:128
        (Rbc.Gossip.Ready { origin; round; digest })
    done
  in
  List.iter (flood "bogus") (bogus_instances n);
  ignore (Sim.Engine.run engine ());
  let flood_messages = n * (1 + (2 * n)) * List.length (bogus_instances n) in
  checki "no process answered the flood" flood_messages
    (Metrics.Counters.total_messages counters);
  Array.iteri
    (fun i ep ->
      checki (Printf.sprintf "p%d holds no instance" i) 0
        (Rbc.Gossip.open_instances ep);
      checki (Printf.sprintf "p%d delivered nothing" i) 0
        (List.length !(deliveries.(i))))
    eps;
  (* the same flood for a real origin does deliver: the drop is the
     range check, not the harness *)
  flood "real" (3, 1);
  ignore (Sim.Engine.run engine ());
  Array.iter (fun ep -> checki "one instance" 1 (Rbc.Gossip.open_instances ep)) eps;
  Array.iter
    (fun log -> Alcotest.(check (list string)) "delivered" [ "real" ] !log)
    deliveries

let test_bracha_quorum_n70 () =
  (* n = 70: the voter sets span nine bytes. Votes arrive byte by byte
     in turn (sources ordered by (id mod 8, id)), so every byte of the
     set is written before any byte holds two voters; the thresholds
     must still fall exactly at 2f+1 = 47 *)
  let n = 70 and f = 23 in
  let engine, delivered, vote, readies_sent = bracha_victim ~n ~f in
  let victim = n - 1 in
  let sources =
    List.init victim Fun.id
    |> List.sort (fun a b -> compare (a mod 8, a) (b mod 8, b))
  in
  let first k = List.filteri (fun i _ -> i < k) sources in
  let echo = Rbc.Bracha.Echo { origin = 5; round = 3; payload = "wide" } in
  let ready = Rbc.Bracha.Ready { origin = 5; round = 3; payload = "wide" } in
  List.iter (fun src -> vote ~src echo) (first 46);
  ignore (Sim.Engine.run engine ());
  checki "46 echoes: no ready" 0 (readies_sent ());
  vote ~src:(List.nth sources 46) echo;
  ignore (Sim.Engine.run engine ());
  checki "47 echoes: ready" 1 (readies_sent ());
  (* the victim's own Ready counts: 45 more make 46 *)
  List.iter (fun src -> vote ~src ready) (first 45);
  ignore (Sim.Engine.run engine ());
  checki "46 readies: no delivery" 0 (List.length !delivered);
  vote ~src:(List.nth sources 45) ready;
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (list (triple string int int)))
    "47 readies deliver" [ ("wide", 3, 5) ] !delivered

let test_bracha_physically_distinct_payloads_pool () =
  (* one vote record serves both the physical-equality fast path and
     the byte compare: shared and copied payloads add up *)
  let n = 4 and f = 1 in
  let engine, delivered, vote, readies_sent = bracha_victim ~n ~f in
  let shared = "shared payload" in
  let copy () = Bytes.to_string (Bytes.of_string shared) in
  vote ~src:0 (Rbc.Bracha.Echo { origin = 1; round = 2; payload = copy () });
  vote ~src:1 (Rbc.Bracha.Echo { origin = 1; round = 2; payload = shared });
  vote ~src:2 (Rbc.Bracha.Echo { origin = 1; round = 2; payload = shared });
  ignore (Sim.Engine.run engine ());
  checki "mixed echoes reach the quorum" 1 (readies_sent ());
  vote ~src:0 (Rbc.Bracha.Ready { origin = 1; round = 2; payload = shared });
  vote ~src:1 (Rbc.Bracha.Ready { origin = 1; round = 2; payload = copy () });
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (list (triple string int int)))
    "own ready + two mixed copies deliver" [ (shared, 2, 1) ] !delivered

let test_bracha_duplicate_vote_counts_once () =
  (* a link duplicate re-delivers a sender's vote: it must not count
     twice toward any threshold *)
  let n = 4 and f = 1 in
  let engine, delivered, vote, readies_sent = bracha_victim ~n ~f in
  let echo = Rbc.Bracha.Echo { origin = 0; round = 1; payload = "dup" } in
  let ready = Rbc.Bracha.Ready { origin = 0; round = 1; payload = "dup" } in
  List.iter (fun src -> vote ~src echo) [ 0; 1; 0; 1; 1 ];
  ignore (Sim.Engine.run engine ());
  checki "two echoers, five echoes: no ready" 0 (readies_sent ());
  List.iter (fun src -> vote ~src ready) [ 2; 2; 2 ];
  ignore (Sim.Engine.run engine ());
  checki "one ready sender, sent thrice: below f+1" 0 (readies_sent ());
  vote ~src:1 ready;
  ignore (Sim.Engine.run engine ());
  checki "second ready sender amplifies" 1 (readies_sent ());
  checki "own ready + 2 readers deliver" 1 (List.length !delivered);
  vote ~src:1 ready;
  vote ~src:2 ready;
  ignore (Sim.Engine.run engine ());
  checki "delivered once" 1 (List.length !delivered)

(* -- AVID-specific tests -- *)

let test_avid_inconsistent_dispersal_discarded () =
  let n = 4 and f = 1 in
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 11) in
  let net = Net.Network.create ~engine ~sched ~counters ~n in
  let tr = Trace.create () in
  let port = Net.Port.of_network net in
  let deliveries = Array.init n (fun _ -> ref []) in
  let eps =
    Array.init n (fun me ->
        Rbc.Avid.create_port ~port ~me ~f ~deliver:(fun ~payload ~round ~source ->
            deliveries.(me) := (payload, round, source) :: !(deliveries.(me))))
  in
  Array.iter (fun ep -> Rbc.Avid.set_trace ep tr) eps;
  Rbc.Avid.bcast_inconsistent eps.(0) ~payload:"evil payload" ~round:1;
  ignore (Sim.Engine.run engine ());
  Array.iter
    (fun log -> checki "non-codeword discarded everywhere" 0 (List.length !log))
    deliveries;
  (* every correct process decided the instance: it discarded it *)
  for node = 1 to n - 1 do
    checki
      (Printf.sprintf "p%d discards once" node)
      1
      (List.length
         (List.filter
            (fun (e : Trace.event) ->
              match e.kind with
              | Trace.Rbc_phase { node = p; origin = 0; round = 1; phase = "discard" }
                -> p = node
              | _ -> false)
            (Trace.events tr)))
  done;
  (* and an honest dispersal on the same instance space still works *)
  Rbc.Avid.bcast eps.(1) ~payload:"good" ~round:1;
  ignore (Sim.Engine.run engine ());
  Array.iter
    (fun log ->
      checki "honest instance unaffected" 1 (List.length !log);
      let p, _, s = List.hd !log in
      checks "payload" "good" p;
      checki "source" 1 s)
    deliveries

(* One AVID endpoint (process 0, n = 4, f = 1) driven message by message:
   the test plays processes 1..3, records what process 0 sends them, and
   runs the network to quiescence after each step. The dispersal is
   [payload] from origin 3, round 1. *)
type avid_probe = {
  inject : src:int -> Rbc.Avid.msg -> unit;
  sent : Rbc.Avid.msg list ref; (* by process 0 to processes 1..3 *)
  delivered : string list ref;
  echo_of : int -> Rbc.Avid.msg; (* process i's valid echo of fragment i *)
  disperse : Rbc.Avid.msg; (* process 0's fragment, from the origin *)
  ready : Rbc.Avid.msg;
}

let avid_probe payload =
  let n = 4 in
  let engine = Sim.Engine.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 5) in
  let net =
    Net.Network.create ~engine ~sched ~counters:(Metrics.Counters.create ()) ~n
  in
  let delivered = ref [] and sent = ref [] in
  ignore
    (Rbc.Avid.create_port ~port:(Net.Port.of_network net) ~me:0 ~f:1
       ~deliver:(fun ~payload ~round:_ ~source:_ ->
         delivered := payload :: !delivered));
  for i = 1 to n - 1 do
    Net.Network.register net i (fun ~src msg -> if src = 0 then sent := msg :: !sent)
  done;
  let frags = Crypto.Reed_solomon.encode (Crypto.Reed_solomon.make ~k:2 ~n) payload in
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree and data_len = String.length payload in
  let fragment i = (frags.(i), Crypto.Merkle.prove tree i) in
  let echo_of i =
    let frag, proof = fragment i in
    Rbc.Avid.Echo { origin = 3; round = 1; root; data_len; frag_index = i; frag; proof }
  in
  let disperse =
    let frag, proof = fragment 0 in
    Rbc.Avid.Disperse { round = 1; root; data_len; frag_index = 0; frag; proof }
  in
  let inject ~src msg =
    Net.Network.send net ~src ~dst:0 ~kind:"test" ~bits:0 msg;
    ignore (Sim.Engine.run engine ())
  in
  { inject; sent; delivered; echo_of; disperse;
    ready = Rbc.Avid.Ready { origin = 3; round = 1; root; data_len } }

let readies_sent p =
  List.length (List.filter (function Rbc.Avid.Ready _ -> true | _ -> false) !(p.sent))

(* A fragment byte-equal to the one held at its index reuses its leaf
   digest, but its path is still checked: two echoes of process 0's own
   fragment with a tampered path must not complete the 2f+1 echo quorum
   (with process 0's own echo they would make three). *)
let test_avid_held_fragment_tampered_proof () =
  let p = avid_probe "dispersed payload" in
  p.inject ~src:3 p.disperse;
  checki "own echo broadcast" 3 (List.length !(p.sent));
  let tampered =
    match p.echo_of 0 with
    | Rbc.Avid.Echo e ->
      let path =
        match e.proof.Crypto.Merkle.path with
        | sib :: rest -> String.map (fun c -> Char.chr (Char.code c lxor 1)) sib :: rest
        | [] -> assert false
      in
      Rbc.Avid.Echo { e with proof = { e.proof with Crypto.Merkle.path } }
    | _ -> assert false
  in
  p.inject ~src:1 tampered;
  p.inject ~src:2 tampered;
  checki "tampered echoes rejected: no Ready" 0 (readies_sent p);
  p.inject ~src:1 (p.echo_of 1);
  p.inject ~src:2 (p.echo_of 2);
  checki "valid echoes complete the quorum" 3 (readies_sent p)

(* The Ready quorum arrives before process 0's own Disperse. A Disperse
   stores its fragment without trying to deliver, so the echo that
   follows it (process 0's own) is what delivers, although process 0
   has sent Ready and holds k fragments. *)
let test_avid_ready_quorum_before_disperse () =
  let payload = "late dispersal" in
  let p = avid_probe payload in
  p.inject ~src:1 (p.echo_of 1);
  List.iter (fun src -> p.inject ~src p.ready) [ 1; 2; 3 ];
  checki "amplified Ready" 3 (readies_sent p);
  checki "one fragment: nothing delivered" 0 (List.length !(p.delivered));
  p.inject ~src:3 p.disperse;
  Alcotest.(check (list string)) "delivered by the next echo" [ payload ]
    !(p.delivered)

(* Process 0 delivers from two echoed fragments and the Ready quorum
   before its own Disperse arrives; deciding drops the instance's held
   fragments. The late Disperse is still verified from scratch and
   echoed, once, so the other processes get process 0's fragment. *)
let test_avid_disperse_after_delivery () =
  let payload = "delivered before dispersal" in
  let p = avid_probe payload in
  p.inject ~src:1 (p.echo_of 1);
  p.inject ~src:2 (p.echo_of 2);
  List.iter (fun src -> p.inject ~src p.ready) [ 1; 2; 3 ];
  Alcotest.(check (list string)) "delivered" [ payload ] !(p.delivered);
  let echoes () =
    List.length (List.filter (function Rbc.Avid.Echo _ -> true | _ -> false) !(p.sent))
  in
  checki "no echo yet" 0 (echoes ());
  p.inject ~src:3 p.disperse;
  checki "the late fragment is echoed to all three" 3 (echoes ());
  p.inject ~src:3 p.disperse;
  checki "and only once" 3 (echoes ());
  Alcotest.(check (list string)) "still delivered once" [ payload ] !(p.delivered)

(* Each process's deliver upcall re-enters [bcast] on its own endpoint,
   as a DAG node does when a delivery completes its round: the round-1
   payload must not share the coder's buffers, which the round-2
   dispersal (as long, so they are reused, not regrown) overwrites
   inside the upcall, and every round-2 instance must deliver too. *)
let test_avid_deliver_reenters_bcast () =
  let n = 4 and f = 1 in
  let engine = Sim.Engine.create () in
  let sched = Net.Sched.uniform_random ~rng:(Stdx.Rng.create 17) in
  let net =
    Net.Network.create ~engine ~sched ~counters:(Metrics.Counters.create ()) ~n
  in
  let port = Net.Port.of_network net in
  let first = String.init 300 (fun i -> Char.chr (i mod 251)) in
  let second i = String.init 300 (fun j -> Char.chr ((j * (i + 3)) mod 256)) in
  let eps = Array.make n None in
  let deliveries = Array.init n (fun _ -> ref []) in
  let deliver me ~payload ~round ~source =
    deliveries.(me) := (payload, round, source) :: !(deliveries.(me));
    if round = 1 then
      match eps.(me) with
      | Some ep -> Rbc.Avid.bcast ep ~payload:(second me) ~round:2
      | None -> assert false
  in
  Array.iteri
    (fun me _ ->
      eps.(me) <-
        Some (Rbc.Avid.create_port ~port ~me ~f ~deliver:(deliver me)))
    eps;
  (match eps.(0) with
  | Some ep -> Rbc.Avid.bcast ep ~payload:first ~round:1
  | None -> assert false);
  ignore (Sim.Engine.run engine ());
  let want =
    List.sort compare
      ((first, 1, 0) :: List.init n (fun i -> (second i, 2, i)))
  in
  Array.iteri
    (fun me log ->
      checkb
        (Printf.sprintf "p%d: round 1 and every round-2 instance intact" me)
        true
        (List.sort compare !log = want))
    deliveries

let test_avid_fragment_size_economy () =
  (* AVID's total traffic for a large payload must be far below
     Bracha's (each process relays |m|/(f+1) + proofs instead of |m|) *)
  let n = 10 and f = 3 in
  let payload = String.make 100_000 'z' in
  let bracha = make_fleet ~backend:B_bracha ~n ~f () in
  bracha.bcast 0 ~payload ~round:1;
  run bracha;
  let avid = make_fleet ~backend:B_avid ~n ~f () in
  avid.bcast 0 ~payload ~round:1;
  run avid;
  let bracha_bits = Metrics.Counters.total_bits bracha.counters in
  let avid_bits = Metrics.Counters.total_bits avid.counters in
  checkb
    (Printf.sprintf "avid (%d) < bracha (%d) / 2" avid_bits bracha_bits)
    true
    (avid_bits * 2 < bracha_bits)

(* -- gossip-specific tests -- *)

let test_gossip_subquadratic_messages () =
  (* per-broadcast message count must scale well below n^2 for large n
     (the O(n log n) constant only separates from n^2 once n is big) *)
  let n = 100 and f = 33 in
  let fleet = make_fleet ~backend:B_gossip ~n ~f () in
  fleet.bcast 0 ~payload:"m" ~round:1;
  run fleet;
  let msgs = Metrics.Counters.total_messages fleet.counters in
  checkb (Printf.sprintf "messages (%d) < n^2 (%d)" msgs (n * n)) true
    (msgs < n * n);
  (* and well below Bracha's 2n^2 + n payload-bearing messages *)
  checkb "less than half of bracha's count" true (2 * msgs < (2 * n * n) + n);
  (* and it still delivered everywhere (whp property, fixed seed) *)
  Array.iter (fun log -> checki "delivered" 1 (List.length !log)) fleet.deliveries

let test_gossip_eventual_delivery_many_seeds () =
  (* the epsilon-failure is bounded: across seeds, deliveries happen at
     every process with these parameters — a regression canary for the
     sample-size tuning *)
  List.iter
    (fun seed ->
      let n = 16 and f = 5 in
      let fleet = make_fleet ~seed ~backend:B_gossip ~n ~f () in
      fleet.bcast (seed mod n) ~payload:"g" ~round:1;
      run fleet;
      let delivered =
        Array.fold_left (fun acc log -> acc + List.length !log) 0 fleet.deliveries
      in
      checki (Printf.sprintf "seed %d: all delivered" seed) n delivered)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* -- wire codec property tests -- *)

let gen_payload = QCheck.Gen.string_size (QCheck.Gen.int_range 0 200)

let gen_bracha_msg =
  QCheck.Gen.(
    let* tag = int_range 0 2 in
    let* origin = int_range 0 50 in
    let* round = int_range 0 10_000 in
    let* payload = gen_payload in
    return
      (match tag with
      | 0 -> Rbc.Bracha.Init { round; payload }
      | 1 -> Rbc.Bracha.Echo { origin; round; payload }
      | _ -> Rbc.Bracha.Ready { origin; round; payload }))

let prop_bracha_codec =
  QCheck.Test.make ~name:"bracha wire codec roundtrip" ~count:300
    (QCheck.make gen_bracha_msg) (fun msg ->
      Rbc.Bracha.decode_msg (Rbc.Bracha.encode_msg msg) = Some msg)

let prop_bracha_msg_bits =
  QCheck.Test.make ~name:"bracha msg_bits = encoded size" ~count:300
    (QCheck.make gen_bracha_msg) (fun msg ->
      Rbc.Bracha.msg_bits msg = Rbc.Rbc_intf.Wire.bits (Rbc.Bracha.encode_msg msg))

let gen_digest = QCheck.Gen.map Crypto.Sha256.digest_string gen_payload

let gen_gossip_msg =
  QCheck.Gen.(
    let* tag = int_range 0 2 in
    let* origin = int_range 0 50 in
    let* round = int_range 0 10_000 in
    let* payload = gen_payload in
    let* digest = gen_digest in
    return
      (match tag with
      | 0 -> Rbc.Gossip.Gossip { origin; round; payload }
      | 1 -> Rbc.Gossip.Echo { origin; round; digest }
      | _ -> Rbc.Gossip.Ready { origin; round; digest }))

let prop_gossip_codec =
  QCheck.Test.make ~name:"gossip wire codec roundtrip" ~count:300
    (QCheck.make gen_gossip_msg) (fun msg ->
      Rbc.Gossip.decode_msg (Rbc.Gossip.encode_msg msg) = Some msg)

let prop_gossip_msg_bits =
  QCheck.Test.make ~name:"gossip msg_bits = encoded size" ~count:300
    (QCheck.make gen_gossip_msg) (fun msg ->
      Rbc.Gossip.msg_bits msg = Rbc.Rbc_intf.Wire.bits (Rbc.Gossip.encode_msg msg))

let gen_avid_msg =
  QCheck.Gen.(
    let* tag = int_range 0 2 in
    let* origin = int_range 0 50 in
    let* round = int_range 0 10_000 in
    let* data_len = int_range 0 100_000 in
    let* frag_index = int_range 0 50 in
    let* frag = gen_payload in
    let* root = gen_digest in
    let* path_len = int_range 0 6 in
    let* path_seed = int_range 0 1_000_000 in
    let path =
      List.init path_len (fun i ->
          Crypto.Sha256.digest_string (Printf.sprintf "%d-%d" path_seed i))
    in
    let proof = { Crypto.Merkle.leaf_index = frag_index; path } in
    return
      (match tag with
      | 0 -> Rbc.Avid.Disperse { round; root; data_len; frag_index; frag; proof }
      | 1 -> Rbc.Avid.Echo { origin; round; root; data_len; frag_index; frag; proof }
      | _ -> Rbc.Avid.Ready { origin; round; root; data_len }))

let prop_avid_codec =
  QCheck.Test.make ~name:"avid wire codec roundtrip" ~count:300
    (QCheck.make gen_avid_msg) (fun msg ->
      Rbc.Avid.decode_msg (Rbc.Avid.encode_msg msg) = Some msg)

let prop_avid_msg_bits =
  QCheck.Test.make ~name:"avid msg_bits = encoded size" ~count:300
    (QCheck.make gen_avid_msg) (fun msg ->
      Rbc.Avid.msg_bits msg = Rbc.Rbc_intf.Wire.bits (Rbc.Avid.encode_msg msg))

let test_codecs_reject_garbage () =
  List.iter
    (fun s ->
      checkb "bracha rejects" true (Rbc.Bracha.decode_msg s = None);
      checkb "avid rejects" true (Rbc.Avid.decode_msg s = None);
      checkb "gossip rejects" true (Rbc.Gossip.decode_msg s = None))
    [ ""; "\x00"; "\x09zzz"; String.make 3 '\x01'; "\x01\x00\x00\x00" ]

let test_codec_truncation_rejected () =
  let msg = Rbc.Bracha.Init { round = 7; payload = "hello world" } in
  let enc = Rbc.Bracha.encode_msg msg in
  for cut = 0 to String.length enc - 1 do
    checkb
      (Printf.sprintf "prefix of length %d rejected" cut)
      true
      (Rbc.Bracha.decode_msg (String.sub enc 0 cut) = None)
  done;
  checkb "trailing byte rejected" true (Rbc.Bracha.decode_msg (enc ^ "x") = None)

let backend_suite backend =
  let name = backend_name backend in
  [ Alcotest.test_case (name ^ ": validity") `Quick (test_validity backend);
    Alcotest.test_case (name ^ ": all senders") `Quick (test_all_senders backend);
    Alcotest.test_case (name ^ ": multiple rounds") `Quick
      (test_multiple_rounds backend);
    Alcotest.test_case (name ^ ": agreement") `Quick (test_agreement_on_logs backend);
    Alcotest.test_case (name ^ ": empty payload") `Quick (test_empty_payload backend);
    Alcotest.test_case (name ^ ": large payload") `Quick (test_large_payload backend)
  ]

let () =
  Alcotest.run "rbc"
    [ ("bracha-generic", backend_suite B_bracha);
      ("avid-generic", backend_suite B_avid);
      ("gossip-generic", backend_suite B_gossip);
      ( "bracha-byzantine",
        [ Alcotest.test_case "equivocation no split" `Quick
            test_bracha_equivocation_no_split;
          Alcotest.test_case "equivocation majority" `Quick
            test_bracha_equivocation_majority_converges;
          Alcotest.test_case "no delivery without quorum" `Quick
            test_bracha_no_delivery_without_quorum;
          Alcotest.test_case "integrity duplicate init" `Quick
            test_bracha_integrity_duplicate_init;
          Alcotest.test_case "f silent tolerated" `Quick
            test_bracha_silent_faults_tolerated;
          Alcotest.test_case "f+1 silent stalls" `Quick test_bracha_fplus1_faults_stall;
          Alcotest.test_case "byte-equal votes pool" `Quick
            test_bracha_votes_pool_equal_bytes;
          Alcotest.test_case "out-of-range origin dropped" `Quick
            test_bracha_out_of_range_origin_dropped;
          Alcotest.test_case "below horizon dropped" `Quick
            test_bracha_below_horizon_dropped;
          Alcotest.test_case "quorum at n=70" `Quick test_bracha_quorum_n70;
          Alcotest.test_case "physically distinct payloads pool" `Quick
            test_bracha_physically_distinct_payloads_pool;
          Alcotest.test_case "duplicate vote counts once" `Quick
            test_bracha_duplicate_vote_counts_once;
          Alcotest.test_case "distinct payloads never pool" `Quick
            test_bracha_votes_split_by_payload
        ] );
      ( "avid",
        [ Alcotest.test_case "inconsistent dispersal discarded" `Quick
            test_avid_inconsistent_dispersal_discarded;
          Alcotest.test_case "fragment economy" `Quick test_avid_fragment_size_economy;
          Alcotest.test_case "deliver re-enters bcast" `Quick
            test_avid_deliver_reenters_bcast;
          Alcotest.test_case "held fragment, tampered proof" `Quick
            test_avid_held_fragment_tampered_proof;
          Alcotest.test_case "ready quorum before disperse" `Quick
            test_avid_ready_quorum_before_disperse;
          Alcotest.test_case "disperse after delivery echoed" `Quick
            test_avid_disperse_after_delivery;
          Alcotest.test_case "out-of-range origin dropped" `Quick
            test_avid_out_of_range_origin_dropped;
          Alcotest.test_case "below horizon dropped" `Quick
            test_avid_below_horizon_dropped ] );
      ( "gossip",
        [ Alcotest.test_case "subquadratic messages" `Quick
            test_gossip_subquadratic_messages;
          Alcotest.test_case "eventual delivery across seeds" `Quick
            test_gossip_eventual_delivery_many_seeds;
          Alcotest.test_case "out-of-range origin dropped" `Quick
            test_gossip_out_of_range_origin_dropped;
          Alcotest.test_case "below horizon dropped" `Quick
            test_gossip_below_horizon_dropped ] );
      ( "wire-codecs",
        [ QCheck_alcotest.to_alcotest prop_bracha_codec;
          QCheck_alcotest.to_alcotest prop_gossip_codec;
          QCheck_alcotest.to_alcotest prop_avid_codec;
          QCheck_alcotest.to_alcotest prop_bracha_msg_bits;
          QCheck_alcotest.to_alcotest prop_avid_msg_bits;
          QCheck_alcotest.to_alcotest prop_gossip_msg_bits;
          Alcotest.test_case "garbage rejected" `Quick test_codecs_reject_garbage;
          Alcotest.test_case "truncation rejected" `Quick
            test_codec_truncation_rejected ] )
    ]
