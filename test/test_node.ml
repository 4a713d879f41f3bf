(* White-box tests of Dagrider.Node: a single node driven by scripted
   reliable-broadcast deliveries and coin shares, so we can exercise
   orderings the fleet harness can't force — coin instances resolving
   out of wave order, Byzantine vertex payloads, missing-predecessor
   buffering, and the paper's "flip the coin only after the wave" rule. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let n = 4
let f = 1

type script = {
  node : Dagrider.Node.t;
  engine : Sim.Engine.t;
  coin : Crypto.Threshold_coin.t;
  coin_net : Dagrider.Node.coin_msg Net.Network.t;
  (* the node's own broadcasts, captured instead of sent anywhere *)
  own_broadcasts : (string * int) list ref; (* payload, round *)
  deliver : payload:string -> round:int -> source:int -> unit;
  delivered : (string * int * int) list ref; (* a_deliver upcalls *)
}

let make_script ?(config_patch = fun c -> c) () =
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let sched = Net.Sched.synchronous () in
  let coin = Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.create 5) ~n ~f in
  let coin_net = Net.Network.create ~engine ~sched ~counters ~n in
  let own_broadcasts = ref [] in
  let captured_deliver = ref (fun ~payload:_ ~round:_ ~source:_ -> ()) in
  let make_rbc ~me:_ ~deliver =
    captured_deliver := deliver;
    { Dagrider.Node.rbc_bcast =
        (fun ~payload ~round -> own_broadcasts := (payload, round) :: !own_broadcasts);
      rbc_prune_below = (fun ~round:_ -> ()) }
  in
  let delivered = ref [] in
  let config =
    config_patch (Dagrider.Node.default_config ~n ~f)
  in
  let node =
    Dagrider.Node.create ~config ~me:0 ~coin
      ~coin_net:(Net.Port.of_network coin_net) ~make_rbc
      ~a_deliver:(fun ~block ~round ~source ->
        delivered := (block, round, source) :: !delivered)
      ()
  in
  { node;
    engine;
    coin;
    coin_net;
    own_broadcasts;
    deliver = (fun ~payload ~round ~source -> !captured_deliver ~payload ~round ~source);
    delivered }

(* feed the node a full round of vertices from the other three sources,
   each pointing at all of the previous round; the node's own vertex is
   self-delivered from its captured broadcast *)
let feed_round s ~round =
  (* replay the node's own broadcast for this round first (reliable
     broadcast delivers to self too) *)
  (match List.assoc_opt round (List.map (fun (p, r) -> (r, p)) !(s.own_broadcasts)) with
  | Some payload -> s.deliver ~payload ~round ~source:0
  | None -> ());
  let prev =
    if round = 1 then List.init n (fun source -> { Dagrider.Vertex.round = 0; source })
    else List.init n (fun source -> { Dagrider.Vertex.round = round - 1; source })
  in
  for source = 1 to n - 1 do
    let v =
      { Dagrider.Vertex.round;
        source;
        block = Printf.sprintf "b%d.%d" round source;
        strong_edges = prev;
        weak_edges = [] }
    in
    s.deliver ~payload:(Dagrider.Vertex.encode v) ~round ~source
  done

let send_share s ~from_ ~wave =
  Net.Network.send s.coin_net ~src:from_ ~dst:0 ~kind:"coin-share" ~bits:96
    (Dagrider.Node.Coin_share
       (Crypto.Threshold_coin.make_share s.coin ~holder:from_ ~instance:wave));
  ignore (Sim.Engine.run s.engine ())

let test_rounds_advance_on_quorum () =
  let s = make_script () in
  Dagrider.Node.start s.node;
  checki "broadcast round 1 at start" 1 (List.length !(s.own_broadcasts));
  feed_round s ~round:1;
  checki "advanced to round 2" 2 (Dagrider.Node.current_round s.node);
  checki "broadcast round 2" 2 (List.length !(s.own_broadcasts));
  feed_round s ~round:2;
  checki "advanced to round 3" 3 (Dagrider.Node.current_round s.node)

let test_wave_completion_without_coin_defers_ordering () =
  let s = make_script () in
  Dagrider.Node.start s.node;
  for r = 1 to 4 do
    feed_round s ~round:r
  done;
  checki "wave 1 completed" 1 (Dagrider.Node.waves_completed s.node);
  checki "nothing delivered before the coin resolves" 0
    (List.length !(s.delivered));
  (* the node released its own share on completing the wave; one more
     share (f+1 = 2 total) resolves the instance *)
  send_share s ~from_:1 ~wave:1;
  checki "coin resolved" 1 (Dagrider.Node.coin_instances_resolved s.node)

let test_out_of_order_coin_resolution () =
  (* shares for wave 2 resolve before wave 1's: ordering must still be
     wave 1 first (the node queues wave 2 until wave 1 is processed) *)
  let s = make_script () in
  Dagrider.Node.start s.node;
  for r = 1 to 8 do
    feed_round s ~round:r
  done;
  checki "two waves completed" 2 (Dagrider.Node.waves_completed s.node);
  (* the node's own shares for waves 1 and 2 are already out (wave
     completion releases them); deliver a peer's share for wave 2 FIRST *)
  send_share s ~from_:1 ~wave:2;
  checki "wave 2 coin resolved first" 1
    (Dagrider.Node.coin_instances_resolved s.node);
  let delivered_before = List.length !(s.delivered) in
  checki "still nothing ordered (wave 1 unresolved)" 0 delivered_before;
  send_share s ~from_:1 ~wave:1;
  checki "both coins resolved" 2 (Dagrider.Node.coin_instances_resolved s.node);
  checkb "ordering happened" true (List.length !(s.delivered) > 0);
  (* decided wave advanced through both waves in order *)
  checki "decided wave 2" 2
    (Dagrider.Ordering.decided_wave (Dagrider.Node.ordering s.node));
  (* the log is causally ordered: rounds never decrease within a leader
     batch beyond causal order — minimal check: first delivery is from
     round 1 *)
  let _, first_round, _ = List.nth !(s.delivered) (List.length !(s.delivered) - 1) in
  checki "first delivered vertex is round 1" 1 first_round

let test_malformed_payload_dropped () =
  let s = make_script () in
  Dagrider.Node.start s.node;
  s.deliver ~payload:"garbage bytes" ~round:1 ~source:2;
  s.deliver ~payload:"" ~round:1 ~source:3;
  checki "node unaffected" 1 (Dagrider.Node.current_round s.node);
  checki "nothing buffered" 0 (Dagrider.Node.buffered s.node)

let test_invalid_vertex_rejected () =
  let s = make_script () in
  Dagrider.Node.start s.node;
  (* too few strong edges *)
  let bad =
    { Dagrider.Vertex.round = 1;
      source = 2;
      block = "evil";
      strong_edges = [ { Dagrider.Vertex.round = 0; source = 0 } ];
      weak_edges = [] }
  in
  s.deliver ~payload:(Dagrider.Vertex.encode bad) ~round:1 ~source:2;
  checki "rejected, not buffered" 0 (Dagrider.Node.buffered s.node);
  (* round/source in the envelope win over attacker-controlled bytes:
     deliver a valid round-1 vertex under a round-2 envelope — validation
     sees round 2 but strong edges point at round 0, so it is rejected *)
  let v =
    { Dagrider.Vertex.round = 1;
      source = 2;
      block = "";
      strong_edges = List.init n (fun source -> { Dagrider.Vertex.round = 0; source });
      weak_edges = [] }
  in
  s.deliver ~payload:(Dagrider.Vertex.encode v) ~round:2 ~source:2;
  checki "mismatched envelope rejected" 0 (Dagrider.Node.buffered s.node)

let test_future_vertex_buffers_until_predecessors () =
  let s = make_script () in
  Dagrider.Node.start s.node;
  (* a round-2 vertex arrives before any round-1 vertex *)
  let early =
    { Dagrider.Vertex.round = 2;
      source = 1;
      block = "early";
      strong_edges = List.init n (fun source -> { Dagrider.Vertex.round = 1; source });
      weak_edges = [] }
  in
  s.deliver ~payload:(Dagrider.Vertex.encode early) ~round:2 ~source:1;
  checki "buffered" 1 (Dagrider.Node.buffered s.node);
  checki "round unchanged" 1 (Dagrider.Node.current_round s.node);
  (* its predecessors arrive: the buffer drains and rounds advance *)
  feed_round s ~round:1;
  checki "buffer drained" 0 (Dagrider.Node.buffered s.node);
  checkb "vertex joined the DAG" true
    (Dagrider.Dag.contains (Dagrider.Node.dag s.node)
       { Dagrider.Vertex.round = 2; source = 1 })

let test_share_only_after_wave_completion () =
  (* the paper's unpredictability hinge: no share for wave w leaves this
     node before it completes round(w, 4) *)
  let s = make_script () in
  Dagrider.Node.start s.node;
  let coin_sends () =
    (* count coin messages the node broadcast so far: the script's
       coin_net delivers to nobody, so count via delivered+pending *)
    Sim.Engine.pending s.engine
  in
  for r = 1 to 3 do
    feed_round s ~round:r;
    checki
      (Printf.sprintf "no coin traffic during round %d" r)
      0 (coin_sends ())
  done;
  feed_round s ~round:4;
  checkb "share released on wave completion" true (coin_sends () > 0)

let test_duplicate_vertex_ignored () =
  let s = make_script () in
  Dagrider.Node.start s.node;
  feed_round s ~round:1;
  let dag_size = List.length (Dagrider.Dag.vertices (Dagrider.Node.dag s.node)) in
  (* replay the same round (reliable broadcast would never do this, but
     a Byzantine network stack might) *)
  feed_round s ~round:1;
  checki "no growth on replay" dag_size
    (List.length (Dagrider.Dag.vertices (Dagrider.Node.dag s.node)))

let test_a_bcast_blocks_ride_vertices () =
  let s = make_script () in
  Dagrider.Node.a_bcast s.node "queued-before-start";
  Dagrider.Node.start s.node;
  (* the first broadcast vertex carries the queued block *)
  let payload, round = List.hd !(s.own_broadcasts) in
  checki "round 1" 1 round;
  match Dagrider.Vertex.decode ~round:1 ~source:0 payload with
  | Some v ->
    Alcotest.(check string) "block" "queued-before-start" v.Dagrider.Vertex.block
  | None -> Alcotest.fail "own vertex must decode"

(* ---- coin in the DAG: an embedded share is bound to its vertex ----

   Under [In_dag] a share rides the payload frame
     <vertex bytes> <u32 holder> <u32 instance> <u32 value> '\001'
   (or <vertex bytes> '\000' without one). The frames here are built by
   hand, so a change to the format fails this test too. *)

let framed v (share : Crypto.Threshold_coin.share option) =
  let u32 x = String.init 4 (fun i -> Char.chr ((x lsr (8 * (3 - i))) land 0xFF)) in
  Dagrider.Vertex.encode v
  ^
  match share with
  | None -> "\000"
  | Some s -> u32 s.holder ^ u32 s.instance ^ u32 s.value ^ "\001"

let test_embedded_share_bound_to_vertex () =
  let s =
    make_script
      ~config_patch:(fun c -> { c with Dagrider.Node.coin_mode = Dagrider.Node.In_dag })
      ()
  in
  Dagrider.Node.start s.node;
  let deliver_round ?(own = true) ~round shares =
    (if own then
       match List.assoc_opt round (List.map (fun (p, r) -> (r, p)) !(s.own_broadcasts)) with
       | Some payload -> s.deliver ~payload ~round ~source:0
       | None -> ());
    List.iter
      (fun (source, share) ->
        let v =
          { Dagrider.Vertex.round;
            source;
            block = Printf.sprintf "b%d.%d" round source;
            strong_edges =
              List.init n (fun source -> { Dagrider.Vertex.round = round - 1; source });
            weak_edges = [] }
        in
        s.deliver ~payload:(framed v share) ~round ~source)
      shares
  in
  for round = 1 to 4 do
    deliver_round ~round [ (1, None); (2, None); (3, None) ]
  done;
  (* round 5 = L*1 + 1 carries wave 1's shares; the node's own vertex
     put its share in the bucket *)
  let share ~holder ~instance =
    Some (Crypto.Threshold_coin.make_share s.coin ~holder ~instance)
  in
  deliver_round ~round:5
    [ (1, share ~holder:2 ~instance:1); (* someone else's share *)
      (2, share ~holder:2 ~instance:2) (* a wave this round does not complete *) ];
  checkb "mis-bound vertices still join the DAG" true
    (List.for_all
       (fun source ->
         Dagrider.Dag.contains (Dagrider.Node.dag s.node)
           { Dagrider.Vertex.round = 5; source })
       [ 1; 2 ]);
  checki "no mis-bound share resolved the coin" 0
    (Dagrider.Node.coin_instances_resolved s.node);
  checki "no bucket opened for the wrong instance" 1
    (Dagrider.Node.coin_buckets s.node);
  (* a correctly bound share is the f+1-th: the coin resolves *)
  deliver_round ~own:false ~round:5 [ (3, share ~holder:3 ~instance:1) ];
  checki "bound share resolves wave 1" 1
    (Dagrider.Node.coin_instances_resolved s.node)

(* ---- checkpoint / restart ---- *)

let test_checkpoint_restore_roundtrip () =
  (* run a real fleet, checkpoint node 0 (through full serialization),
     rebuild it, and verify it resumes without re-delivering *)
  let opts = { (Harness.Runner.default_options ~n:4) with seed = 61 } in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:40.0;
  let original = Harness.Runner.node h 0 in
  let ck = Dagrider.Node.checkpoint original in
  (* full persistence roundtrip: DAG and delivered refs through the
     Snapshot codec, scalars as the caller would store them *)
  let dag' =
    match
      Dagrider.Snapshot.dag_of_string
        (Dagrider.Snapshot.dag_to_string ck.Dagrider.Node.ck_dag)
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let delivered_refs =
    match
      Dagrider.Snapshot.delivered_of_string
        (Dagrider.Snapshot.delivered_to_string
           (List.map Dagrider.Vertex.vref_of ck.Dagrider.Node.ck_delivered))
    with
    | Ok refs -> refs
    | Error e -> Alcotest.fail e
  in
  let delivered =
    List.map (fun r -> Option.get (Dagrider.Dag.find dag' r)) delivered_refs
  in
  let ck' =
    { Dagrider.Node.ck_dag = dag';
      ck_delivered = delivered;
      ck_decided_wave = ck.Dagrider.Node.ck_decided_wave;
      ck_round = ck.Dagrider.Node.ck_round }
  in
  (* the fleet keeps running while node 0 is "down": its peers get ahead *)
  Harness.Runner.run h ~until:60.0;
  (* rebuild on a scripted transport *)
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let coin_net =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ()) ~counters ~n:4
  in
  let own = ref [] in
  let captured = ref (fun ~payload:_ ~round:_ ~source:_ -> ()) in
  let make_rbc ~me:_ ~deliver =
    captured := deliver;
    { Dagrider.Node.rbc_bcast = (fun ~payload ~round -> own := (payload, round) :: !own);
      rbc_prune_below = (fun ~round:_ -> ()) }
  in
  let redelivered = ref 0 in
  let restored =
    Dagrider.Node.create
      ~config:(Dagrider.Node.default_config ~n:4 ~f:1)
      ~me:0
      ~coin:(Harness.Runner.coin h)
      ~coin_net:(Net.Port.of_network coin_net) ~make_rbc
      ~a_deliver:(fun ~block:_ ~round:_ ~source:_ -> incr redelivered)
      ()
  in
  Dagrider.Node.restore restored ck';
  checki "same round" ck.Dagrider.Node.ck_round
    (Dagrider.Node.current_round restored);
  checki "same decided wave" ck.Dagrider.Node.ck_decided_wave
    (Dagrider.Ordering.decided_wave (Dagrider.Node.ordering restored));
  checki "same delivered count"
    (List.length ck.Dagrider.Node.ck_delivered)
    (Dagrider.Ordering.delivered_count (Dagrider.Node.ordering restored));
  Dagrider.Node.start restored;
  checki "no new broadcast on start (no equivocation)" 0 (List.length !own);
  checki "nothing re-delivered" 0 !redelivered;
  (* feed the restored node what another live node already has beyond the
     checkpoint: it must catch up and keep delivering in agreement *)
  let peer_dag = Dagrider.Node.dag (Harness.Runner.node h 1) in
  let ck_round = ck.Dagrider.Node.ck_round in
  let fed = ref 0 in
  for r = 1 to Dagrider.Dag.highest_round peer_dag do
    List.iter
      (fun v ->
        if not (Dagrider.Dag.contains (Dagrider.Node.dag restored) (Dagrider.Vertex.vref_of v))
        then begin
          incr fed;
          !captured
            ~payload:(Dagrider.Vertex.encode v)
            ~round:v.Dagrider.Vertex.round ~source:v.Dagrider.Vertex.source
        end)
      (Dagrider.Dag.round_vertices peer_dag r)
  done;
  checkb "received new vertices" true (!fed > 0);
  checkb "advanced past the checkpoint" true
    (Dagrider.Node.current_round restored > ck_round);
  checkb "broadcast resumed for NEW rounds only" true
    (List.for_all (fun (_, r) -> r > ck_round) !own);
  (* deliver enough coin shares for the next undecided waves *)
  for wave = ck.Dagrider.Node.ck_decided_wave + 1
      to Dagrider.Node.waves_completed restored do
    for from_ = 1 to 2 do
      Net.Network.send coin_net ~src:from_ ~dst:0 ~kind:"coin-share" ~bits:96
        (Dagrider.Node.Coin_share
           (Crypto.Threshold_coin.make_share (Harness.Runner.coin h)
              ~holder:from_ ~instance:wave))
    done
  done;
  ignore (Sim.Engine.run engine ());
  (* the restored node's continued log must extend consistently with the
     peer's log (prefix agreement) *)
  let restored_log =
    List.map Dagrider.Vertex.vref_of (Dagrider.Node.delivered_log restored)
  in
  let peer_log =
    List.map Dagrider.Vertex.vref_of
      (Dagrider.Node.delivered_log (Harness.Runner.node h 1))
  in
  let rec prefix_ok = function
    | [], _ | _, [] -> true
    | x :: xs, y :: ys -> x = y && prefix_ok (xs, ys)
  in
  checkb "restored log prefix-consistent with peer" true
    (prefix_ok (restored_log, peer_log));
  checkb "restored node delivered beyond the checkpoint" true
    (List.length restored_log > List.length ck.Dagrider.Node.ck_delivered)

(* Under GC the rounds below the horizon are empty by pruning. A node
   restored at a long horizon must ask for rounds from its horizon up:
   asking from round 1 would have every responder spend its response cap
   on rounds the requester has already pruned. *)
let test_restart_sync_request_at_horizon () =
  let opts =
    { (Harness.Runner.default_options ~n:4) with seed = 62; gc_depth = Some 4 }
  in
  let h = Harness.Runner.build opts in
  Harness.Runner.run h ~until:200.0;
  let ck = Dagrider.Node.checkpoint (Harness.Runner.node h 0) in
  let horizon = Dagrider.Dag.pruned_below ck.Dagrider.Node.ck_dag in
  checkb (Printf.sprintf "long horizon (%d)" horizon) true (horizon > 20);
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let network () =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ()) ~counters ~n:4
  in
  let coin_net = network () and sync_net = network () in
  let requests = ref [] in
  for peer = 1 to 3 do
    Net.Network.register sync_net peer (fun ~src msg ->
        match msg with
        | Dagrider.Node.Sync_request { from_round } when src = 0 ->
          requests := from_round :: !requests
        | _ -> ())
  done;
  let make_rbc ~me:_ ~deliver:_ =
    { Dagrider.Node.rbc_bcast = (fun ~payload:_ ~round:_ -> ());
      rbc_prune_below = (fun ~round:_ -> ()) }
  in
  let restored =
    Dagrider.Node.create
      ~config:
        { (Dagrider.Node.default_config ~n:4 ~f:1) with gc_depth = Some 4 }
      ~me:0 ~coin:(Harness.Runner.coin h)
      ~coin_net:(Net.Port.of_network coin_net) ~make_rbc
      ~sync_net:(Net.Port.of_network sync_net) ()
  in
  Dagrider.Node.restore restored ck;
  checki "restored horizon" horizon
    (Dagrider.Dag.pruned_below (Dagrider.Node.dag restored));
  ignore (Sim.Engine.run engine ());
  checki "one request per peer" 3 (List.length !requests);
  List.iter
    (fun from_round ->
      checkb
        (Printf.sprintf "request from round %d >= horizon %d" from_round
           horizon)
        true (from_round >= horizon))
    !requests

(* ---- bounded share buckets ---- *)

(* A bucket takes each holder once: a Byzantine holder resending its
   valid share leaves one entry and no combine, a share from outside the
   fleet or a forged one is held nowhere, and the f+1-th distinct holder
   runs [combine] once and removes the bucket. *)
let test_share_bucket_bounded () =
  let s = make_script () in
  let combines () = Crypto.Threshold_coin.combines s.coin in
  let before = combines () in
  let send ~src share =
    Net.Network.send s.coin_net ~src ~dst:0 ~kind:"coin-share" ~bits:96
      (Dagrider.Node.Coin_share share)
  in
  let share holder = Crypto.Threshold_coin.make_share s.coin ~holder ~instance:1 in
  for _ = 1 to 1000 do
    send ~src:3 (share 3)
  done;
  ignore (Sim.Engine.run s.engine ());
  checki "one bucket" 1 (Dagrider.Node.coin_buckets s.node);
  checki "one entry for 1000 copies" 1 (Dagrider.Node.coin_shares_held s.node);
  checki "no combine below f+1" 0 (combines () - before);
  let valid = share 2 in
  send ~src:2 { valid with value = (valid.value + 1) mod 0x7FFFFFFF };
  send ~src:2 { valid with holder = n };
  send ~src:2 { (share 3) with instance = 9 };
  ignore (Sim.Engine.run s.engine ());
  checki "forged shares held nowhere" 1 (Dagrider.Node.coin_shares_held s.node);
  checki "no bucket for a forged share" 1 (Dagrider.Node.coin_buckets s.node);
  send ~src:1 (share 1);
  for _ = 1 to 1000 do
    send ~src:3 (share 3)
  done;
  ignore (Sim.Engine.run s.engine ());
  checki "resolved" 1 (Dagrider.Node.coin_instances_resolved s.node);
  checki "combined once" 1 (combines () - before);
  checki "bucket removed" 0 (Dagrider.Node.coin_buckets s.node);
  checki "nothing held" 0 (Dagrider.Node.coin_shares_held s.node)

(* ---- delivery-path allocation ---- *)

let vertex_at ~round ~source =
  { Dagrider.Vertex.round;
    source;
    block = Printf.sprintf "b%d.%d" round source;
    strong_edges =
      List.init n (fun s -> { Dagrider.Vertex.round = round - 1; source = s });
    weak_edges = [] }

(* the minor words one r_delivery of [v] allocates *)
let delivery_words s (v : Dagrider.Vertex.t) =
  let payload = Dagrider.Vertex.encode v in
  let round = v.round and source = v.source in
  let before = Gc.minor_words () in
  s.deliver ~payload ~round ~source;
  Gc.minor_words () -. before

(* what the node keeps of a delivery: the decoded vertex, and the [Some]
   [decode] wraps it in *)
let decoded_words (v : Dagrider.Vertex.t) =
  match
    Dagrider.Vertex.decode ~round:v.round ~source:v.source
      (Dagrider.Vertex.encode v)
  with
  | Some d -> Obj.reachable_words (Obj.repr d) + 2
  | None -> Alcotest.fail "decode failed"

(* A delivery allocates its decoded vertex and nothing else, whether it
   waits in the buffer (each buffer pass over the waiting vertices
   allocates nothing) or joins a round the DAG already has a row for.
   Like every allocation bound in the suite, these hold for the
   repository's default (release) build. *)
let test_delivery_allocation () =
  let s = make_script () in
  Dagrider.Node.start s.node;
  (* round-3 vertices wait for round 2; the first fills the buffer's
     arrays *)
  ignore (delivery_words s (vertex_at ~round:3 ~source:0));
  for source = 1 to 2 do
    let v = vertex_at ~round:3 ~source in
    let words = delivery_words s v in
    checkb
      (Printf.sprintf "waiting delivery: %.0f words = %d" words (decoded_words v))
      true
      (words = float_of_int (decoded_words v))
  done;
  checki "three waiting" 3 (Dagrider.Node.buffered s.node);
  (* the first round-1 vertex makes the row; the second joins it, and
     round 1 still lacks its quorum *)
  ignore (delivery_words s (vertex_at ~round:1 ~source:1));
  let v = vertex_at ~round:1 ~source:2 in
  let words = delivery_words s v in
  checkb
    (Printf.sprintf "addable delivery: %.0f words = %d" words (decoded_words v))
    true
    (words = float_of_int (decoded_words v));
  checkb "added" true
    (Dagrider.Dag.contains (Dagrider.Node.dag s.node)
       { Dagrider.Vertex.round = 1; source = 2 });
  checki "round 1 open" 1 (Dagrider.Node.current_round s.node)

(* ---- the buffer against its reference (test/buffer_reference.ml) ---- *)

type intake = Rbc of Dagrider.Vertex.t | Sync of Dagrider.Vertex.t

let shuffle st l =
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let take k l = List.filteri (fun i _ -> i < k) l

(* A DAG of rounds 1..8 at n = 4 from [seed]: each round has 3 or 4
   vertices, each with 3 or more strong edges into the round below and
   up to two weak edges into rounds 1..r-2, plus the order they arrive
   in: shuffled, some twice, some by sync, and some equivocated by a
   lying sync responder. *)
let scenario seed =
  let st = Random.State.make [| seed |] in
  let rounds = 8 in
  let vertices = ref [] in
  let prev = ref (List.init n Fun.id) in
  for round = 1 to rounds do
    let present = take (3 + Random.State.int st 2) (shuffle st (List.init n Fun.id)) in
    let lower =
      List.filter (fun (v : Dagrider.Vertex.t) -> v.round <= round - 2) !vertices
    in
    List.iter
      (fun source ->
        let strong =
          take (3 + Random.State.int st (List.length !prev - 2)) (shuffle st !prev)
          |> List.map (fun s -> { Dagrider.Vertex.round = round - 1; source = s })
        in
        let weak =
          if lower = [] then []
          else
            take (Random.State.int st 3) (shuffle st lower)
            |> List.map Dagrider.Vertex.vref_of
        in
        vertices :=
          { Dagrider.Vertex.round;
            source;
            block = Printf.sprintf "b%d.%d" round source;
            strong_edges = strong;
            weak_edges = weak }
          :: !vertices)
      present;
    prev := present
  done;
  let intakes =
    List.concat_map
      (fun v ->
        let copy () = if Random.State.int st 3 = 0 then Sync v else Rbc v in
        let lie =
          if Random.State.int st 10 = 0 then
            [ Sync { v with Dagrider.Vertex.block = v.Dagrider.Vertex.block ^ "'" } ]
          else []
        in
        (copy () :: (if Random.State.int st 4 = 0 then [ copy () ] else [])) @ lie)
      !vertices
  in
  let horizon = List.nth [ 0; 0; 2; 3 ] (Random.State.int st 4) in
  let coin_mode =
    if Random.State.bool st then Dagrider.Node.In_dag
    else Dagrider.Node.Separate_network
  in
  (shuffle st intakes, horizon, coin_mode, Random.State.bool st)

(* A node restored at [horizon] (so vertices below it are dropped),
   whose coin never resolves (so nothing commits and the horizon stays),
   with a sync channel; returns it, its r_deliver upcall, a sync
   delivery and the vertices it added, newest first. *)
let buffer_node ~horizon ~coin_mode ~trusting =
  let counters = Metrics.Counters.create () in
  let network engine =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ()) ~counters ~n
  in
  let coin_net = network (Sim.Engine.create ()) in
  let sync_engine = Sim.Engine.create () in
  let sync_net = network sync_engine in
  for peer = 1 to n - 1 do
    Net.Network.register sync_net peer (fun ~src:_ _ -> ())
  done;
  let deliver = ref (fun ~payload:_ ~round:_ ~source:_ -> ()) in
  let make_rbc ~me:_ ~deliver:d =
    deliver := d;
    { Dagrider.Node.rbc_bcast = (fun ~payload:_ ~round:_ -> ());
      rbc_prune_below = (fun ~round:_ -> ()) }
  in
  let trace = Trace.create () in
  let added = ref [] in
  Trace.add_sink trace (fun e ->
      match e.Trace.kind with
      | Trace.Vertex_added { round; source; _ } ->
        added := { Dagrider.Vertex.round; source } :: !added
      | _ -> ());
  let node =
    Dagrider.Node.create
      ~config:{ (Dagrider.Node.default_config ~n ~f) with coin_mode }
      ~me:0
      ~coin:(Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.create 5) ~n ~f)
      ~coin_net:(Net.Port.of_network coin_net) ~make_rbc
      ~sync_net:(Net.Port.of_network sync_net) ~sync_trusting:trusting ~trace ()
  in
  let ck_dag = Dagrider.Dag.create ~n in
  Dagrider.Dag.prune_below ck_dag ~round:horizon;
  Dagrider.Node.restore node
    { Dagrider.Node.ck_dag;
      ck_delivered = [];
      ck_decided_wave = 0;
      ck_round = max 1 horizon };
  let rbc (v : Dagrider.Vertex.t) =
    let payload =
      Dagrider.Node.encode_payload node ~vertex_bytes:(Dagrider.Vertex.encode v)
        ~share:None
    in
    !deliver ~payload ~round:v.round ~source:v.source
  in
  (* f + 1 distinct responders, or one when trusting *)
  let sync (v : Dagrider.Vertex.t) =
    let msg =
      Dagrider.Node.Sync_response
        { vertices = [ (Dagrider.Vertex.encode v, v.round, v.source) ] }
    in
    List.iter
      (fun src ->
        Net.Network.send sync_net ~src ~dst:0 ~kind:"sync-response" ~bits:8 msg)
      (if trusting then [ 1 ] else [ 1; 2 ]);
    ignore (Sim.Engine.run sync_engine ())
  in
  (node, rbc, sync, added)

let show_ref (r : Dagrider.Vertex.vref) = Printf.sprintf "%d/%d" r.round r.source

let prop_buffer_matches_reference =
  QCheck.Test.make ~name:"buffer passes = reference drain" ~count:300
    (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let intakes, horizon, coin_mode, trusting = scenario seed in
      let node, rbc, sync, added = buffer_node ~horizon ~coin_mode ~trusting in
      let reference = Buffer_reference.create ~n ~horizon in
      List.iteri
        (fun step intake ->
          (match intake with
          | Rbc v ->
            rbc v;
            Buffer_reference.deliver reference v
          | Sync v ->
            sync v;
            Buffer_reference.admit reference v);
          let fail what =
            QCheck.Test.fail_reportf "step %d (horizon %d): %s" step horizon what
          in
          let order = List.rev !added in
          if order <> Buffer_reference.insertion_order reference then
            fail
              (Printf.sprintf "insertion order [%s] vs [%s]"
                 (String.concat " " (List.map show_ref order))
                 (String.concat " "
                    (List.map show_ref (Buffer_reference.insertion_order reference))));
          if Dagrider.Node.buffered node <> Buffer_reference.buffered reference then
            fail
              (Printf.sprintf "buffered %d vs %d" (Dagrider.Node.buffered node)
                 (Buffer_reference.buffered reference));
          let dag = Dagrider.Node.dag node and ref_dag = reference.dag in
          for round = 1 to Dagrider.Dag.highest_round ref_dag + 1 do
            let strong_edges = Dagrider.Dag.round_refs ref_dag (round - 1) in
            if
              Dagrider.Dag.weak_edges dag ~round ~strong_edges
              <> Dagrider.Dag.weak_edges ref_dag ~round ~strong_edges
            then fail (Printf.sprintf "weak edges for round %d" round)
          done)
        intakes;
      true)

let () =
  Alcotest.run "node"
    [ ( "scripted",
        [ Alcotest.test_case "rounds advance on quorum" `Quick
            test_rounds_advance_on_quorum;
          Alcotest.test_case "wave defers ordering to coin" `Quick
            test_wave_completion_without_coin_defers_ordering;
          Alcotest.test_case "out-of-order coin resolution" `Quick
            test_out_of_order_coin_resolution;
          Alcotest.test_case "malformed payloads dropped" `Quick
            test_malformed_payload_dropped;
          Alcotest.test_case "invalid vertices rejected" `Quick
            test_invalid_vertex_rejected;
          Alcotest.test_case "future vertex buffers" `Quick
            test_future_vertex_buffers_until_predecessors;
          Alcotest.test_case "share only after wave" `Quick
            test_share_only_after_wave_completion;
          Alcotest.test_case "duplicate vertex ignored" `Quick
            test_duplicate_vertex_ignored;
          Alcotest.test_case "a_bcast rides vertices" `Quick
            test_a_bcast_blocks_ride_vertices;
          Alcotest.test_case "embedded share bound to its vertex" `Quick
            test_embedded_share_bound_to_vertex ] );
      ( "restart",
        [ Alcotest.test_case "checkpoint/restore roundtrip" `Quick
            test_checkpoint_restore_roundtrip;
          Alcotest.test_case "sync request starts at the GC horizon" `Quick
            test_restart_sync_request_at_horizon ] );
      ( "delivery",
        [ Alcotest.test_case "share bucket bounded" `Quick
            test_share_bucket_bounded;
          Alcotest.test_case "allocation" `Quick test_delivery_allocation;
          QCheck_alcotest.to_alcotest prop_buffer_matches_reference ] )
    ]
