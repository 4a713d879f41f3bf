(* Tests for the lossy-link stack: fault-injection policies, the
   ack/retransmit reliable transport, wire-decoder fuzzing, and
   loss-aware harness runs with their diagnostics. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- Faults policies ---- *)

(* the verdict [p] gives a message sent at [now] *)
let verdict_at p ~now ~src ~dst ~kind =
  p.Net.Faults.decide { Net.Sched.now; delay = 0.0 } ~src ~dst ~kind

let test_faults_none_is_clean () =
  let v = verdict_at Net.Faults.none ~now:1.0 ~src:0 ~dst:1 ~kind:"x" in
  checkb "none is clean" true (v = Net.Faults.clean)

let test_faults_determinism () =
  let verdicts seed =
    let p =
      Net.Faults.lossy ~rng:(Stdx.Rng.create seed) ~drop:0.3 ~duplicate:0.2
        ~corrupt:0.1 ~reorder:0.4 ()
    in
    List.init 200 (fun i ->
        verdict_at p ~now:(float_of_int i) ~src:(i mod 4)
          ~dst:((i + 1) mod 4) ~kind:"k")
  in
  checkb "same seed, same verdicts" true (verdicts 9 = verdicts 9);
  checkb "policy actually faults" true
    (List.exists (fun v -> v.Net.Faults.drop) (verdicts 9))

let test_faults_on_links () =
  let inner =
    Net.Faults.lossy ~rng:(Stdx.Rng.create 1) ~drop:1.0 ()
  in
  let p = Net.Faults.on_links ~pred:(fun ~src ~dst -> src = 2 && dst = 0) inner in
  let v_hit = verdict_at p ~now:0.0 ~src:2 ~dst:0 ~kind:"k" in
  let v_miss = verdict_at p ~now:0.0 ~src:0 ~dst:2 ~kind:"k" in
  checkb "matching link faulted" true v_hit.Net.Faults.drop;
  checkb "other links clean" true (v_miss = Net.Faults.clean)

let test_faults_window () =
  let inner = Net.Faults.lossy ~rng:(Stdx.Rng.create 1) ~drop:1.0 () in
  let p = Net.Faults.with_window ~from_time:10.0 ~until_time:20.0 inner in
  checkb "before window clean" true
    (verdict_at p ~now:5.0 ~src:0 ~dst:1 ~kind:"k" = Net.Faults.clean);
  checkb "inside window lossy" true
    (verdict_at p ~now:15.0 ~src:0 ~dst:1 ~kind:"k").Net.Faults.drop;
  checkb "after window clean" true
    (verdict_at p ~now:25.0 ~src:0 ~dst:1 ~kind:"k" = Net.Faults.clean)

let test_faults_validation () =
  Alcotest.check_raises "probability out of range"
    (Invalid_argument "Faults.lossy: drop must be in [0,1]") (fun () ->
      ignore (Net.Faults.lossy ~rng:(Stdx.Rng.create 1) ~drop:1.5 ()));
  Alcotest.check_raises "negative spread"
    (Invalid_argument "Faults.lossy: reorder_spread must be non-negative")
    (fun () ->
      ignore
        (Net.Faults.lossy ~rng:(Stdx.Rng.create 1) ~reorder_spread:(-1.0) ()))

(* ---- Link transport ---- *)

(* a two-process frame network with a seeded lossy policy; messages are
   raw strings so tests see the transport alone *)
let make_link_pair ?(config = Net.Link.default_config) ?(drop = 0.0)
    ?(dup = 0.0) ?(corrupt = 0.0) ?(reorder = 0.0) ?trace ~seed () =
  let engine = Sim.Engine.create () in
  let rng = Stdx.Rng.create seed in
  let counters = Metrics.Counters.create () in
  let net =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ()) ~counters ~n:2
  in
  Net.Network.set_faults net
    (Net.Faults.lossy ~rng:(Stdx.Rng.split rng) ~drop ~duplicate:dup ~corrupt
       ~reorder ());
  Net.Network.set_corrupter net
    (Net.Link.corrupt_frame ~rng:(Stdx.Rng.split rng));
  let wire = Net.Link.wire net ~encode:(fun s -> s) ~decode:(fun s -> Some s) in
  let attach me =
    Net.Link.attach ~wire ~engine ~rng:(Stdx.Rng.split rng) ~config ?trace ~me
      ()
  in
  let a = attach 0 in
  let b = attach 1 in
  (engine, a, b)

let msgs k = List.init k (fun i -> Printf.sprintf "m%03d" (i + 1))

(* send [k] messages 0 -> 1, drain the engine, return arrivals in order *)
let pump ?config ?drop ?dup ?corrupt ?reorder ?trace ~seed k =
  let engine, a, b =
    make_link_pair ?config ?drop ?dup ?corrupt ?reorder ?trace ~seed ()
  in
  let got = ref [] in
  Net.Link.set_handler b (fun ~src m ->
      checki "true source" 0 src;
      got := m :: !got);
  List.iter (fun m -> Net.Link.send a ~dst:1 ~kind:"t" ~bits:64 m) (msgs k);
  ignore (Sim.Engine.run engine ());
  (List.rev !got, Net.Link.stats a, Net.Link.stats b)

(* A three-endpoint lossy fleet whose encoder and decoder count their
   calls; [go] sends one message from endpoint 0 to everyone. Returns
   the encode and decode counts and every arrival with its time,
   receiver and source. *)
let link_fan_out ~go =
  let engine = Sim.Engine.create () in
  let rng = Stdx.Rng.create 23 in
  let net =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ())
      ~counters:(Metrics.Counters.create ()) ~n:3
  in
  Net.Network.set_faults net
    (Net.Faults.lossy ~rng:(Stdx.Rng.split rng) ~drop:0.3 ~duplicate:0.2
       ~corrupt:0.1 ~reorder:0.0 ());
  Net.Network.set_corrupter net (Net.Link.corrupt_frame ~rng:(Stdx.Rng.split rng));
  let encodes = ref 0 and decodes = ref 0 and got = ref [] in
  let wire =
    Net.Link.wire net
      ~encode:(fun s -> incr encodes; s)
      ~decode:(fun s -> incr decodes; Some s)
  in
  let links =
    Array.init 3 (fun me ->
        let l =
          Net.Link.attach ~wire ~engine ~rng:(Stdx.Rng.split rng) ~me ()
        in
        Net.Link.set_handler l (fun ~src m ->
            got := (Sim.Engine.now engine, me, src, m) :: !got);
        l)
  in
  go links.(0);
  ignore (Sim.Engine.run engine ());
  (!encodes, !decodes, List.rev !got, Net.Link.stats links.(0))

(* A broadcast encodes and decodes once, and otherwise is the same n
   sends: same frames, same RNG draws, so the same arrivals at the same
   times. The fleet drops, duplicates and corrupts frames, and a
   corrupted frame is rejected by checksum before any decode, so every
   decode is the sender's. *)
let test_link_broadcast_encodes_once () =
  let e_b, d_b, got_b, st_b =
    link_fan_out ~go:(fun l -> Net.Link.broadcast l ~kind:"t" ~bits:64 "hello")
  in
  let e_s, d_s, got_s, st_s =
    link_fan_out ~go:(fun l ->
        for dst = 0 to 2 do
          Net.Link.send l ~dst ~kind:"t" ~bits:64 "hello"
        done)
  in
  checki "broadcast encodes once" 1 e_b;
  checki "broadcast decodes once, not once per receiver" 1 d_b;
  checki "sends encode each" 3 e_s;
  checki "sends decode each" 3 d_s;
  checki "delivered to all" 3 (List.length got_b);
  checkb "same arrivals as n sends" true (got_b = got_s);
  checkb "same link stats as n sends" true (st_b = st_s)

let test_link_delivers_under_loss () =
  let got, sa, _ = pump ~drop:0.4 ~seed:7 60 in
  Alcotest.(check (list string))
    "every message exactly once" (msgs 60)
    (List.sort compare got);
  checkb "loss forced retransmissions" true (sa.Net.Link.retransmits > 0);
  checki "nothing abandoned" 0 sa.Net.Link.gave_up

let test_link_dedup_exactly_once () =
  let got, sa, sb = pump ~dup:0.6 ~seed:11 60 in
  Alcotest.(check (list string))
    "duplicates suppressed, every message exactly once" (msgs 60)
    (List.sort compare got);
  let st = Net.Link.add_stats sa sb in
  checkb "dedup window absorbed copies" true (st.Net.Link.dup_suppressed > 0)

let test_link_corrupt_recovery () =
  let got, sa, sb = pump ~corrupt:0.3 ~seed:13 60 in
  Alcotest.(check (list string))
    "corruption recovered by retransmission" (msgs 60)
    (List.sort compare got);
  let st = Net.Link.add_stats sa sb in
  checkb "checksums caught corruption" true (st.Net.Link.corrupt_rejected > 0);
  checkb "rejected frames were retransmitted" true
    (sa.Net.Link.retransmits > 0);
  checki "nothing abandoned" 0 sa.Net.Link.gave_up

let test_link_reorder_delivers_all () =
  let got, sa, _ = pump ~reorder:0.8 ~seed:17 40 in
  Alcotest.(check (list string))
    "reordering loses nothing" (msgs 40)
    (List.sort compare got);
  checkb "arrival order actually scrambled" true (got <> msgs 40);
  checki "reordering alone needs no retries" 0 sa.Net.Link.gave_up

let test_link_gives_up () =
  let config =
    { Net.Link.default_config with
      rto = 0.5;
      backoff = 1.2;
      max_rto = 1.0;
      max_attempts = 4 }
  in
  let trace = Trace.create () in
  let got, sa, _ = pump ~config ~drop:1.0 ~trace ~seed:3 1 in
  checki "nothing got through a fully dead link" 0 (List.length got);
  checki "the frame was abandoned" 1 sa.Net.Link.gave_up;
  checki "after exactly max_attempts retries" 4 sa.Net.Link.retransmits;
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.events trace) in
  checkb "give-up traced" true
    (List.exists
       (function
         | Trace.Drop { reason = "give-up"; _ } -> true
         | _ -> false)
       kinds);
  checkb "retransmissions traced" true
    (List.exists
       (function Trace.Retransmit _ -> true | _ -> false)
       kinds)

let test_link_no_handler () =
  let trace = Trace.create () in
  let engine, a, b = make_link_pair ~trace ~seed:5 () in
  Net.Link.clear_handler b;
  Net.Link.send a ~dst:1 ~kind:"t" ~bits:64 "hello";
  ignore (Sim.Engine.run engine ());
  let sa = Net.Link.stats a in
  (* the transport keeps acking, so the sender never burns its budget *)
  checki "acked despite no listener" 0 sa.Net.Link.gave_up;
  checki "no retries needed" 0 sa.Net.Link.retransmits;
  checkb "drop traced as no-handler" true
    (List.exists
       (function
         | { Trace.kind = Trace.Drop { reason = "no-handler"; _ }; _ } -> true
         | _ -> false)
       (Trace.events trace))

let test_link_determinism () =
  let run () = pump ~drop:0.3 ~dup:0.2 ~corrupt:0.1 ~reorder:0.3 ~seed:23 50 in
  let got_a, stats_a, _ = run () in
  let got_b, stats_b, _ = run () in
  checkb "same seed, same arrival order" true (got_a = got_b);
  checkb "same seed, same stats" true (stats_a = stats_b)

(* The wire's decoder rejects the payload: the frame is intact (acked,
   not retransmitted) but the delivery is dropped. *)
let test_link_decode_failure_dropped () =
  let engine = Sim.Engine.create () in
  let rng = Stdx.Rng.create 29 in
  let counters = Metrics.Counters.create () in
  let net =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ()) ~counters ~n:2
  in
  let trace = Trace.create () in
  let wire = Net.Link.wire net ~encode:(fun s -> s) ~decode:(fun _ -> None) in
  let attach me =
    Net.Link.attach ~wire ~engine ~rng:(Stdx.Rng.split rng) ~trace ~me ()
  in
  let a = attach 0 in
  let b = attach 1 in
  let got = ref 0 in
  Net.Link.set_handler b (fun ~src:_ _ -> incr got);
  Net.Link.send a ~dst:1 ~kind:"t" ~bits:64 "junk";
  ignore (Sim.Engine.run engine ());
  checki "nothing delivered" 0 !got;
  checki "decode failure counted" 1 (Net.Link.stats b).Net.Link.decode_failures;
  checki "but the frame was acked" 0 (Net.Link.stats a).Net.Link.gave_up;
  checkb "drop traced as decode" true
    (List.exists
       (function
         | { Trace.kind = Trace.Drop { reason = "decode"; _ }; _ } -> true
         | _ -> false)
       (Trace.events trace))

(* A frame with a real checksum carries no sender-side decode: its
   receiver decodes the frame's own bytes, once, and delivers that. *)
let test_link_summed_frame_decoded_by_receiver () =
  let engine = Sim.Engine.create () in
  let net =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ())
      ~counters:(Metrics.Counters.create ()) ~n:2
  in
  let decodes = ref 0 in
  let wire =
    Net.Link.wire net ~encode:(fun s -> s)
      ~decode:(fun s -> incr decodes; Some ("decoded " ^ s))
  in
  let b =
    Net.Link.attach ~wire ~engine ~rng:(Stdx.Rng.create 37) ~me:1 ()
  in
  let got = ref [] in
  Net.Link.set_handler b (fun ~src m -> got := (src, m) :: !got);
  let frame = Net.Link.data_frame ~seq:0 ~kind:"t" ~bytes:"payload" ~sum:0 in
  let frame =
    Net.Link.data_frame ~seq:0 ~kind:"t" ~bytes:"payload"
      ~sum:(Net.Link.frame_sum frame)
  in
  Net.Network.send net ~src:0 ~dst:1 ~kind:"t" ~bits:64 frame;
  ignore (Sim.Engine.run engine ());
  Alcotest.(check (list (pair int string)))
    "the receiver's decode of the frame's bytes" [ (0, "decoded payload") ]
    !got;
  checki "decoded once, by the receiver" 1 !decodes;
  checki "no decode failure" 0 (Net.Link.stats b).Net.Link.decode_failures

let test_frame_checksum () =
  let data = Net.Link.data_frame ~seq:3 ~kind:"k" ~bytes:"payload" ~sum:0 in
  let data =
    match data with
    | Net.Link.Data { seq; kind; bytes; _ } ->
      Net.Link.data_frame ~seq ~kind ~bytes ~sum:(Net.Link.frame_sum data)
    | f -> f
  in
  checkb "fixed-up data frame intact" true (Net.Link.frame_intact data);
  let ack = Net.Link.ack_frame ~seq:3 ~sum:0 in
  let ack =
    match ack with
    | Net.Link.Ack { seq; _ } ->
      Net.Link.ack_frame ~seq ~sum:(Net.Link.frame_sum ack)
    | f -> f
  in
  checkb "fixed-up ack frame intact" true (Net.Link.frame_intact ack);
  let rng = Stdx.Rng.create 31 in
  for _ = 1 to 50 do
    checkb "one flipped bit breaks the data checksum" false
      (Net.Link.frame_intact (Net.Link.corrupt_frame ~rng data));
    checkb "one flipped bit breaks the ack checksum" false
      (Net.Link.frame_intact (Net.Link.corrupt_frame ~rng ack))
  done

(* FNV-1a/32 over the frame's content, written out here as the eager
   reference the link's checksum must keep computing *)
let fnv_reference frame =
  let mix h b = (h lxor (b land 0xFF)) * 0x01000193 land 0xFFFFFFFF in
  let mix_int h v = mix (mix (mix (mix h (v lsr 24)) (v lsr 16)) (v lsr 8)) v in
  let mix_string h s =
    let h = ref h in
    String.iter (fun c -> h := mix !h (Char.code c)) s;
    !h
  in
  match frame with
  | Net.Link.Data { seq; kind; bytes; _ } ->
    mix_string (mix (mix_string (mix_int (mix 0x811c9dc5 (Char.code 'D')) seq) kind) 0) bytes
  | Net.Link.Ack { seq; _ } -> mix_int (mix 0x811c9dc5 (Char.code 'A')) seq

let stored_sum = function
  | Net.Link.Data { sum; _ } | Net.Link.Ack { sum; _ } -> sum

(* Frames a link endpoint really sends carry no checksum until a corrupt
   verdict needs one. Over 10^4 sent frames with random kinds, payloads
   and sequence numbers, and one corrupt_frame draw each: a sent frame is
   intact; its corruption equals, draw for draw, the corruption of the
   same frame built with its eager checksum; every frame_intact answer
   equals the eager comparison of the stored sum with the reference FNV;
   and frame_sum is the reference FNV. Frames with explicit sums, right
   or wrong, and acks are checked the same way. *)
let test_lazy_checksum_differential () =
  let frames = 10_000 in
  let engine = Sim.Engine.create () in
  let rng = Stdx.Rng.create 77 in
  let net =
    Net.Network.create ~engine ~sched:(Net.Sched.synchronous ())
      ~counters:(Metrics.Counters.create ()) ~n:2
  in
  let sender =
    Net.Link.attach
      ~wire:(Net.Link.wire net ~encode:(fun s -> s) ~decode:(fun s -> Some s))
      ~engine ~rng:(Stdx.Rng.split rng) ~me:0 ()
  in
  let sent = ref [] in
  Net.Network.register net 1 (fun ~src:_ frame -> sent := frame :: !sent);
  let kinds = [| "t"; "avid-echo"; ""; "bracha-ready" |] in
  for _ = 1 to frames do
    let bytes =
      String.init (Stdx.Rng.int rng 64) (fun _ -> Char.chr (Stdx.Rng.int rng 256))
    in
    Net.Link.send sender ~dst:1 ~kind:(Stdx.Rng.choose rng kinds) ~bits:8 bytes
  done;
  (* deliver the first copies, stop before any retransmission *)
  ignore (Sim.Engine.run engine ~until:(Net.Link.default_config.rto /. 2.0) ());
  Net.Link.detach sender;
  checki "every frame captured" frames (List.length !sent);
  let eager_intact f = stored_sum f = fnv_reference f in
  let check_frame f =
    checki "frame_sum is the reference FNV" (fnv_reference f) (Net.Link.frame_sum f);
    checkb "frame_intact is the eager check" (eager_intact f) (Net.Link.frame_intact f)
  in
  List.iter
    (fun f ->
      match f with
      | Net.Link.Data { seq; kind; bytes; _ } ->
        checkb "a sent frame is intact" true (Net.Link.frame_intact f);
        checki "frame_sum is the reference FNV" (fnv_reference f)
          (Net.Link.frame_sum f);
        let eager =
          Net.Link.data_frame ~seq ~kind ~bytes ~sum:(fnv_reference f)
        in
        check_frame eager;
        let draw = Stdx.Rng.int rng 1_000_000 in
        let lazy_c = Net.Link.corrupt_frame ~rng:(Stdx.Rng.create draw) f in
        let eager_c = Net.Link.corrupt_frame ~rng:(Stdx.Rng.create draw) eager in
        checkb "same corruption as the eager frame" true (lazy_c = eager_c);
        checki "the stored sum is the original's" (fnv_reference f)
          (stored_sum lazy_c);
        check_frame lazy_c;
        let wrong =
          Net.Link.data_frame ~seq ~kind ~bytes
            ~sum:(Stdx.Rng.choose rng [| 0; 0xFFFFFFFF; Stdx.Rng.int rng 0x1_0000_0000 |])
        in
        check_frame wrong;
        check_frame (Net.Link.corrupt_frame ~rng wrong);
        let ack_sum = fnv_reference (Net.Link.ack_frame ~seq ~sum:0) in
        let ack = Net.Link.ack_frame ~seq ~sum:ack_sum in
        check_frame ack;
        check_frame (Net.Link.corrupt_frame ~rng ack)
      | Net.Link.Ack _ -> Alcotest.fail "the receiver sent no ack")
    !sent

let test_frame_constructors_reject_pristine () =
  Alcotest.check_raises "no pristine data frame from outside"
    (Invalid_argument "Link.data_frame: not a 32-bit sum") (fun () ->
      ignore (Net.Link.data_frame ~seq:0 ~kind:"k" ~bytes:"" ~sum:(-1)));
  Alcotest.check_raises "ack sums are 32-bit"
    (Invalid_argument "Link.ack_frame: not a 32-bit sum") (fun () ->
      ignore (Net.Link.ack_frame ~seq:0 ~sum:0x1_0000_0000))

(* ---- wire-decoder fuzzing ---- *)

(* every decoder in the stack must be total: random bytes, truncations
   and bit-flips of valid encodings may decode to Some or None but must
   never raise — a malformed frame reaching a raising decoder would
   crash the receiving process *)
let decoders :
    (string * (string -> bool)) list =
  let total decode s = ignore (decode s : _ option); true in
  [ ("bracha", total Rbc.Bracha.decode_msg);
    ("avid", total Rbc.Avid.decode_msg);
    ("gossip", total Rbc.Gossip.decode_msg);
    ("coin", total Dagrider.Node.decode_coin_msg);
    ("sync", total Dagrider.Node.decode_sync_msg) ]

let valid_encodings =
  let proof =
    { Crypto.Merkle.leaf_index = 1;
      path = [ Crypto.Sha256.digest_string "a"; Crypto.Sha256.digest_string "b" ]
    }
  in
  [ Rbc.Bracha.encode_msg (Rbc.Bracha.Init { round = 7; payload = "hello" });
    Rbc.Bracha.encode_msg
      (Rbc.Bracha.Echo { origin = 2; round = 3; payload = String.make 40 'x' });
    Rbc.Bracha.encode_msg
      (Rbc.Bracha.Ready { origin = 1; round = 0; payload = "" });
    Rbc.Avid.encode_msg
      (Rbc.Avid.Disperse
         { round = 4;
           root = Crypto.Sha256.digest_string "r";
           data_len = 64;
           frag_index = 1;
           frag = "fragment";
           proof });
    Rbc.Avid.encode_msg
      (Rbc.Avid.Ready
         { origin = 3; round = 9; root = Crypto.Sha256.digest_string "q";
           data_len = 12 });
    Rbc.Gossip.encode_msg
      (Rbc.Gossip.Gossip { origin = 0; round = 2; payload = "payload" });
    Rbc.Gossip.encode_msg
      (Rbc.Gossip.Echo
         { origin = 1; round = 5; digest = Crypto.Sha256.digest_string "d" });
    Dagrider.Node.encode_coin_msg
      (Dagrider.Node.Coin_share
         { Crypto.Threshold_coin.holder = 2; instance = 11; value = 1 });
    Dagrider.Node.encode_sync_msg (Dagrider.Node.Sync_request { from_round = 3 });
    Dagrider.Node.encode_sync_msg
      (Dagrider.Node.Sync_response
         { vertices = [ ("vertex-bytes", 4, 2); ("more-bytes", 5, 0) ] }) ]

let test_fuzz_random_bytes () =
  let rng = Stdx.Rng.create 1234 in
  for _ = 1 to 2000 do
    let len = Stdx.Rng.int rng 80 in
    let s = String.init len (fun _ -> Char.chr (Stdx.Rng.int rng 256)) in
    List.iter
      (fun (name, total) ->
        match total s with
        | true -> ()
        | false -> Alcotest.failf "%s decoder not total on %S" name s
        | exception e ->
          Alcotest.failf "%s decoder raised on %S: %s" name s
            (Printexc.to_string e))
      decoders
  done

let test_fuzz_truncations () =
  List.iter
    (fun enc ->
      for cut = 0 to String.length enc - 1 do
        let s = String.sub enc 0 cut in
        List.iter
          (fun (name, total) ->
            try ignore (total s)
            with e ->
              Alcotest.failf "%s decoder raised on truncation: %s" name
                (Printexc.to_string e))
          decoders
      done)
    valid_encodings

let test_fuzz_mutations () =
  let rng = Stdx.Rng.create 77 in
  List.iter
    (fun enc ->
      for _ = 1 to 200 do
        let b = Bytes.of_string enc in
        let i = Stdx.Rng.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr (Stdx.Rng.int rng 256));
        let s = Bytes.to_string b in
        List.iter
          (fun (name, total) ->
            try ignore (total s)
            with e ->
              Alcotest.failf "%s decoder raised on mutation: %s" name
                (Printexc.to_string e))
          decoders
      done)
    valid_encodings

let test_sync_response_flood_rejected () =
  (* an honest responder never ships more than max_sync_vertices; the
     decoder treats a bigger claim as malformed rather than allocating *)
  let huge =
    Dagrider.Node.Sync_response
      { vertices = List.init 501 (fun i -> ("v", i, 0)) }
  in
  checkb "oversized sync response rejected" true
    (Dagrider.Node.decode_sync_msg (Dagrider.Node.encode_sync_msg huge) = None);
  let ok =
    Dagrider.Node.Sync_response
      { vertices = List.init 500 (fun i -> ("v", i, 0)) }
  in
  checkb "full-size sync response accepted" true
    (Dagrider.Node.decode_sync_msg (Dagrider.Node.encode_sync_msg ok) = Some ok)

(* ---- trace kinds ---- *)

let test_trace_roundtrip_loss_kinds () =
  let tr = Trace.create () in
  Trace.emit tr
    (Trace.Drop
       { src = 1; dst = 2; msg_kind = "rbc-echo"; reason = "fault"; id = 9 });
  Trace.emit tr
    (Trace.Retransmit
       { src = 0; dst = 3; msg_kind = "link-data"; seq = 17; attempt = 4;
         id = 12 });
  Trace.emit tr
    (Trace.Corrupt_reject { src = 2; dst = 0; msg_kind = "link-data"; id = -1 });
  let events = Trace.events tr in
  (match Trace.events_of_jsonl (Trace.to_jsonl tr) with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok parsed -> checkb "loss kinds round-trip" true (parsed = events));
  checkb "drop attributed to destination" true
    (Trace.node_of
       (Trace.Drop
          { src = 1; dst = 2; msg_kind = "x"; reason = "fault"; id = -1 })
    = Some 2);
  checkb "retransmit attributed to sender" true
    (Trace.node_of
       (Trace.Retransmit
          { src = 0; dst = 3; msg_kind = "x"; seq = 1; attempt = 1; id = -1 })
    = Some 0)

(* ---- harness runs over lossy links ---- *)

let lossy_rates =
  { Harness.Runner.lf_drop = 0.2;
    lf_duplicate = 0.05;
    lf_corrupt = 0.02;
    lf_reorder = 0.1 }

let assert_ok = function
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let counter snap name =
  match List.assoc_opt name snap.Metrics.Registry.counters with
  | Some v -> v
  | None -> 0

(* the acceptance bar: drop 0.2 + duplication + corruption on every
   link, and each backend still commits 100+ waves with total order and
   integrity intact *)
let test_lossy_long_run backend until () =
  let max_wave = ref 0 in
  let options =
    { (Harness.Runner.default_options ~n:4) with
      backend;
      seed = 99;
      link_faults = Some lossy_rates;
      on_commit =
        Some
          (fun ~node:_ c ->
            if c.Dagrider.Ordering.wave > !max_wave then
              max_wave := c.Dagrider.Ordering.wave) }
  in
  let t = Harness.Runner.build options in
  Harness.Runner.run t ~until;
  assert_ok (Harness.Runner.check_total_order t);
  assert_ok (Harness.Runner.check_integrity t);
  checkb
    (Printf.sprintf "100+ waves committed (got %d)" !max_wave)
    true (!max_wave >= 100);
  let st = Harness.Runner.link_stats t in
  checkb "retransmissions happened" true (st.Net.Link.retransmits > 0);
  checkb "corruption rejected by checksum" true
    (st.Net.Link.corrupt_rejected > 0);
  checkb "duplicates suppressed" true (st.Net.Link.dup_suppressed > 0);
  checki "no frame abandoned" 0 st.Net.Link.gave_up;
  (* the same counters must surface in the metrics snapshot *)
  let snap = Harness.Runner.metrics_snapshot t in
  checkb "link.retransmits in snapshot" true
    (counter snap "link.retransmits" > 0);
  checkb "link.corrupt_rejected in snapshot" true
    (counter snap "link.corrupt_rejected" > 0);
  checkb "net.drops.fault in snapshot" true (counter snap "net.drops.fault" > 0);
  checkb "per-link retransmit counters populated" true
    (Harness.Runner.retransmits_by_link t <> [])

(* transport-level duplicates only: RBC handlers must be idempotent, so
   the fleet behaves exactly like a clean one *)
let test_duplicates_are_idempotent backend () =
  let options =
    { (Harness.Runner.default_options ~n:4) with
      backend;
      seed = 41;
      link_faults =
        Some { Harness.Runner.default_link_faults with lf_duplicate = 0.5 } }
  in
  let t = Harness.Runner.build options in
  Harness.Runner.run t ~until:120.0;
  assert_ok (Harness.Runner.check_total_order t);
  assert_ok (Harness.Runner.check_integrity t);
  let refs = Harness.Runner.delivered_refs t in
  Array.iter
    (fun log -> checkb "every process progressed" true (List.length log > 0))
    refs;
  checkb "dedup window was exercised" true
    ((Harness.Runner.link_stats t).Net.Link.dup_suppressed > 0)

let test_lossy_run_deterministic () =
  let run () =
    let t =
      Harness.Runner.build
        { (Harness.Runner.default_options ~n:4) with
          seed = 21;
          link_faults = Some lossy_rates }
    in
    Harness.Runner.run t ~until:80.0;
    (Harness.Runner.delivered_refs t, Harness.Runner.link_stats t)
  in
  let a = run () in
  let b = run () in
  checkb "lossy runs are pure functions of the seed" true (a = b)

let test_disabled_faults_add_nothing () =
  (* link_faults = None must keep the historical wiring: no link
     counters, no frame traffic, no net.drops entries *)
  let t =
    Harness.Runner.build
      { (Harness.Runner.default_options ~n:4) with seed = 21 }
  in
  Harness.Runner.run t ~until:80.0;
  checkb "no link stats" true
    (Harness.Runner.link_stats t = Net.Link.zero_stats);
  checkb "no retransmit links" true (Harness.Runner.retransmits_by_link t = []);
  let snap = Harness.Runner.metrics_snapshot t in
  checkb "no link.* counters in snapshot" true
    (List.for_all
       (fun (name, _) ->
         not (String.length name >= 5 && String.sub name 0 5 = "link."))
       snap.Metrics.Registry.counters)

(* ---- restarts under hostile conditions ---- *)

let test_restart_under_byzantine () =
  let options =
    { (Harness.Runner.default_options ~n:4) with
      seed = 5;
      faults =
        [ Harness.Runner.Adversary
            (3, { Attack.strategy = Attack.Fuzz; victims = [] }) ] }
  in
  let t = Harness.Runner.build options in
  Harness.Runner.run t ~until:40.0;
  let before = List.length (Harness.Runner.delivered_refs t).(1) in
  checkb "progress before the restart" true (before > 0);
  Harness.Runner.restart_node t 1;
  Harness.Runner.run t ~until:140.0;
  assert_ok (Harness.Runner.check_total_order t);
  assert_ok (Harness.Runner.check_integrity t);
  let refs = Harness.Runner.delivered_refs t in
  checkb "restarted node kept delivering despite the attacker" true
    (List.length refs.(1) > before);
  (* the restarted process must not fall permanently behind the fleet *)
  let correct = Harness.Runner.correct_indices t in
  let counts = List.map (fun i -> List.length refs.(i)) correct in
  let best = List.fold_left max 0 counts in
  checkb "restarted node caught up with the fleet" true
    (List.length refs.(1) * 2 > best)

let test_restart_under_lossy_links () =
  let options =
    { (Harness.Runner.default_options ~n:4) with
      seed = 6;
      link_faults =
        Some { lossy_rates with Harness.Runner.lf_drop = 0.15 } }
  in
  let t = Harness.Runner.build options in
  Harness.Runner.run t ~until:60.0;
  let before = List.length (Harness.Runner.delivered_refs t).(2) in
  checkb "progress before the restart" true (before > 0);
  Harness.Runner.restart_node t 2;
  Harness.Runner.run t ~until:260.0;
  assert_ok (Harness.Runner.check_total_order t);
  assert_ok (Harness.Runner.check_integrity t);
  let refs = Harness.Runner.delivered_refs t in
  checkb "restarted node kept delivering over lossy links" true
    (List.length refs.(2) > before);
  let counts = Array.to_list (Array.map List.length refs) in
  let best = List.fold_left max 0 counts in
  checkb "restarted node caught up with the fleet" true
    (List.length refs.(2) * 2 > best)

(* restart under fire: an equivocating adversary AND 20% loss at once,
   exercised under both commit rules — the restarted process must
   re-converge through the hardened sync path while the fork oracle
   proves every equivocation ended up excluded or converged *)
let test_restart_under_fire rule () =
  let options =
    { (Harness.Runner.default_options ~n:4) with
      seed = 23;
      rule;
      faults =
        [ Harness.Runner.Adversary
            (3, { Attack.strategy = Attack.Equivocate; victims = [ 1 ] }) ];
      link_faults =
        Some { lossy_rates with Harness.Runner.lf_drop = 0.2 } }
  in
  let t = Harness.Runner.build options in
  Harness.Runner.run t ~until:60.0;
  let before = List.length (Harness.Runner.delivered_refs t).(1) in
  checkb "progress before the restart" true (before > 0);
  Harness.Runner.restart_node t 1;
  Harness.Runner.run t ~until:320.0;
  assert_ok (Harness.Runner.check_total_order t);
  assert_ok (Harness.Runner.check_integrity t);
  let refs = Harness.Runner.delivered_refs t in
  checkb "restarted node kept delivering under fire" true
    (List.length refs.(1) > before);
  let correct = Harness.Runner.correct_indices t in
  let best =
    List.fold_left (fun acc i -> max acc (List.length refs.(i))) 0 correct
  in
  checkb "restarted node re-converged with the fleet" true
    (List.length refs.(1) * 2 > best);
  let reports = Harness.Runner.attack_reports t in
  checkb "the adversary actually equivocated" true
    (List.exists (fun r -> r.Harness.Runner.ar_forks <> []) reports);
  let dags =
    List.map
      (fun i -> (i, Dagrider.Node.dag (Harness.Runner.node t i)))
      correct
  in
  checkb "forks excluded or converged" true
    (Check.Oracle.check_fork_outcomes ~reports ~dags = [])

(* ---- analyzer diagnostics ---- *)

let test_analyzer_counts_loss_events () =
  let tr = Trace.create () in
  let options =
    { (Harness.Runner.default_options ~n:4) with
      seed = 33;
      link_faults = Some lossy_rates;
      trace = Some tr }
  in
  let t = Harness.Runner.build options in
  Harness.Runner.run t ~until:80.0;
  match Harness.Runner.analysis t with
  | None -> Alcotest.fail "traced run must produce an analysis"
  | Some r ->
    checkb "retransmit events counted" true (r.Analyze.r_retransmits > 0);
    checkb "corrupt rejects counted" true (r.Analyze.r_corrupt_rejects > 0);
    checkb "fault drops counted" true
      (match List.assoc_opt "fault" r.Analyze.r_drops with
      | Some v -> v > 0
      | None -> false);
    checkb "per-link retransmits populated" true
      (r.Analyze.r_link_retransmits <> []);
    (* uniform loss keeps every link near the median: the targeted-loss
       anomaly must NOT fire *)
    checkb "no lossy-link anomaly under uniform loss" true
      (List.for_all
         (function Analyze.Lossy_link _ -> false | _ -> true)
         r.Analyze.r_anomalies)

let test_analyzer_flags_targeted_loss () =
  let tr = Trace.create () in
  (* one link far above the median, one with an exhausted retry budget *)
  for i = 1 to 30 do
    Trace.emit tr
      (Trace.Retransmit
         { src = 2; dst = 1; msg_kind = "t"; seq = i; attempt = 1; id = -1 })
  done;
  List.iter
    (fun (src, dst) ->
      Trace.emit tr
        (Trace.Retransmit
           { src; dst; msg_kind = "t"; seq = 1; attempt = 1; id = -1 }))
    [ (0, 1); (1, 0); (0, 2) ];
  Trace.emit tr
    (Trace.Drop
       { src = 3; dst = 0; msg_kind = "t"; reason = "give-up"; id = -1 });
  Trace.emit tr
    (Trace.Corrupt_reject { src = 0; dst = 3; msg_kind = "t"; id = -1 });
  let r = Analyze.finalize (Analyze.of_events (Trace.events tr)) in
  checki "retransmit events" 33 r.Analyze.r_retransmits;
  checki "corrupt rejects" 1 r.Analyze.r_corrupt_rejects;
  checkb "give-up drop recorded" true
    (List.assoc_opt "give-up" r.Analyze.r_drops = Some 1);
  let lossy =
    List.filter_map
      (function
        | Analyze.Lossy_link { src; dst; gave_up; _ } -> Some (src, dst, gave_up)
        | _ -> None)
      r.Analyze.r_anomalies
  in
  checkb "the outlier link is flagged" true
    (List.exists (fun (s, d, _) -> s = 2 && d = 1) lossy);
  checkb "the exhausted link is flagged" true
    (List.exists (fun (s, d, g) -> s = 3 && d = 0 && g = 1) lossy);
  checkb "links near the median are not flagged" true
    (not (List.exists (fun (s, d, _) -> s = 0 && d = 1) lossy));
  (* the human rendering names the starving destination *)
  match
    List.find_opt
      (function Analyze.Lossy_link { src = 2; dst = 1; _ } -> true | _ -> false)
      r.Analyze.r_anomalies
  with
  | None -> Alcotest.fail "missing anomaly"
  | Some a ->
    let line = Analyze.describe_anomaly a in
    checkb "description mentions the link" true
      (let has sub =
         let n = String.length line and m = String.length sub in
         let rec go i =
           i + m <= n && (String.sub line i m = sub || go (i + 1))
         in
         m = 0 || go 0
       in
       has "p2->p1")

(* ---- scenario sampling ---- *)

let test_scenario_forced_lossy () =
  let sc =
    Check.Scenario.generate ~quick:true ~lossy:lossy_rates ~seed:3 ()
  in
  checkb "forced scenarios carry the rates" true
    (sc.Check.Scenario.link_faults = Some lossy_rates);
  checkb "forced flag set" true sc.Check.Scenario.lossy_forced;
  checkb "lossy runs drop the validity promise" true
    (not (Check.Scenario.expect_validity sc));
  let repro = Check.Swarm.repro_command sc in
  let has sub =
    let n = String.length repro and m = String.length sub in
    let rec go i = i + m <= n && (String.sub repro i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  checkb "repro command carries --loss" true (has "--loss");
  (* sabotage scenarios must never be lossy: the attack depends on
     exact delivery timing *)
  let sab =
    Check.Scenario.generate ~sabotage:true ~quick:true ~lossy:lossy_rates
      ~seed:3 ()
  in
  checkb "sabotage ignores lossy" true
    (sab.Check.Scenario.link_faults = None)

let test_scenario_samples_lossy_from_seed () =
  let scenarios =
    List.init 40 (fun i -> Check.Scenario.generate ~quick:true ~seed:(i + 1) ())
  in
  let lossy =
    List.filter (fun sc -> sc.Check.Scenario.link_faults <> None) scenarios
  in
  checkb "some seeds sample lossy links" true (lossy <> []);
  checkb "some seeds stay clean" true
    (List.length lossy < List.length scenarios);
  List.iter
    (fun sc ->
      checkb "seed-sampled lossy is not forced" true
        (not sc.Check.Scenario.lossy_forced);
      let repro = Check.Swarm.repro_command sc in
      let has sub =
        let n = String.length repro and m = String.length sub in
        let rec go i =
          i + m <= n && (String.sub repro i m = sub || go (i + 1))
        in
        m = 0 || go 0
      in
      checkb "seed alone reproduces sampled lossy runs" true (not (has "--loss")))
    lossy;
  (* sampling lossy last: the same seed with and without the override
     agrees on everything except the link faults and horizon *)
  List.iter
    (fun sc ->
      let forced =
        Check.Scenario.generate ~quick:true ~lossy:lossy_rates
          ~seed:sc.Check.Scenario.seed ()
      in
      checkb "fleet shape unchanged by forcing lossy" true
        (forced.Check.Scenario.n = sc.Check.Scenario.n
        && forced.Check.Scenario.f = sc.Check.Scenario.f
        && forced.Check.Scenario.backend = sc.Check.Scenario.backend
        && forced.Check.Scenario.faults = sc.Check.Scenario.faults
        && forced.Check.Scenario.layers = sc.Check.Scenario.layers))
    scenarios

(* a handful of lossy swarm seeds end to end: every safety oracle must
   hold over the ack/retransmit transport *)
let test_swarm_lossy_seeds () =
  let report =
    Check.Swarm.run_seeds ~quick:true ~lossy:lossy_rates
      ~seeds:[ 101; 102; 103 ] ()
  in
  checki "no violations across lossy seeds" 0
    (List.length report.Check.Swarm.failures)

let () =
  Alcotest.run "lossy"
    [ ( "faults",
        [ Alcotest.test_case "none is clean" `Quick test_faults_none_is_clean;
          Alcotest.test_case "determinism" `Quick test_faults_determinism;
          Alcotest.test_case "on_links restriction" `Quick test_faults_on_links;
          Alcotest.test_case "with_window" `Quick test_faults_window;
          Alcotest.test_case "validation" `Quick test_faults_validation ] );
      ( "link",
        [ Alcotest.test_case "delivers under loss" `Quick
            test_link_delivers_under_loss;
          Alcotest.test_case "dedup exactly once" `Quick
            test_link_dedup_exactly_once;
          Alcotest.test_case "corruption recovery" `Quick
            test_link_corrupt_recovery;
          Alcotest.test_case "reordering loses nothing" `Quick
            test_link_reorder_delivers_all;
          Alcotest.test_case "give-up after budget" `Quick test_link_gives_up;
          Alcotest.test_case "no handler" `Quick test_link_no_handler;
          Alcotest.test_case "determinism" `Quick test_link_determinism;
          Alcotest.test_case "decode failure dropped" `Quick
            test_link_decode_failure_dropped;
          Alcotest.test_case "summed frame decoded by its receiver" `Quick
            test_link_summed_frame_decoded_by_receiver;
          Alcotest.test_case "frame checksums" `Quick test_frame_checksum;
          Alcotest.test_case "lazy checksum = eager checksum" `Quick
            test_lazy_checksum_differential;
          Alcotest.test_case "frame constructors reject pristine" `Quick
            test_frame_constructors_reject_pristine;
          Alcotest.test_case "broadcast encodes once" `Quick
            test_link_broadcast_encodes_once ] );
      ( "fuzz",
        [ Alcotest.test_case "random bytes" `Quick test_fuzz_random_bytes;
          Alcotest.test_case "truncations" `Quick test_fuzz_truncations;
          Alcotest.test_case "mutations" `Quick test_fuzz_mutations;
          Alcotest.test_case "sync flood rejected" `Quick
            test_sync_response_flood_rejected ] );
      ( "trace",
        [ Alcotest.test_case "loss kinds round-trip" `Quick
            test_trace_roundtrip_loss_kinds ] );
      ( "harness",
        [ Alcotest.test_case "bracha: 100 waves over lossy links" `Slow
            (test_lossy_long_run Harness.Runner.Bracha 2400.0);
          Alcotest.test_case "avid: 100 waves over lossy links" `Slow
            (test_lossy_long_run Harness.Runner.Avid 2400.0);
          (* the horizon grew with the gossip Byzantine floors: quorum
             deliveries now need 2f+1 echoes/readies, so each wave costs
             more retransmit round-trips under loss *)
          Alcotest.test_case "gossip: 100 waves over lossy links" `Slow
            (test_lossy_long_run Harness.Runner.Gossip 1800.0);
          Alcotest.test_case "bracha: duplicate idempotence" `Quick
            (test_duplicates_are_idempotent Harness.Runner.Bracha);
          Alcotest.test_case "avid: duplicate idempotence" `Quick
            (test_duplicates_are_idempotent Harness.Runner.Avid);
          Alcotest.test_case "gossip: duplicate idempotence" `Quick
            (test_duplicates_are_idempotent Harness.Runner.Gossip);
          Alcotest.test_case "lossy runs deterministic" `Quick
            test_lossy_run_deterministic;
          Alcotest.test_case "disabled faults add nothing" `Quick
            test_disabled_faults_add_nothing;
          Alcotest.test_case "restart under byzantine attacker" `Quick
            test_restart_under_byzantine;
          Alcotest.test_case "restart under lossy links" `Slow
            test_restart_under_lossy_links;
          Alcotest.test_case "restart under fire (dag-rider)" `Slow
            (test_restart_under_fire Dagrider.Ordering.dag_rider);
          Alcotest.test_case "restart under fire (bullshark)" `Slow
            (test_restart_under_fire Dagrider.Ordering.bullshark) ] );
      ( "analyze",
        [ Alcotest.test_case "loss counters from a real run" `Quick
            test_analyzer_counts_loss_events;
          Alcotest.test_case "targeted loss flagged" `Quick
            test_analyzer_flags_targeted_loss ] );
      ( "scenario",
        [ Alcotest.test_case "forced lossy" `Quick test_scenario_forced_lossy;
          Alcotest.test_case "seed-sampled lossy" `Quick
            test_scenario_samples_lossy_from_seed;
          Alcotest.test_case "lossy swarm seeds pass" `Slow
            test_swarm_lossy_seeds ] ) ]
