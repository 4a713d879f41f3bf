type strategy = Equivocate | Withhold | Grind | Bias | Lying_sync | Fuzz

let adaptive_strategies = [ Equivocate; Withhold; Grind; Bias; Lying_sync ]

let all_strategies = adaptive_strategies @ [ Fuzz ]

let strategy_label = function
  | Equivocate -> "equivocate"
  | Withhold -> "withhold"
  | Grind -> "grind"
  | Bias -> "bias"
  | Lying_sync -> "lying-sync"
  | Fuzz -> "fuzz"

let strategy_of_string = function
  | "equivocate" -> Some Equivocate
  | "withhold" -> Some Withhold
  | "grind" -> Some Grind
  | "bias" -> Some Bias
  | "lying-sync" -> Some Lying_sync
  | "fuzz" -> Some Fuzz
  | _ -> None

type spec = { strategy : strategy; victims : int list }

let describe ~node spec =
  let v =
    match spec.victims with
    | [] -> ""
    | vs ->
      Printf.sprintf " vs {%s}" (String.concat "," (List.map string_of_int vs))
  in
  Printf.sprintf "p%d %s%s" node (strategy_label spec.strategy) v

type fork = { fork_round : int; fork_digests : string list }

type lie = { lie_round : int; lie_source : int; lie_digest : string }

type arsenal = {
  ars_n : int;
  ars_f : int;
  ars_me : int;
  ars_send : dsts:int list -> round:int -> payload:string -> unit;
  ars_bcast : round:int -> payload:string -> unit;
}

type t = {
  spec : spec;
  arsenal : arsenal;
  rng : Stdx.Rng.t;
  schedule : delay:float -> (unit -> unit) -> unit;
  trace : Trace.t option;
  victims : int list;
  mutable node : Dagrider.Node.t option;
  mutable forks : fork list; (* newest first, reversed on read *)
  mutable lies : lie list;
  mutable actions : int;
}

let create ~(spec : spec) ~arsenal ~rng ~schedule ?trace () =
  let victims =
    match spec.victims with
    | _ when spec.strategy = Fuzz -> [] (* sprays everyone, draws nothing *)
    | _ :: _ as vs ->
      List.filter (fun i -> i >= 0 && i < arsenal.ars_n && i <> arsenal.ars_me) vs
    | [] ->
      (* sample up to f victims among the other processes — the adversary
         corrupts whom it likes, but a deterministic function of the seed *)
      let others =
        Array.of_list
          (List.filter
             (fun i -> i <> arsenal.ars_me)
             (List.init arsenal.ars_n (fun i -> i)))
      in
      Stdx.Rng.shuffle rng others;
      let k = max 1 (min arsenal.ars_f (Array.length others)) in
      List.sort compare (Array.to_list (Array.sub others 0 k))
  in
  { spec;
    arsenal;
    rng;
    schedule;
    trace;
    victims;
    node = None;
    forks = [];
    lies = [];
    actions = 0 }

let spec t = t.spec

let victims t = t.victims

let note t ~round ~info =
  t.actions <- t.actions + 1;
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr
      (Trace.Attack_event
         { node = t.arsenal.ars_me;
           strategy = strategy_label t.spec.strategy;
           round;
           info })

(* ---- payload surgery -----------------------------------------------

   A variant mutates the *block* while keeping the edges and any
   embedded share intact, so it passes Vertex.validate at honest
   processes and forks only the content. The payload frame is the armed
   node's own ({!Dagrider.Node.payload_vertex_length}). *)

let variant t ~payload ~round ~tag =
  match t.node with
  | None -> None
  | Some node -> (
    let len = Dagrider.Node.payload_vertex_length node payload in
    if len < 0 then None
    else
      match
        Dagrider.Vertex.decode_prefix ~round ~source:t.arsenal.ars_me payload
          ~len
      with
      | None -> None
      | Some v ->
        let forked =
          { v with Dagrider.Vertex.block = v.Dagrider.Vertex.block ^ tag }
        in
        Some
          ( Dagrider.Node.encode_payload node
              ~vertex_bytes:(Dagrider.Vertex.encode forked)
              ~share:(Dagrider.Node.payload_share node payload),
            Dagrider.Vertex.digest v,
            Dagrider.Vertex.digest forked ))

let others t =
  List.filter (fun i -> i <> t.arsenal.ars_me) (List.init t.arsenal.ars_n (fun i -> i))

(* ---- strategies ---- *)

let do_equivocate t ~payload ~round =
  if round <= 1 || Stdx.Rng.float t.rng 1.0 >= 0.6 then
    t.arsenal.ars_bcast ~round ~payload
  else
    match variant t ~payload ~round ~tag:"!fork" with
    | None -> t.arsenal.ars_bcast ~round ~payload
    | Some (payload_b, digest_a, digest_b) ->
      let a_side, b_side =
        if Stdx.Rng.bool t.rng then
          (* minority fork: only the victims see variant B — honest RBC
             should converge everyone onto A *)
          ( t.arsenal.ars_me
            :: List.filter (fun i -> not (List.mem i t.victims)) (others t),
            t.victims )
        else begin
          (* even split: neither side should assemble a quorum — honest
             RBC should exclude the vertex entirely *)
          let o = Array.of_list (others t) in
          Stdx.Rng.shuffle t.rng o;
          let cut = Array.length o / 2 in
          ( t.arsenal.ars_me :: Array.to_list (Array.sub o 0 cut),
            Array.to_list (Array.sub o cut (Array.length o - cut)) )
        end
      in
      t.arsenal.ars_send ~dsts:a_side ~round ~payload;
      t.arsenal.ars_send ~dsts:b_side ~round ~payload:payload_b;
      t.forks <- { fork_round = round; fork_digests = [ digest_a; digest_b ] } :: t.forks;
      note t ~round
        ~info:
          (Printf.sprintf "forked to {%s}|{%s}"
             (String.concat "," (List.map string_of_int a_side))
             (String.concat "," (List.map string_of_int b_side)))

let do_withhold t ~payload ~round =
  let spared =
    t.arsenal.ars_me
    :: List.filter (fun i -> not (List.mem i t.victims)) (others t)
  in
  t.arsenal.ars_send ~dsts:spared ~round ~payload;
  if Stdx.Rng.float t.rng 1.0 < 0.75 then begin
    let delay = 2.0 +. Stdx.Rng.float t.rng 4.0 in
    note t ~round
      ~info:
        (Printf.sprintf "withheld from {%s}, disclosing at +%.2f"
           (String.concat "," (List.map string_of_int t.victims))
           delay);
    t.schedule ~delay (fun () ->
        t.arsenal.ars_send ~dsts:t.victims ~round ~payload)
  end
  else
    note t ~round
      ~info:
        (Printf.sprintf "withheld from {%s} permanently"
           (String.concat "," (List.map string_of_int t.victims)))

(* grinding reads only resolved coin instances, on the coin cadence the
   rule derives (Ordering.coin_wave_length) — 4 rounds under both stock
   rules, so attacked schedules stay identical across rules *)
let do_grind t ~payload ~round =
  let grind_target =
    match t.node with
    | None -> None
    | Some node ->
      let cadence =
        Dagrider.Ordering.coin_wave_length
          (Dagrider.Ordering.rule (Dagrider.Node.ordering node))
      in
      let wave = (((max 1 (round - 1)) - 1) / cadence) + 1 in
      Option.map
        (fun l -> (wave, l))
        (Dagrider.Node.coin_leader_of node ~wave)
  in
  match grind_target with
  | Some (support_wave, l) when l = t.arsenal.ars_me ->
    note t ~round ~info:(Printf.sprintf "rushing wave %d (own coin)" support_wave);
    t.arsenal.ars_bcast ~round ~payload
  | Some (support_wave, l) ->
    let delay = 1.0 +. Stdx.Rng.float t.rng 2.0 in
    note t ~round
      ~info:
        (Printf.sprintf "stalling wave %d (coin chose p%d) by %.2f"
           support_wave l delay);
    t.schedule ~delay (fun () -> t.arsenal.ars_bcast ~round ~payload)
  | None -> t.arsenal.ars_bcast ~round ~payload

(* Bullshark's predefined schedule: 2-round waves, leader (w-1) mod n.
   Reading the static table keeps the strategy rule-oblivious. *)
let bias_wave_length =
  Dagrider.Ordering.bullshark.Dagrider.Ordering.rule_wave_length

let do_bias t ~payload ~round =
  let wave = ((round - 1) / bias_wave_length) + 1 in
  let leader = Dagrider.Ordering.round_robin_leader ~n:t.arsenal.ars_n ~wave in
  if leader = t.arsenal.ars_me then begin
    note t ~round ~info:(Printf.sprintf "rushing own slot (wave %d)" wave);
    t.arsenal.ars_bcast ~round ~payload
  end
  else if List.mem leader t.victims then begin
    let delay = 1.0 +. Stdx.Rng.float t.rng 1.5 in
    note t ~round
      ~info:
        (Printf.sprintf "starving victim leader p%d (wave %d) by %.2f" leader
           wave delay);
    t.schedule ~delay (fun () -> t.arsenal.ars_bcast ~round ~payload)
  end
  else t.arsenal.ars_bcast ~round ~payload

let on_own_vertex t ~payload ~round =
  match t.spec.strategy with
  | Equivocate -> do_equivocate t ~payload ~round
  | Withhold -> do_withhold t ~payload ~round
  | Grind -> do_grind t ~payload ~round
  | Bias -> do_bias t ~payload ~round
  | Lying_sync -> t.arsenal.ars_bcast ~round ~payload
  | Fuzz -> () (* its node never starts, so this never runs *)

(* ---- fuzz: the next of four malformed payloads, once per time unit,
   through the honest endpoint of a process that never runs its node ---- *)

let rec fuzz t step =
  let n = t.arsenal.ars_n and round = 1 + (step / 4) in
  let edge round source = { Dagrider.Vertex.round; source } in
  let vertex ~round ~block strong_edges =
    Dagrider.Vertex.encode
      { Dagrider.Vertex.round;
        source = t.arsenal.ars_me;
        block;
        strong_edges;
        weak_edges = [] }
  in
  let round, payload, info =
    match step mod 4 with
    | 0 ->
      ( round,
        String.init 40 (fun _ -> Char.chr (Stdx.Rng.int t.rng 256)),
        "undecodable garbage" )
    | 1 -> (round, vertex ~round ~block:"bad" [ edge 0 0 ], "too few strong edges")
    | 2 ->
      ( 1,
        vertex ~round:1 ~block:(Printf.sprintf "equivocation-%d" step)
          (List.init n (edge 0)),
        "second payload for round 1" )
    | _ ->
      ( round,
        vertex ~round ~block:"" (List.init 3 (fun k -> edge (step / 4) (n + k))),
        "edge sources out of range" )
  in
  note t ~round ~info;
  t.arsenal.ars_bcast ~round ~payload;
  t.schedule ~delay:1.0 (fun () -> fuzz t (step + 1))

(* ---- the lying catch-up peer ---- *)

let max_lies_per_response = 96

let sync_msg_bits vertices =
  List.fold_left
    (fun acc (payload, _, _) -> acc + (8 * (String.length payload + 12)))
    (8 * 5) vertices

let lying_sync_handler t ~sync_net =
  let me = t.arsenal.ars_me in
  Net.Port.register sync_net me (fun ~src msg ->
      match msg with
      | Dagrider.Node.Sync_response _ -> ()
      | Dagrider.Node.Sync_request { from_round } when src <> me -> (
        match t.node with
        | None -> ()
        | Some node ->
          let dag = Dagrider.Node.dag node in
          let from_round = max 1 from_round in
          let hi = Dagrider.Dag.highest_round dag in
          let forged = ref [] in
          let count = ref 0 in
          (try
             for r = from_round to hi do
               List.iter
                 (fun (v : Dagrider.Vertex.t) ->
                   if v.Dagrider.Vertex.source <> me then begin
                     if !count >= max_lies_per_response then raise Exit;
                     incr count;
                     (* a plausible forgery: the victim's missing region,
                        real edges, attributed to an honest process — only
                        the block differs from what that process signed *)
                     let fake =
                       { v with
                         Dagrider.Vertex.block = v.Dagrider.Vertex.block ^ "?lie" }
                     in
                     t.lies <-
                       { lie_round = v.Dagrider.Vertex.round;
                         lie_source = v.Dagrider.Vertex.source;
                         lie_digest = Dagrider.Vertex.digest fake }
                       :: t.lies;
                     forged :=
                       ( Dagrider.Vertex.encode fake,
                         v.Dagrider.Vertex.round,
                         v.Dagrider.Vertex.source )
                       :: !forged
                   end)
                 (Dagrider.Dag.round_vertices dag r)
             done
           with Exit -> ());
          (* fabricated frontier layers past this DAG's head: vertices
             attributed to honest processes that do not exist anywhere
             yet, with predicted slot references as support so they pass
             structural validation and graft straight onto the victim's
             DAG the instant the prior round completes — i.e. before the
             real broadcasts for that round can finish their quorum
             dance, so the pre-buffered forgery wins the slot. No honest
             responder can vouch for these, so the f+1 quorum starves
             them; only a trusting validator falls for it *)
          if hi >= 1 then
            for r = hi + 1 to hi + 3 do
              let support =
                List.init
                  ((2 * t.arsenal.ars_f) + 1)
                  (fun j -> { Dagrider.Vertex.round = r - 1; source = j })
              in
              for s = 0 to t.arsenal.ars_n - 1 do
                if s <> me && !count < max_lies_per_response then begin
                  incr count;
                  let fake =
                    { Dagrider.Vertex.round = r;
                      source = s;
                      block = "?fabricated";
                      strong_edges = support;
                      weak_edges = [] }
                  in
                  t.lies <-
                    { lie_round = r;
                      lie_source = s;
                      lie_digest = Dagrider.Vertex.digest fake }
                    :: t.lies;
                  forged := (Dagrider.Vertex.encode fake, r, s) :: !forged
                end
              done
            done;
          (* garnish with an undecodable payload and an out-of-range
             envelope so every rejection path gets exercised *)
          let garnish =
            [ ("\xde\xad\xbe\xef", max 1 from_round, 0);
              ("", from_round + 1, t.arsenal.ars_n + 3) ]
          in
          let vertices = List.rev_append !forged garnish in
          note t ~round:from_round
            ~info:
              (Printf.sprintf "served %d forged + %d junk sync vertices to p%d"
                 !count (List.length garnish) src);
          (* blast the response several times: each copy draws its own
             network latency, so the liar's earliest usually beats the
             n-1 honest responders to the victim's catch-up holes — a
             trusting validator admits first-come, while the hardened
             quorum counts distinct responders and is unmoved *)
          for _ = 1 to 4 do
            Net.Port.send sync_net ~src:me ~dst:src ~kind:"sync-response"
              ~bits:(sync_msg_bits vertices)
              (Dagrider.Node.Sync_response { vertices })
          done)
      | Dagrider.Node.Sync_request _ -> ())

let arm t ~node ~sync_net =
  t.node <- Some node;
  match t.spec.strategy with
  | Lying_sync -> lying_sync_handler t ~sync_net
  | Fuzz -> t.schedule ~delay:0.5 (fun () -> fuzz t 0)
  | Equivocate | Withhold | Grind | Bias -> ()

let forks t = List.rev t.forks

let lies t = List.rev t.lies

let actions t = t.actions
