type base_sched = Uniform | Skewed | Bimodal | Heavy_tailed

type sched_layer =
  | Partition_window of {
      from_time : float;
      until_time : float;
      left : int list;
      factor : float;
    }
  | Kind_storm_window of {
      from_time : float;
      until_time : float;
      kinds : string list;
      factor : float;
    }
  | Slow_process of { victim : int; factor : float }
  | Hide_process of { victim : int; factor : float }
  | Sluggish of { period : float; factor : float }

type fault_action =
  | Static of Harness.Runner.fault
  | Corrupt_at of { time : float; node : int }
  | Restart_at of { time : float; node : int }

type t = {
  seed : int;
  quick : bool;
  sabotage : bool;
  n : int;
  f : int;
  backend : Harness.Runner.backend;
  rule : Dagrider.Ordering.rule;
  base : base_sched;
  layers : sched_layer list;
  faults : fault_action list;
  horizon : float;
  link_faults : Harness.Runner.link_faults option;
  lossy_forced : bool;
  attack : (int * Attack.spec) option;
  attack_forced : bool;
  sync_weakened : bool;
  gc_depth : int option;
}

let rbc_prefix = function
  | Harness.Runner.Bracha -> "bracha-"
  | Harness.Runner.Avid -> "avid-"
  | Harness.Runner.Gossip -> "gossip-"

(* a window somewhere in the first ~70% of the run, so attacks always
   release before the horizon and liveness can be observed resuming *)
let sample_window rng ~horizon =
  let from_time = horizon *. (0.15 +. (0.45 *. Stdx.Rng.float rng 1.0)) in
  let until_time = from_time +. 3.0 +. Stdx.Rng.float rng 8.0 in
  (from_time, Float.min until_time (horizon *. 0.85))

let sample_layer rng ~n ~backend ~horizon =
  match Stdx.Rng.int rng 4 with
  | 0 ->
    let from_time, until_time = sample_window rng ~horizon in
    let k = 1 + Stdx.Rng.int rng (n - 1) in
    Partition_window
      { from_time;
        until_time;
        left = Stdx.Rng.sample_without_replacement rng ~k ~n;
        factor = 20.0 +. Stdx.Rng.float rng 40.0 }
  | 1 ->
    let from_time, until_time = sample_window rng ~horizon in
    let kinds =
      match Stdx.Rng.int rng 4 with
      | 0 -> [ "coin-" ]
      | 1 -> [ rbc_prefix backend ]
      | 2 -> [ "sync-" ]
      | _ -> [ "coin-"; rbc_prefix backend ]
    in
    Kind_storm_window
      { from_time; until_time; kinds; factor = 5.0 +. Stdx.Rng.float rng 25.0 }
  | 2 ->
    Slow_process
      { victim = Stdx.Rng.int rng n; factor = 5.0 +. Stdx.Rng.float rng 15.0 }
  | _ ->
    Sluggish
      { period = 5.0 +. Stdx.Rng.float rng 10.0;
        factor = 4.0 +. Stdx.Rng.float rng 6.0 }

let sample_fault rng ~horizon node =
  match Stdx.Rng.int rng 5 with
  | 0 | 1 -> Static (Harness.Runner.Crash node)
  | 2 -> Static (Harness.Runner.Byzantine_live node)
  | 3 ->
    Static
      (Harness.Runner.Adversary
         (node, { Attack.strategy = Attack.Fuzz; victims = [] }))
  | _ ->
    Corrupt_at
      { time = horizon *. (0.1 +. (0.5 *. Stdx.Rng.float rng 1.0)); node }

let fault_node = function
  | Static f -> Harness.Runner.fault_index f
  | Corrupt_at { node; _ } | Restart_at { node; _ } -> node

let faulty_nodes t =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Restart_at _ -> None
         | fault -> Some (fault_node fault))
       t.faults)

(* the leader the run's own dealer coin will elect for [wave] *)
let predicted_leader ~seed ~n ~f ~wave =
  let coin = Harness.Runner.dealer_coin ~seed ~n ~f in
  let shares =
    List.init (f + 1) (fun holder ->
        Crypto.Threshold_coin.make_share coin ~holder ~instance:wave)
  in
  match Crypto.Threshold_coin.combine coin ~instance:wave shares with
  | Some leader -> leader
  | None -> wave mod n

let generate ?(sabotage = false) ?(quick = false) ?lossy ?attack
    ?(weaken_sync = false) ?gc_depth ?(rule = Dagrider.Ordering.dag_rider) ~seed () =
  (* offset keeps the sampling stream distinct from the run's own seeded
     streams (Runner also derives from [seed]) *)
  let rng = Stdx.Rng.create (seed lxor 0x5ca40c0de) in
  (* sabotage runs longer: each extra wave is one more chance for the
     marginal-support + anchor-exclusion coincidence to line up *)
  let horizon =
    if sabotage then if quick then 60.0 else 100.0
    else if quick then 25.0
    else 50.0
  in
  (* sabotage pins the smallest fleet: with f = 1 the sabotaged quorum
     is met by the leader's own chain alone, which makes the divergence
     below essentially deterministic rather than a rare coincidence *)
  let n =
    if sabotage then 4
    else Stdx.Rng.choose rng (if quick then [| 4; 7 |] else [| 4; 7; 10 |])
  in
  let f = (n - 1) / 3 in
  let backend =
    Stdx.Rng.choose rng
      [| Harness.Runner.Bracha; Harness.Runner.Avid; Harness.Runner.Gossip |]
  in
  let base =
    (* sabotage wants per-link delay variance: boundary-straddling
       arrivals are what make leader support differ across processes *)
    if sabotage then Stdx.Rng.choose rng [| Bimodal; Heavy_tailed |]
    else Stdx.Rng.choose rng [| Uniform; Skewed; Bimodal; Heavy_tailed |]
  in
  let layers, faults =
    if sabotage then begin
      (* The only protocol deviation is the gutted commit quorum — the
         schedule is adversarial but fault-free, so every violation
         indicts the quorum.

         Why the quorum is taken all the way to 0: this implementation
         turned out to tolerate milder weakenings against a delay-only
         adversary.  At quorum f+1, every vertex carries 2f+1 strong
         edges, so a later anchor's strong closure has width >= 2f+1 at
         every earlier round and (f+1) + (2f+1) > n = 3f+1 forces a
         committed leader's supporter into it — skippers always chain
         the committed wave and logs stay consistent (the paper's 2f+1
         margin is buying tolerance to f *equivocating* supporters, a
         power the honest RBC backends deny the adversary).  Even at
         quorum f the chained backward walk keeps rescuing agreement in
         practice: with echo-amplified broadcast a vertex is delivered
         fleet-wide within about a hop, so any supporter chain intact
         enough to justify a commit is also strong-linked widely enough
         for every skipper's next anchor to reach it.  Hundreds of
         swarm seeds at Some (f+1) and Some f produced weakened commits
         (the commit-time leader-support oracle flags those) but not
         one divergent log.  See EXPERIMENTS.md.

         At quorum 0 the rule degenerates to commit-on-sight: a wave is
         committed whenever its leader vertex happens to be present at
         processing time, with no support demanded at all.  White-box
         leader targeting then makes divergence reliable: the run is a
         pure function of the seed, so the generator replays the
         runner's rng derivation, reconstructs the threshold coin,
         predicts which process a chosen wave elects, and slows that
         process heavily.  Its vertices arrive rounds late — after
         everyone has moved on, so no honest vertex ever takes a strong
         edge to them — and the coin-share storm spreads wave
         processing times apart, so the late leader vertex lands before
         some processes' processing moment (they commit the wave) and
         after others' (they skip, and their later anchors have no
         strong path into the never-linked leader chain, so the wave is
         skipped forever): prefix divergence the oracle must report as
         an agreement violation. *)
      let target_wave = 2 + Stdx.Rng.int rng 3 in
      (* round-robin rules publish their whole leader schedule, so the
         victim is a table lookup; coin rules need the rng replay above *)
      let victim =
        match rule.Dagrider.Ordering.rule_schedule with
        | Dagrider.Ordering.Round_robin ->
          Dagrider.Ordering.round_robin_leader ~n ~wave:target_wave
        | Dagrider.Ordering.Coin -> predicted_leader ~seed ~n ~f ~wave:target_wave
      in
      let slow =
        Slow_process { victim; factor = 5.0 +. Stdx.Rng.float rng 12.0 }
      in
      let coin_storm =
        Kind_storm_window
          { from_time = horizon *. (0.1 +. (0.2 *. Stdx.Rng.float rng 1.0));
            until_time = horizon *. (0.6 +. (0.25 *. Stdx.Rng.float rng 1.0));
            kinds = [ "coin-" ];
            factor = 4.0 +. Stdx.Rng.float rng 8.0 }
      in
      (* extra marginal chaos: per-receiver asymmetries spread the
         processing moments further apart *)
      let extras =
        List.init (Stdx.Rng.int rng 3) (fun _ ->
            match Stdx.Rng.int rng 3 with
            | 0 ->
              let from_time, until_time = sample_window rng ~horizon in
              Partition_window
                { from_time;
                  until_time;
                  left =
                    Stdx.Rng.sample_without_replacement rng
                      ~k:(1 + Stdx.Rng.int rng (n - 1))
                      ~n;
                  factor = 2.0 +. Stdx.Rng.float rng 2.0 }
            | 1 ->
              Sluggish
                { period = 4.0 +. Stdx.Rng.float rng 8.0;
                  factor = 2.0 +. Stdx.Rng.float rng 2.0 }
            | _ ->
              let from_time, until_time = sample_window rng ~horizon in
              Kind_storm_window
                { from_time;
                  until_time;
                  kinds = [ rbc_prefix backend ];
                  factor = 2.0 +. Stdx.Rng.float rng 2.0 })
      in
      (slow :: coin_storm :: extras, [])
    end
    else begin
      let layers =
        List.init (Stdx.Rng.int rng 3) (fun _ ->
            sample_layer rng ~n ~backend ~horizon)
      in
      let budget = Stdx.Rng.int rng (f + 1) in
      let victims = Stdx.Rng.sample_without_replacement rng ~k:budget ~n in
      let faults = List.map (sample_fault rng ~horizon) victims in
      let restarts =
        if Stdx.Rng.int rng 3 = 0 then begin
          let candidates =
            List.filter (fun i -> not (List.mem i victims))
              (List.init n (fun i -> i))
          in
          match candidates with
          | [] -> []
          | _ ->
            List.init
              (1 + Stdx.Rng.int rng 2)
              (fun _ ->
                Restart_at
                  { time = horizon *. (0.2 +. (0.5 *. Stdx.Rng.float rng 1.0));
                    node = Stdx.Rng.choose rng (Array.of_list candidates) })
        end
        else []
      in
      (layers, faults @ restarts)
    end
  in
  (* lossy links are sampled LAST, so enabling them never perturbs the
     draws above; the sabotage branch skips them entirely — its attack
     choreography depends on precise delivery timing. An explicit
     [lossy] override (the CLI's --loss/--dup/--corrupt flags) replaces
     whatever was sampled, again without consuming extra draws. *)
  let link_faults, lossy_forced =
    if sabotage then (None, false)
    else begin
      (* the sampling draws happen whether or not the override is used,
         so a forced-lossy run consumes exactly the draws the sampled
         one did and everything drawn after (the adversary) agrees *)
      let sampled =
        if Stdx.Rng.int rng 4 = 0 then
          Some
            { Harness.Runner.lf_drop = 0.05 +. Stdx.Rng.float rng 0.2;
              lf_duplicate = Stdx.Rng.float rng 0.1;
              lf_corrupt = Stdx.Rng.float rng 0.05;
              lf_reorder = Stdx.Rng.float rng 0.2 }
        else None
      in
      match lossy with Some lf -> (Some lf, true) | None -> (sampled, false)
    end
  in
  (* the adversary is drawn after even the lossy links, so enabling
     attacked sampling never perturbs any draw an older seed made. A
     forced [~attack] spec (the CLI's --attack flag) consumes no draws
     at all — it {e replaces} the sampled fault script with the one
     adversary (plus the sampled restarts, which are not faults), so the
     run stays within the [f] budget and the oracle verdicts stay
     meaningful *)
  let faults, attack, attack_forced =
    if sabotage then (faults, None, false)
    else begin
      let busy = List.sort_uniq compare (List.map fault_node faults) in
      let candidates =
        List.filter (fun i -> not (List.mem i busy)) (List.init n (fun i -> i))
      in
      match attack with
      | Some spec ->
        let node = match candidates with c :: _ -> c | [] -> 0 in
        let restarts =
          List.filter (function Restart_at _ -> true | _ -> false) faults
        in
        (* a lying catch-up peer only ever acts when somebody restarts
           and asks for sync: guarantee one restart in forced runs *)
        let restarts =
          if restarts <> [] || spec.Attack.strategy <> Attack.Lying_sync then
            restarts
          else
            [ Restart_at { time = horizon *. 0.45; node = (node + 1) mod n } ]
        in
        ( Static (Harness.Runner.Adversary (node, spec)) :: restarts,
          Some (node, spec),
          true )
      | None ->
        let static_faulty =
          List.filter (function Restart_at _ -> false | _ -> true) faults
        in
        (* short-circuit order matters: when the fault budget is already
           spent no draw is consumed, and nothing is sampled after this
           block, so both shapes stay replayable from the seed *)
        if
          List.length static_faulty >= f
          || candidates = []
          || Stdx.Rng.int rng 3 <> 0
        then (faults, None, false)
        else begin
          let node = Stdx.Rng.choose rng (Array.of_list candidates) in
          let strategy =
            Stdx.Rng.choose rng (Array.of_list Attack.adaptive_strategies)
          in
          let spec = { Attack.strategy; victims = [] } in
          (* consed at the head so the shrinker tries dropping the
             adversary before any other fault *)
          ( Static (Harness.Runner.Adversary (node, spec)) :: faults,
            Some (node, spec),
            false )
        end
    end
  in
  (* retransmission (rto 3.0, backoff) stretches end-to-end latency:
     give lossy runs room to keep committing inside the horizon *)
  let horizon = if link_faults <> None then horizon *. 2.0 else horizon in
  { seed;
    quick;
    sabotage;
    n;
    f;
    backend;
    rule;
    base;
    layers;
    faults;
    horizon;
    link_faults;
    lossy_forced;
    attack;
    attack_forced;
    sync_weakened = weaken_sync && not sabotage;
    gc_depth }

let base_sched base rng =
  match base with
  | Uniform -> Net.Sched.uniform_random ~rng
  | Skewed -> Net.Sched.skewed_random ~rng
  | Bimodal -> Net.Sched.bimodal ~rng
  | Heavy_tailed -> Net.Sched.heavy_tailed ~rng

let build_sched t rng =
  List.fold_left
    (fun inner layer ->
      match layer with
      | Partition_window { from_time; until_time; left; factor } ->
        Net.Sched.with_window ~inner ~from_time ~until_time
          ~during:
            (Net.Sched.partition ~inner ~left:(fun i -> List.mem i left)
               ~factor)
      | Kind_storm_window { from_time; until_time; kinds; factor } ->
        Net.Sched.with_window ~inner ~from_time ~until_time
          ~during:(Net.Sched.kind_storm ~inner ~kinds ~factor)
      | Slow_process { victim; factor } ->
        Net.Sched.delay_process ~inner ~victim ~factor
      | Hide_process { victim; factor } ->
        Net.Sched.delay_matching ~inner
          ~pred:(fun ~src ~dst ~kind ->
            ignore kind;
            src = victim && dst <> victim)
          ~factor
      | Sluggish { period; factor } ->
        Net.Sched.mobile_sluggish ~inner ~n:t.n ~f:t.f ~period ~factor)
    (base_sched t.base rng) t.layers

(* the rule the fleet is built with: sabotage plants commit-on-sight
   (quorum 0, see [generate]); the oracles keep judging by [t.rule] *)
let run_rule t =
  if t.sabotage then
    { t.rule with Dagrider.Ordering.rule_quorum = Dagrider.Ordering.Fixed 0 }
  else t.rule

let to_options t =
  let statics =
    List.filter_map (function Static f -> Some f | _ -> None) t.faults
  in
  { (Harness.Runner.default_options ~n:t.n) with
    f = t.f;
    seed = t.seed;
    backend = t.backend;
    rule = run_rule t;
    schedule = Harness.Runner.Custom (build_sched t);
    faults = statics;
    link_faults = t.link_faults;
    sync_trusting = t.sync_weakened;
    gc_depth = t.gc_depth }

let expect_validity t =
  (not t.sabotage)
  && t.faults = []
  && t.link_faults = None
  && List.for_all
       (function Slow_process _ | Hide_process _ -> false | _ -> true)
       t.layers

let describe_backend = function
  | Harness.Runner.Bracha -> "bracha"
  | Harness.Runner.Avid -> "avid"
  | Harness.Runner.Gossip -> "gossip"

let describe_base = function
  | Uniform -> "uniform"
  | Skewed -> "skewed"
  | Bimodal -> "bimodal"
  | Heavy_tailed -> "heavy-tailed"

let describe_layer = function
  | Partition_window { from_time; until_time; left; factor } ->
    Printf.sprintf "partition{%s}x%.0f@[%.1f,%.1f)"
      (String.concat "," (List.map string_of_int left))
      factor from_time until_time
  | Kind_storm_window { from_time; until_time; kinds; factor } ->
    Printf.sprintf "storm[%s]x%.0f@[%.1f,%.1f)" (String.concat "," kinds)
      factor from_time until_time
  | Slow_process { victim; factor } ->
    Printf.sprintf "slow(p%d)x%.0f" victim factor
  | Hide_process { victim; factor } ->
    Printf.sprintf "hide(p%d)x%.0f" victim factor
  | Sluggish { period; factor } ->
    Printf.sprintf "sluggish(T=%.1f)x%.0f" period factor

let describe_fault = function
  | Static (Harness.Runner.Crash i) -> Printf.sprintf "crash p%d" i
  | Static (Harness.Runner.Byzantine_live i) -> Printf.sprintf "byz-live p%d" i
  | Static (Harness.Runner.Adversary (i, spec)) -> Attack.describe ~node:i spec
  | Corrupt_at { time; node } -> Printf.sprintf "corrupt p%d@%.1f" node time
  | Restart_at { time; node } -> Printf.sprintf "restart p%d@%.1f" node time

let describe_lossy (lf : Harness.Runner.link_faults) =
  Printf.sprintf "lossy(drop=%.2f,dup=%.2f,corrupt=%.2f,reorder=%.2f)"
    lf.Harness.Runner.lf_drop lf.Harness.Runner.lf_duplicate
    lf.Harness.Runner.lf_corrupt lf.Harness.Runner.lf_reorder

let describe t =
  Printf.sprintf
    "seed %d: n=%d f=%d backend=%s%s sched=%s%s faults=[%s]%s%s%s%s horizon=%.0f%s"
    t.seed t.n t.f
    (describe_backend t.backend)
    (if t.rule.Dagrider.Ordering.rule_name = "dagrider" then ""
     else " rule=" ^ t.rule.Dagrider.Ordering.rule_name)
    (describe_base t.base)
    (match t.layers with
    | [] -> ""
    | ls -> "+" ^ String.concat "+" (List.map describe_layer ls))
    (String.concat "; " (List.map describe_fault t.faults))
    (if t.sabotage then
       Printf.sprintf " quorum=%d(SABOTAGED)"
         (Dagrider.Ordering.quorum_of (run_rule t) ~f:t.f)
     else "")
    (match t.link_faults with
    | None -> ""
    | Some lf ->
      " " ^ describe_lossy lf ^ if t.lossy_forced then "(forced)" else "")
    ((if t.attack <> None && t.attack_forced then " attack(forced)" else "")
    ^ if t.sync_weakened then " sync=TRUSTING(WEAKENED)" else "")
    (match t.gc_depth with
    | None -> ""
    | Some depth -> Printf.sprintf " gc=%d(forced)" depth)
    t.horizon
    (if t.quick then " (quick)" else "")
