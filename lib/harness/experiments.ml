type table = {
  title : string;
  header : string list;
  rows : string list list;
  snapshots : (string * Metrics.Registry.snapshot) list;
  notes : string list;
}

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (Stdx.Table.render ~header:t.header ~rows:t.rows);
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let to_json t =
  let str s = Stdx.Json.String s in
  Stdx.Json.Obj
    [ ("title", str t.title);
      ("header", Stdx.Json.List (List.map str t.header));
      ( "rows",
        Stdx.Json.List
          (List.map (fun r -> Stdx.Json.List (List.map str r)) t.rows) );
      ("notes", Stdx.Json.List (List.map str t.notes));
      ( "snapshots",
        Stdx.Json.Obj
          (List.map
             (fun (k, s) -> (k, Metrics.Registry.snapshot_to_json s))
             t.snapshots) ) ]

let fmt_int = string_of_int
let fmt_float f = Printf.sprintf "%.2f" f

(* ---- shared drivers ---- *)

(* Run DAG-Rider and return (honest bits, values ordered at p0, time to
   order >= count values from distinct correct sources). *)
let run_dagrider ~backend ~n ~seed ~block_bytes ~until () =
  let opts =
    { (Runner.default_options ~n) with backend; seed; block_bytes }
  in
  let h = Runner.build opts in
  Runner.run h ~until;
  let log = Dagrider.Node.delivered_log (Runner.node h 0) in
  (Runner.honest_bits h, List.length log, h)

(* time until node 0 has ordered values from >= count distinct sources *)
let dagrider_time_to_distinct ?schedule ~backend ~n ~seed ~count ~max_time () =
  let opts =
    { (Runner.default_options ~n) with backend; seed; block_bytes = 32 }
  in
  let opts =
    match schedule with None -> opts | Some schedule -> { opts with schedule }
  in
  let h = Runner.build opts in
  Runner.start h;
  let distinct_sources () =
    Dagrider.Node.delivered_log (Runner.node h 0)
    |> List.map (fun v -> v.Dagrider.Vertex.source)
    |> List.sort_uniq compare |> List.length
  in
  let rec loop t =
    if distinct_sources () >= count then Some (Sim.Engine.now (Runner.engine h))
    else if t >= max_time then None
    else begin
      ignore (Sim.Engine.run (Runner.engine h) ~until:t ());
      loop (t +. 0.5)
    end
  in
  loop 0.5

type smr_run = {
  smr_bits : int;
  smr_outputs : int;
  smr_time_n_slots : float option; (* time until n slots output in order *)
  smr_victim_outputs : int;
}

let run_smr ~protocol ~n ~seed ~block_bytes ~until ?(victim_factor = 1.0)
    ?(bimodal = false) () =
  let f = (n - 1) / 3 in
  let rng = Stdx.Rng.create seed in
  let sched_rng = Stdx.Rng.split rng in
  let engine = Sim.Engine.create () in
  let counters = Metrics.Counters.create () in
  let base =
    if bimodal then
      (* fixed sluggish set: the last f processes are 100x slow for the
         whole run (legal asynchrony; they are still correct) *)
      Net.Sched.delay_matching
        ~inner:(Net.Sched.uniform_random ~rng:sched_rng)
        ~pred:(fun ~src ~dst:_ ~kind:_ -> src >= n - f)
        ~factor:100.0
    else Net.Sched.uniform_random ~rng:sched_rng
  in
  let sched =
    if victim_factor > 1.0 then
      Net.Sched.delay_process ~inner:base ~victim:(n - 1) ~factor:victim_factor
    else base
  in
  let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.split rng) ~n in
  let coin = Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.split rng) ~n ~f in
  let outputs = ref 0 in
  let victim_outputs = ref 0 in
  let time_n = ref None in
  let batch ~slot ~me =
    let tag = Printf.sprintf "s%d;p%d;" slot me in
    if String.length tag >= block_bytes then tag
    else tag ^ String.make (block_bytes - String.length tag) 'x'
  in
  let smr =
    Baselines.Smr.create ~engine ~counters ~sched ~auth ~coin ~protocol ~n ~f
      ~concurrency:n ~total_slots:10_000 ~batch
      ~on_output:(fun ~slot ~value ~time ->
        incr outputs;
        if slot = n - 1 && !time_n = None then time_n := Some time;
        (match String.split_on_char ';' value with
        | _ :: p :: _ when p = Printf.sprintf "p%d" (n - 1) -> incr victim_outputs
        | _ -> ()))
      ()
  in
  Baselines.Smr.start smr;
  ignore (Sim.Engine.run engine ~until ());
  { smr_bits = Metrics.Counters.total_bits counters;
    smr_outputs = !outputs;
    smr_time_n_slots = !time_n;
    smr_victim_outputs = !victim_outputs }

(* ---- E1: communication ---- *)

let table1_communication ?(ns = [ 4; 7; 10; 13 ]) ?(seed = 42) () =
  (* the paper's metric (§3): bits sent by honest processes per ordered
     TRANSACTION, with batches of Theta(n log n) transactions per block
     — the amortization regime in which Table 1's O(n) rows are stated *)
  let tx_bytes = 64 in
  let until = 40.0 in
  let txs_per_block n =
    n * max 1 (int_of_float (Float.round (log (float_of_int n))))
  in
  let snapshots = ref [] in
  let dag name backend ~n =
    let block_bytes = tx_bytes * txs_per_block n in
    let bits, ordered, h = run_dagrider ~backend ~n ~seed ~block_bytes ~until () in
    snapshots :=
      (Printf.sprintf "%s/n=%d" name n, Runner.metrics_snapshot h)
      :: !snapshots;
    float_of_int bits /. float_of_int (max 1 (ordered * txs_per_block n))
  in
  let smr protocol ~n =
    let block_bytes = tx_bytes * txs_per_block n in
    let r = run_smr ~protocol ~n ~seed ~block_bytes ~until () in
    float_of_int r.smr_bits
    /. float_of_int (max 1 (r.smr_outputs * txs_per_block n))
  in
  let systems =
    [ ("VABA SMR", smr Baselines.Smr.Vaba_smr);
      ("Dumbo SMR", smr Baselines.Smr.Dumbo_smr);
      ("DAG-Rider+Bracha", dag "DAG-Rider+Bracha" Runner.Bracha);
      ("DAG-Rider+gossip", dag "DAG-Rider+gossip" Runner.Gossip);
      ("DAG-Rider+AVID", dag "DAG-Rider+AVID" Runner.Avid) ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let per_n = List.map (fun n -> (float_of_int n, f ~n)) ns in
        let exponent = Stdx.Stats.growth_exponent per_n in
        name
        :: List.map (fun (_, v) -> Printf.sprintf "%.0f" v) per_n
        @ [ fmt_float exponent ])
      systems
  in
  { title =
      "E1 / Table 1: bits sent by honest processes per ordered transaction";
    header =
      ("system" :: List.map (fun n -> Printf.sprintf "n=%d" n) ns)
      @ [ "growth exp" ];
    rows;
    snapshots = List.rev !snapshots;
    notes =
      [ Printf.sprintf
          "%d-byte txs, n*round(ln n) txs per block; %g-time-unit horizon; seed %d"
          tx_bytes until seed;
        "paper's claimed amortized growth: VABA O(n^2); Dumbo O(n); \
         DAG-Rider+Bracha O(n^2) (echoes carry whole vertices); \
         DAG-Rider+gossip O(n log n); DAG-Rider+AVID O(n)" ] }

(* ---- E2: time ---- *)

let table1_time ?(ns = [ 4; 7; 10; 13 ]) ?(seed = 42) () =
  (* under a dispersed (bimodal) schedule, straggler messages make every
     single-shot instance's completion time a genuine random variable;
     the SMRs must output n concurrent slots IN ORDER, so they pay the
     max of n draws (the Ben-Or-El-Yaniv O(log n)), while DAG-Rider's
     waves keep ordering n proposers' values per commit at a flat rate *)
  let seeds = List.init 8 (fun i -> seed + i) in
  let avg xs =
    List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let dag_time ~n =
    (* "O(n) values proposed by different correct processes" = 2f+1
       distinct proposers; DAG-Rider is quorum-gated, so stragglers
       cannot hold it back *)
    let f = (n - 1) / 3 in
    avg
      (List.map
         (fun seed ->
           let schedule =
             Runner.Custom
               (fun rng ->
                 Net.Sched.delay_matching
                   ~inner:(Net.Sched.uniform_random ~rng)
                   ~pred:(fun ~src ~dst:_ ~kind:_ -> src >= n - f)
                   ~factor:100.0)
           in
           match
             dagrider_time_to_distinct ~schedule ~backend:Runner.Bracha ~n ~seed
               ~count:((2 * f) + 1) ~max_time:300.0 ()
           with
           | Some t -> t
           | None -> 300.0)
         seeds)
  in
  let smr_time ~protocol ~n =
    avg
      (List.map
         (fun seed ->
           let r =
             run_smr ~protocol ~n ~seed ~block_bytes:64 ~until:600.0
               ~bimodal:true ()
           in
           match r.smr_time_n_slots with Some t -> t | None -> 600.0)
         seeds)
  in
  let systems =
    [ ("VABA SMR", fun ~n -> smr_time ~protocol:Baselines.Smr.Vaba_smr ~n);
      ("Dumbo SMR", fun ~n -> smr_time ~protocol:Baselines.Smr.Dumbo_smr ~n);
      ("DAG-Rider", fun ~n -> dag_time ~n) ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let per_n = List.map (fun n -> f ~n) ns in
        let first = List.hd per_n and last = List.nth per_n (List.length per_n - 1) in
        name
        :: List.map fmt_float per_n
        @ [ fmt_float (last /. first) ])
      systems
  in
  { title =
      "E2 / Table 1: time units to order n values (n distinct proposers / n in-order slots)";
    header =
      ("system" :: List.map (fun n -> Printf.sprintf "n=%d" n) ns)
      @ [ "slowdown n_max/n_min" ];
    rows;
    snapshots = [];
    notes =
      [ "8-seed averages with the last f processes slowed 100x (legal \
         asynchrony); a slot whose coin elects a slowed leader burns \
         the view and retries — geometric views, so clearing n in-order \
         slots costs the max of n geometrics ~ O(log n) (Ben-Or & \
         El-Yaniv) — while DAG-Rider advances on the fast 2f+1 and one \
         commit orders every fast proposer's backlog at once (no \
         re-proposing), staying ~flat" ] }

(* ---- E3: fairness + post-quantum ---- *)

let fairness_measurement ~seed =
  let n = 4 in
  let horizon = 120.0 in
  let victim = n - 1 in
  (* DAG-Rider under censorship *)
  let dr_share =
    let schedule =
      Runner.Custom
        (fun rng ->
          Net.Sched.delay_process
            ~inner:(Net.Sched.uniform_random ~rng)
            ~victim ~factor:25.0)
    in
    let opts = { (Runner.default_options ~n) with seed; schedule } in
    let h = Runner.build opts in
    Runner.run h ~until:horizon;
    let log = Dagrider.Node.delivered_log (Runner.node h 0) in
    let total = List.length log in
    let hit =
      List.length (List.filter (fun v -> v.Dagrider.Vertex.source = victim) log)
    in
    float_of_int hit /. float_of_int (max 1 total)
  in
  let smr_share protocol =
    let r =
      run_smr ~protocol ~n ~seed ~block_bytes:64 ~until:horizon
        ~victim_factor:25.0 ()
    in
    float_of_int r.smr_victim_outputs /. float_of_int (max 1 r.smr_outputs)
  in
  (dr_share, smr_share Baselines.Smr.Vaba_smr, smr_share Baselines.Smr.Dumbo_smr)

let table1_fairness ?(seed = 42) () =
  let dr, vaba, dumbo = fairness_measurement ~seed in
  let pct x = Printf.sprintf "%.1f%%" (100.0 *. x) in
  { title =
      "E3 / Table 1: eventual fairness (victim share under 25x targeted delay; fair share 25%) and post-quantum safety";
    header = [ "system"; "victim share"; "eventually fair"; "post-quantum safety" ];
    rows =
      [ [ "VABA SMR"; pct vaba; (if vaba < 0.125 then "no" else "yes");
          "no (signatures on safety path)" ];
        [ "Dumbo SMR"; pct dumbo; (if dumbo < 0.125 then "no" else "yes");
          "no (signatures on safety path)" ];
        [ "DAG-Rider"; pct dr; (if dr >= 0.125 then "yes" else "NO");
          "yes (safety uses only hashes + info-theoretic coin agreement)" ] ];
    snapshots = [];
    notes =
      [ "n = 4, so an unbiased order gives the victim 25% of values;";
        "post-quantum column is structural: DAG-Rider's safety path has no \
         signature verification (grep the dagrider library for Auth — none)" ] }

let table1_combined ?(seed = 42) () =
  let comm = table1_communication ~ns:[ 4; 7; 10 ] ~seed () in
  let time = table1_time ~ns:[ 4; 7; 10 ] ~seed () in
  let dr, vaba, dumbo = fairness_measurement ~seed in
  let find rows name idx = List.nth (List.find (fun r -> List.hd r = name) rows) idx in
  let comm_exp name = find comm.rows name 4 in
  let time_cells name =
    Printf.sprintf "%s -> %s"
      (find time.rows name 1)
      (find time.rows name 3)
  in
  let fair x = if x >= 0.125 then "yes" else "no" in
  { title = "Table 1 (combined reproduction): measured shape per system";
    header =
      [ "system"; "comm growth exp (bits/value)"; "time n=4 -> n=10";
        "post-quantum safety"; "eventual fairness" ];
    rows =
      [ [ "VABA SMR"; comm_exp "VABA SMR"; time_cells "VABA SMR"; "no"; fair vaba ];
        [ "Dumbo SMR"; comm_exp "Dumbo SMR"; time_cells "Dumbo SMR"; "no"; fair dumbo ];
        [ "DAG-Rider+Bracha"; comm_exp "DAG-Rider+Bracha"; time_cells "DAG-Rider";
          "yes"; fair dr ];
        [ "DAG-Rider+gossip"; comm_exp "DAG-Rider+gossip"; time_cells "DAG-Rider";
          "yes"; fair dr ];
        [ "DAG-Rider+AVID"; comm_exp "DAG-Rider+AVID"; time_cells "DAG-Rider";
          "yes"; fair dr ] ];
    snapshots = [];
    notes =
      [ "paper's Table 1 claims: VABA O(n^2)/O(log n)/no/no; Dumbo \
         O(n)/O(log n)/no/no; DAG-Rider+Bracha O(n^2)/O(1)/yes/yes; +[25] \
         O(n log n)/O(1)/yes/(1-eps); +[14] O(n)/O(1)/yes/yes" ] }

(* ---- E6: Claim 6 ---- *)

(* traced runs per schedule, seeds [seed] to [seed + claim6_runs - 1] *)
let claim6_runs = 5

let claim6_waves ?(seed = 42) () =
  (* analyzer-backed: each run is traced and the per-wave records come
     from Analyze (waves processed per direct commit, i.e. how many
     waves pass until the commit rule fires) *)
  let measure ~schedule ~sched_name =
    let reports =
      List.map
        (fun s ->
          let opts =
            { (Runner.default_options ~n:4) with
              seed = seed + s;
              schedule;
              trace = Some (Trace.create ~capacity:4096 ()) }
          in
          let h = Runner.build opts in
          Runner.run h ~until:250.0;
          Option.get (Runner.analysis h))
        (List.init claim6_runs Fun.id)
    in
    let mean =
      List.fold_left (fun acc r -> acc +. r.Analyze.r_waves_per_commit) 0.0
        reports
      /. float_of_int claim6_runs
    in
    let skipped =
      List.fold_left (fun acc r -> acc + r.Analyze.r_waves_skipped) 0 reports
    in
    let anomalies =
      List.fold_left
        (fun acc r -> acc + List.length r.Analyze.r_anomalies)
        0 reports
    in
    [ sched_name; fmt_int claim6_runs; fmt_float mean;
      (if mean <= 1.5 then "<= 3/2: yes" else "above paper bound");
      fmt_int skipped; fmt_int anomalies ]
  in
  { title =
      "E6 / Claim 6: waves per direct commit, analyzer-derived (paper bound: \
       3/2 expected, worst case)";
    header =
      [ "schedule"; "runs"; "waves per commit"; "vs paper bound";
        "waves skipped"; "anomalies" ];
    rows =
      [ measure ~schedule:Runner.Uniform_random ~sched_name:"uniform random";
        measure ~schedule:Runner.Skewed_random ~sched_name:"skewed random";
        measure ~schedule:Runner.Synchronous ~sched_name:"synchronous" ];
    snapshots = [];
    notes =
      [ "the 3/2 bound is against the worst-case adaptive adversary; \
         non-adversarial schedules should sit near 1.0";
        "derived from traced runs via Analyze (same pipeline as \
         `dagrider_run analyze`): a wave counts against the bound when \
         the ordering processes it, and for it when its commit rule \
         fires directly" ] }

(* ---- E7: chain quality ---- *)

let chain_quality ?(seed = 42) () =
  (* analyzer-backed: the audit runs inside Analyze over the traced
     observer's a_deliver stream, so the same code path serves
     `dagrider_run analyze` and this experiment *)
  let run ~n ~f ~faults =
    let opts =
      { (Runner.default_options ~n) with
        seed;
        faults;
        trace = Some (Trace.create ~capacity:4096 ()) }
    in
    let h = Runner.build opts in
    Runner.run h ~until:100.0;
    let report = Option.get (Runner.analysis h) in
    let cq = report.Analyze.r_chain_quality in
    [ Printf.sprintf "n=%d f=%d" n f;
      fmt_int cq.Metrics.Chain_quality.total;
      fmt_float cq.Metrics.Chain_quality.worst_prefix_ratio;
      fmt_float report.Analyze.r_chain_quality_bound;
      (if cq.Metrics.Chain_quality.holds then "holds" else "VIOLATED") ]
  in
  { title = "E7 / chain quality: correct-process share of every ordered prefix";
    header =
      [ "config"; "values ordered"; "worst prefix ratio"; "paper bound (f+1)/(2f+1)";
        "verdict" ];
    rows =
      [ run ~n:4 ~f:1 ~faults:[ Runner.Byzantine_live 0 ];
        run ~n:7 ~f:2 ~faults:[ Runner.Byzantine_live 0; Runner.Byzantine_live 1 ];
        run ~n:10 ~f:3
          ~faults:
            [ Runner.Byzantine_live 0; Runner.Byzantine_live 1;
              Runner.Byzantine_live 2 ] ];
    snapshots = [];
    notes =
      [ "Byzantine-live processes run the protocol (their best strategy for \
         order share); the bound must hold on every (2f+1)-multiple prefix";
        "audited by the protocol analyzer over the traced observer's \
         a_deliver stream (same code path as `dagrider_run analyze`)" ] }

(* ---- E8: batching ---- *)

let batching ?(seed = 42) () =
  let n = 7 in
  let tx_bytes = 32 in
  let ln_n = int_of_float (ceil (log (float_of_int n))) in
  let run ~txs_per_block =
    let block_bytes = txs_per_block * tx_bytes in
    let bits, ordered, _ =
      run_dagrider ~backend:Runner.Bracha ~n ~seed ~block_bytes ~until:40.0 ()
    in
    let txs = ordered * txs_per_block in
    [ fmt_int txs_per_block;
      fmt_int ordered;
      fmt_int txs;
      Printf.sprintf "%.0f" (float_of_int bits /. float_of_int (max 1 txs)) ]
  in
  { title = "E8 / batching amortization (DAG-Rider+Bracha, n=7): bits per transaction vs batch size";
    header = [ "txs per block"; "blocks ordered"; "txs ordered"; "bits per tx" ];
    rows =
      [ run ~txs_per_block:1; run ~txs_per_block:n;
        run ~txs_per_block:(n * ln_n); run ~txs_per_block:(n * n);
        run ~txs_per_block:(4 * n * n) ];
    snapshots = [];
    notes =
      [ "the paper: batching O(n) proposals per vertex shaves a factor n off \
         per-transaction cost even with Bracha (\"since we are anyway \
         including a vector of O(n) references in every broadcast\")" ] }

(* ---- ablations ---- *)

let ablation_wave_length ?(seed = 42) () =
  let run ~wave_length =
    let rule =
      { Dagrider.Ordering.dag_rider with rule_wave_length = wave_length }
    in
    let opts = { (Runner.default_options ~n:4) with seed; rule } in
    let h = Runner.build opts in
    Runner.run h ~until:150.0;
    let node = Runner.node h 0 in
    let completed = Dagrider.Node.waves_completed node in
    let decided = Dagrider.Ordering.decided_wave (Dagrider.Node.ordering node) in
    let rounds = Dagrider.Node.current_round node in
    [ fmt_int wave_length;
      fmt_int completed;
      fmt_int decided;
      fmt_float (float_of_int decided /. float_of_int (max 1 completed));
      fmt_float (float_of_int rounds /. float_of_int (max 1 decided)) ]
  in
  { title = "Ablation: wave length (paper uses 4)";
    header =
      [ "wave len"; "waves completed"; "waves decided"; "decide rate";
        "rounds per decided wave" ];
    rows = List.map (fun wl -> run ~wave_length:wl) [ 2; 3; 4; 5; 6 ];
    snapshots = [];
    notes =
      [ "under non-adversarial schedules short waves also commit — the paper \
         needs >= 4 rounds for the common-core argument to bound the commit \
         probability against the worst-case adaptive adversary (Lemma 2); \
         longer waves just add latency" ] }

let ablation_rbc ?(seed = 42) () =
  let run ~backend ~name ~block_bytes =
    let bits, ordered, h =
      run_dagrider ~backend ~n:7 ~seed ~block_bytes ~until:40.0 ()
    in
    let now = Sim.Engine.now (Runner.engine h) in
    [ name;
      fmt_int block_bytes;
      fmt_int ordered;
      Printf.sprintf "%.0f" (float_of_int bits /. float_of_int (max 1 ordered));
      fmt_float (now /. float_of_int (max 1 ordered) *. float_of_int 7) ]
  in
  { title = "Ablation: reliable-broadcast instantiation (n=7)";
    header =
      [ "backend"; "block bytes"; "values ordered"; "bits per value";
        "time units per n values" ];
    rows =
      [ run ~backend:Runner.Bracha ~name:"Bracha" ~block_bytes:64;
        run ~backend:Runner.Gossip ~name:"gossip" ~block_bytes:64;
        run ~backend:Runner.Avid ~name:"AVID" ~block_bytes:64;
        run ~backend:Runner.Bracha ~name:"Bracha" ~block_bytes:4096;
        run ~backend:Runner.Gossip ~name:"gossip" ~block_bytes:4096;
        run ~backend:Runner.Avid ~name:"AVID" ~block_bytes:4096 ];
    snapshots = [];
    notes =
      [ "Bracha's echo/ready carry the whole vertex: it loses badly on large \
         blocks; AVID ships |block|/(f+1) fragments and wins there; gossip \
         trades certainty (epsilon failure) for subquadratic messages" ] }

let ablation_weak_edges ?(seed = 42) () =
  let run ~enable_weak_edges =
    let schedule =
      Runner.Custom
        (fun rng ->
          Net.Sched.delay_process
            ~inner:(Net.Sched.uniform_random ~rng)
            ~victim:3 ~factor:15.0)
    in
    let opts =
      { (Runner.default_options ~n:4) with seed; schedule; enable_weak_edges }
    in
    let h = Runner.build opts in
    Runner.run h ~until:150.0;
    let log = Dagrider.Node.delivered_log (Runner.node h 0) in
    let victim =
      List.length (List.filter (fun v -> v.Dagrider.Vertex.source = 3) log)
    in
    [ (if enable_weak_edges then "on (paper)" else "off");
      fmt_int (List.length log);
      fmt_int victim;
      (if victim > 0 then "validity holds" else "victim starved: validity broken") ]
  in
  { title = "Ablation: weak edges under censorship (victim's messages delayed 15x)";
    header = [ "weak edges"; "values ordered"; "from victim"; "verdict" ];
    rows = [ run ~enable_weak_edges:true; run ~enable_weak_edges:false ];
    snapshots = [];
    notes =
      [ "weak edges exist exactly to pull slow processes' vertices into \
         committed leaders' causal histories (paper §5, Validity)" ] }

(* ---- proposal-to-delivery latency ---- *)

(* Run [options] to time 120 with [per_node] uniquely tagged probe
   blocks injected at every process on a fixed cadence, recording each
   probe's proposal time and its deliveries. Returns the fleet, the
   first-delivery latencies and the trailing row cells: undelivered,
   mean, p50, p99. *)
let probe_latency (options : Runner.options) ~per_node =
  let recorder = Metrics.Latency.create ~processes:options.n () in
  let h =
    Runner.build
      { options with
        on_deliver =
          Some
            (fun ~node ~block ~round:_ ~source:_ ~time ->
              Metrics.Latency.delivered recorder block ~process:node ~now:time) }
  in
  let engine = Runner.engine h in
  for i = 0 to options.n - 1 do
    for k = 0 to per_node - 1 do
      let at = 1.0 +. (2.0 *. float_of_int k) +. (0.1 *. float_of_int i) in
      Sim.Engine.schedule_at engine ~time:at (fun () ->
          let block = Printf.sprintf "probe:%d:%d" i k in
          Metrics.Latency.proposed recorder block ~now:(Sim.Engine.now engine);
          Dagrider.Node.a_bcast (Runner.node h i) block)
    done
  done;
  Runner.run h ~until:120.0;
  let stats = Stdx.Stats.create () in
  List.iter (Stdx.Stats.add stats)
    (Metrics.Latency.all_first_delivery_latencies recorder);
  ( h,
    stats,
    [ fmt_int (List.length (Metrics.Latency.undelivered recorder));
      fmt_float (Stdx.Stats.mean stats);
      fmt_float (Stdx.Stats.percentile stats 50.0);
      fmt_float (Stdx.Stats.percentile stats 99.0) ] )

let latency ?(seed = 42) () =
  let n = 4 in
  let injections_per_node = 15 in
  let snapshots = ref [] in
  let run ~backend ~name ~coin_in_dag =
    let h, stats, cells =
      probe_latency
        { (Runner.default_options ~n) with seed; backend; coin_in_dag }
        ~per_node:injections_per_node
    in
    snapshots := (name, Runner.metrics_snapshot h) :: !snapshots;
    name :: fmt_int (Stdx.Stats.count stats) :: cells
  in
  { title =
      "Latency: proposal (a_bcast) to first delivery (a_deliver), in time units";
    header =
      [ "configuration"; "delivered"; "undelivered"; "mean"; "p50"; "p99" ];
    rows =
      [ run ~backend:Runner.Bracha ~name:"Bracha, separate coin" ~coin_in_dag:false;
        run ~backend:Runner.Bracha ~name:"Bracha, coin in DAG" ~coin_in_dag:true;
        run ~backend:Runner.Avid ~name:"AVID, separate coin" ~coin_in_dag:false;
        run ~backend:Runner.Gossip ~name:"gossip, separate coin" ~coin_in_dag:false ];
    snapshots = List.rev !snapshots;
    notes =
      [ Printf.sprintf
          "%d probes per process at a 2-unit cadence, n = %d; a probe's \
           latency spans: queueing in blocksToPropose + RBC of its vertex \
           + wave completion + coin resolution + commit"
          injections_per_node n ] }

(* ---- coin transport ablation (paper footnote 1) ---- *)

let ablation_coin ?(seed = 42) () =
  let run ~coin_in_dag =
    let opts =
      { (Runner.default_options ~n:7) with seed; coin_in_dag; block_bytes = 64 }
    in
    let h = Runner.build opts in
    Runner.run h ~until:60.0;
    let counters = Runner.counters h in
    let coin_bits =
      match List.assoc_opt "coin-share" (Metrics.Counters.bits_by_kind counters) with
      | Some b -> b
      | None -> 0
    in
    let node = Runner.node h 0 in
    [ (if coin_in_dag then "in DAG (footnote 1)" else "separate channel");
      fmt_int (Metrics.Counters.total_bits counters);
      fmt_int coin_bits;
      fmt_int (Metrics.Counters.total_messages counters);
      fmt_int (Dagrider.Ordering.delivered_count (Dagrider.Node.ordering node));
      fmt_int (Dagrider.Node.waves_completed node) ]
  in
  { title = "Ablation: coin share transport (paper footnote 1)";
    header =
      [ "coin transport"; "total bits"; "coin-share bits"; "messages";
        "delivered"; "waves" ];
    rows = [ run ~coin_in_dag:false; run ~coin_in_dag:true ];
    snapshots = [];
    notes =
      [ "embedding shares in the first vertex after each wave removes the \
         n^2-messages-per-wave coin channel entirely; shares then arrive \
         with reliable-broadcast deliveries, bound to their holder by the \
         broadcast's authenticated source" ] }

(* ---- garbage collection ablation ---- *)

let ablation_gc ?(seed = 42) () =
  let run gc_depth =
    let opts =
      { (Runner.default_options ~n:4) with seed; gc_depth; block_bytes = 64 }
    in
    let h = Runner.build opts in
    Runner.run h ~until:200.0;
    let node = Runner.node h 0 in
    let dag = Dagrider.Node.dag node in
    let retained = List.length (Dagrider.Dag.vertices dag) in
    let log = Dagrider.Node.delivered_log node in
    ( (match gc_depth with None -> "off (paper)" | Some d -> Printf.sprintf "depth %d" d),
      retained,
      List.length log,
      List.map Dagrider.Vertex.vref_of log )
  in
  let off_name, off_retained, off_delivered, off_log = run None in
  let on_name, on_retained, on_delivered, on_log = run (Some 8) in
  let row (name, retained, delivered) =
    [ name; fmt_int retained; fmt_int delivered;
      Printf.sprintf "%.1f%%" (100.0 *. float_of_int retained /. float_of_int (max 1 delivered)) ]
  in
  { title = "Ablation: garbage collection of delivered rounds (extension; off by default)";
    header = [ "gc"; "vertices retained"; "vertices delivered"; "retained/delivered" ];
    rows =
      [ row (off_name, off_retained, off_delivered);
        row (on_name, on_retained, on_delivered) ];
    snapshots = [];
    notes =
      [ Printf.sprintf "identical ordered output with GC on and off: %b"
          (off_log = on_log);
        "without GC the DAG grows linearly forever; pruning keeps a \
         constant window behind the committed leaders (no history walk \
         goes below the last leader's round minus the depth), which is \
         what a long-lived deployment needs; the output matches the \
         unpruned run's as long as no vertex arrives below that window" ] }

(* ---- throughput scaling ---- *)

let throughput ?(seed = 42) () =
  let tx_bytes = 64 in
  let run ~n =
    let f = (n - 1) / 3 in
    let txs_per_block = n * 4 in
    let block_bytes = tx_bytes * txs_per_block in
    let until = 40.0 in
    let bits, ordered, h =
      run_dagrider ~backend:Runner.Avid ~n ~seed ~block_bytes ~until ()
    in
    let txs = ordered * txs_per_block in
    [ Printf.sprintf "n=%d f=%d" n f;
      fmt_int txs_per_block;
      fmt_int txs;
      Printf.sprintf "%.0f" (float_of_int txs /. Sim.Engine.now (Runner.engine h));
      Printf.sprintf "%.0f" (float_of_int bits /. float_of_int (max 1 txs)) ]
  in
  { title =
      "Throughput scaling (DAG-Rider+AVID, 4n txs per block): ordered txs per time unit";
    header = [ "system"; "txs/block"; "txs ordered"; "txs per time unit"; "bits per tx" ];
    rows = List.map (fun n -> run ~n) [ 4; 7; 10; 13 ];
    snapshots = [];
    notes =
      [ "every process proposes in every round, so throughput grows with n \
         while per-transaction cost stays amortized — the property the \
         paper's descendants (Narwhal/Bullshark) industrialized" ] }

(* ---- sustained load over time (monitor-instrumented) ---- *)

let sustained_load ?(seed = 42) () =
  let horizon = 120.0 in
  let step = 20.0 in
  let build gc_depth =
    let mon = Monitor.create ~interval:1.0 ~window:20.0 () in
    Monitor.add_slo mon
      (Monitor.Min_rate
         { series = "tx.ordered"; min_per_unit = 1.0; after = 30.0 });
    Monitor.add_slo mon (Monitor.Max_stall { series = "commits"; max_gap = 30.0 });
    let opts =
      { (Runner.default_options ~n:10) with
        seed;
        gc_depth;
        workload = Some { Runner.default_workload with wl_rate = 10.0 };
        monitor = Some mon }
    in
    (Runner.build opts, mon)
  in
  let nogc, mon_nogc = build None in
  let gc, mon_gc = build (Some 8) in
  let rows = ref [] in
  let t = ref 0.0 in
  while !t < horizon -. 0.5 do
    t := !t +. step;
    Runner.run nogc ~until:!t;
    Runner.run gc ~until:!t;
    rows :=
      [ Printf.sprintf "%.0f" !t;
        Printf.sprintf "%.1f" (Monitor.current mon_nogc "tx.ordered/rate");
        Printf.sprintf "%.2f" (Monitor.current mon_nogc "commits/rate");
        Printf.sprintf "%.2f" (Monitor.current mon_nogc "latency.p99");
        fmt_int (int_of_float (Monitor.current mon_nogc "dag.vertices"));
        fmt_int (int_of_float (Monitor.current mon_gc "dag.vertices")) ]
      :: !rows
  done;
  let final name = int_of_float (Monitor.current mon_nogc name) in
  { title =
      "Sustained load over time (n=10, 10 tx/unit/process): windowed rates, \
       tail latency, and DAG growth";
    header =
      [ "t"; "tx/s"; "commits/s"; "p99 latency"; "dag vertices (gc off)";
        "dag vertices (gc 8)" ];
    rows = List.rev !rows;
    snapshots = [ ("sustained-load n=10 gc off", Runner.metrics_snapshot nogc) ];
    notes =
      [ Printf.sprintf "health (gc off): %s; health (gc 8): %s"
          (Monitor.verdict mon_nogc) (Monitor.verdict mon_gc);
        Printf.sprintf
          "flight recorder took %d samples per fleet at interval %gu"
          (Monitor.total_samples mon_nogc)
          (Monitor.interval mon_nogc);
        Printf.sprintf
          "without §8 garbage collection the observer's DAG holds %d vertices \
           at t=%.0f and keeps growing linearly (window slope %+.1f \
           vertices/unit) — the unbounded-memory trend motivating ROADMAP \
           item 3; gc_depth 8 caps it at %d"
          (final "dag.vertices") horizon
          (Monitor.slope mon_nogc "dag.vertices")
          (int_of_float (Monitor.current mon_gc "dag.vertices")) ] }

(* ---- related work (paper section 7): Aleph vs DAG-Rider ---- *)

let related_work ?(seed = 42) () =
  let n = 4 and f = 1 in
  let horizon = 120.0 in
  let victim = 3 in
  let censor rng inner = Net.Sched.delay_process ~inner:(inner rng) ~victim ~factor:25.0 in
  let run_aleph () =
    let rng = Stdx.Rng.create seed in
    let engine = Sim.Engine.create () in
    let counters = Metrics.Counters.create () in
    let sched =
      censor (Stdx.Rng.split rng) (fun rng -> Net.Sched.uniform_random ~rng)
    in
    let coin = Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.split rng) ~n ~f in
    let aleph =
      Baselines.Aleph.create ~engine ~counters ~sched ~coin ~n ~f
        ~block:(fun ~round ~me ->
          let tag = Printf.sprintf "a%d.%d." round me in
          tag ^ String.make (max 0 (32 - String.length tag)) 'x')
    in
    Baselines.Aleph.run aleph ~until:horizon;
    let log = Baselines.Aleph.delivered_log aleph 0 in
    let victim_count =
      List.length (List.filter (fun v -> v.Dagrider.Vertex.source = victim) log)
    in
    ( List.length log,
      victim_count,
      Metrics.Counters.total_bits counters,
      Baselines.Aleph.abba_instances_run aleph )
  in
  let run_dagrider () =
    let opts =
      { (Runner.default_options ~n) with
        seed;
        schedule =
          Runner.Custom
            (fun rng ->
              Net.Sched.delay_process
                ~inner:(Net.Sched.uniform_random ~rng)
                ~victim ~factor:25.0) }
    in
    let h = Runner.build opts in
    Runner.run h ~until:horizon;
    let log = Dagrider.Node.delivered_log (Runner.node h 0) in
    let victim_count =
      List.length (List.filter (fun v -> v.Dagrider.Vertex.source = victim) log)
    in
    (List.length log, victim_count, Metrics.Counters.total_bits (Runner.counters h), 0)
  in
  let a_total, a_victim, a_bits, a_instances = run_aleph () in
  let d_total, d_victim, d_bits, _ = run_dagrider () in
  let row name (total, victim_n, bits, instances) =
    [ name;
      fmt_int total;
      fmt_int victim_n;
      Printf.sprintf "%.0f" (float_of_int bits /. float_of_int (max 1 total));
      (if instances > 0 then fmt_int instances else "0 (coin only)") ]
  in
  { title =
      "Related work (section 7): Aleph-style BAB vs DAG-Rider under a 25x-censored process";
    header =
      [ "protocol"; "vertices ordered"; "from victim"; "bits per vertex";
        "binary-agreement endpoints" ];
    rows =
      [ row "Aleph (per-vertex ABBA)" (a_total, a_victim, a_bits, a_instances);
        row "DAG-Rider" (d_total, d_victim, d_bits, 0) ];
    snapshots = [];
    notes =
      [ "the paper's section-7 claims, measured: Aleph runs n binary \
         agreements per round and has no weak edges, so the censored \
         process's vertices are decided out and never ordered; DAG-Rider \
         orders them (Validity) and uses one coin flip per wave instead \
         of n agreement instances per round" ] }

(* ---- commit rules on one substrate: Bullshark vs DAG-Rider ---- *)

let rules_latency ?(seed = 42) () =
  let snapshots = ref [] in
  let run ~rule ~n =
    (* the same probe cadence as the latency experiment; the schedule and
       every injection time are identical across rules, so the latency
       delta is attributable to the commit rule alone *)
    let h, stats, cells =
      probe_latency
        { (Runner.default_options ~n) with
          seed;
          rule;
          schedule = Runner.Synchronous }
        ~per_node:12
    in
    let name = Printf.sprintf "%s, n=%d" rule.Dagrider.Ordering.rule_name n in
    snapshots := (name, Runner.metrics_snapshot h) :: !snapshots;
    let node = Runner.node h 0 in
    ( Stdx.Stats.mean stats,
      name
      :: fmt_int (Dagrider.Node.waves_completed node)
      :: fmt_int (Dagrider.Ordering.delivered_count (Dagrider.Node.ordering node))
      :: cells )
  in
  let d4_mean, d4 = run ~rule:Dagrider.Ordering.dag_rider ~n:4 in
  let b4_mean, b4 = run ~rule:Dagrider.Ordering.bullshark ~n:4 in
  let d10_mean, d10 = run ~rule:Dagrider.Ordering.dag_rider ~n:10 in
  let b10_mean, b10 = run ~rule:Dagrider.Ordering.bullshark ~n:10 in
  { title =
      "Commit rules on one DAG substrate: proposal-to-delivery latency, synchronous schedule";
    header =
      [ "rule"; "waves"; "delivered"; "undelivered"; "mean"; "p50"; "p99" ];
    rows = [ d4; b4; d10; b10 ];
    snapshots = List.rev !snapshots;
    notes =
      [ Printf.sprintf
          "identical seeded schedules per n (the rule changes no network \
           draw); Bullshark mean latency vs DAG-Rider: n=4 %.2f vs %.2f, \
           n=10 %.2f vs %.2f"
          b4_mean d4_mean b10_mean d10_mean;
        "Bullshark's 2-round waves with a round-robin leader commit as \
         soon as f+1 last-round vertices carry a strong edge to it; \
         DAG-Rider pays 4 rounds per wave plus retrospective coin \
         resolution before any leader can be chosen" ] }

type experiment = {
  name : string;
  description : string;
  run : ?seed:int -> unit -> table;
}

let all =
  [ { name = "table1-comm";
      description = "Table 1 communication complexity column (E1)";
      run = fun ?seed () -> table1_communication ?seed () };
    { name = "table1-time";
      description = "Table 1 expected time complexity column (E2)";
      run = fun ?seed () -> table1_time ?seed () };
    { name = "table1-fairness";
      description = "Table 1 eventual fairness + post-quantum columns (E3)";
      run = table1_fairness };
    { name = "table1";
      description = "Table 1 combined reproduction";
      run = table1_combined };
    { name = "claim6-waves";
      description = "Claim 6: expected waves per commit (E6)";
      run = fun ?seed () -> claim6_waves ?seed () };
    { name = "chain-quality";
      description = "Chain quality bound of section 3 (E7)";
      run = chain_quality };
    { name = "batching";
      description = "Section 6.2 batching amortization (E8)";
      run = batching };
    { name = "ablation-waves";
      description = "Ablation: wave length 2..6";
      run = ablation_wave_length };
    { name = "ablation-rbc";
      description = "Ablation: reliable-broadcast backends";
      run = ablation_rbc };
    { name = "ablation-weak-edges";
      description = "Ablation: weak edges vs censorship";
      run = ablation_weak_edges };
    { name = "ablation-coin";
      description = "Ablation: coin transport (footnote 1 in-DAG shares)";
      run = ablation_coin };
    { name = "latency";
      description = "Proposal-to-delivery latency distribution";
      run = latency };
    { name = "ablation-gc";
      description = "Ablation: garbage collection window";
      run = ablation_gc };
    { name = "throughput";
      description = "Throughput scaling with n (DAG-Rider+AVID)";
      run = throughput };
    { name = "sustained-load";
      description = "Sustained load over time: monitored n=10 fleet, DAG growth";
      run = sustained_load };
    { name = "related-work";
      description = "Section 7: Aleph-style baseline vs DAG-Rider";
      run = related_work };
    { name = "rules-latency";
      description = "Commit rules on one substrate: Bullshark vs DAG-Rider latency";
      run = rules_latency } ]
