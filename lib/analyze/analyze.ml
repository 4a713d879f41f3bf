type config = {
  rule : Dagrider.Ordering.rule;
  n : int option;
  f : int option;
  byzantine : int list;
  observer : int option;
}

let default_config =
  { rule = Dagrider.Ordering.dag_rider;
    n = None;
    f = None;
    byzantine = [];
    observer = None }

let fleet_config ~rule ~n ~f ~byzantine =
  { default_config with rule; n = Some n; f = Some f; byzantine }

type wave_outcome =
  | Committed_direct
  | Committed_chained of int
  | Skipped of string
  | Unresolved

type wave_record = {
  w_wave : int;
  w_leader : int option;
  w_elected_at : float option;
  w_resolution : float option;
  w_outcome : wave_outcome;
  w_committed_at : float option;
  w_delivered : int;
  w_running_mean : float;
}

type anomaly =
  | Round_stall of {
      node : int;
      round : int;
      at : float;
      gap : float;
      median : float;
    }
  | Commit_stall of {
      node : int;
      after_wave : int;
      at : float;
      gap : float;
      median : float;
    }
  | Quorum_starvation of {
      node : int;
      round : int;
      stuck_for : float;
      have : int;
      need : int;
    }
  | Skip_streak of { node : int; first_wave : int; length : int }
  | Slow_wave of { wave : int; took : float; median : float }
  | Lossy_link of {
      src : int;
      dst : int;
      retransmits : int;
      gave_up : int;
      median : float;
    }
  | Attacker_active of { node : int; strategy : string; actions : int }
  | Sync_rejections of { node : int; count : int; reasons : string list }

let describe_anomaly = function
  | Round_stall { node; round; at; gap; median } ->
    Printf.sprintf
      "round stall: p%d entered round %d at t=%.2f after a %.2f-unit gap \
       (median %.2f)"
      node round at gap median
  | Commit_stall { node; after_wave; at; gap; median } ->
    Printf.sprintf
      "commit stall: p%d went %.2f units without a direct commit after \
       wave %d (until t=%.2f; median gap %.2f)"
      node gap after_wave at median
  | Quorum_starvation { node; round; stuck_for; have; need } ->
    Printf.sprintf
      "quorum starvation: p%d stuck in round %d for the last %.2f units \
       with %d/%d round vertices"
      node round stuck_for have need
  | Skip_streak { node; first_wave; length } ->
    Printf.sprintf "skip streak: p%d skipped %d consecutive waves from wave %d"
      node length first_wave
  | Slow_wave { wave; took; median } ->
    Printf.sprintf
      "slow wave: wave %d took %.2f units from first coin share to \
       election (median %.2f)"
      wave took median
  | Lossy_link { src; dst; retransmits; gave_up; median } ->
    Printf.sprintf
      "lossy link starving p%d: %d retransmits on p%d->p%d (median link \
       %.1f)%s"
      dst retransmits src dst median
      (if gave_up > 0 then
         Printf.sprintf ", %d frames abandoned after retry exhaustion" gave_up
       else "")
  | Attacker_active { node; strategy; actions } ->
    Printf.sprintf "attacker active: p%d ran %d %s action(s)" node actions
      strategy
  | Sync_rejections { node; count; reasons } ->
    Printf.sprintf
      "sync defense: p%d rejected %d catch-up vertex(es) (%s)" node count
      (String.concat ", " reasons)

type report = {
  r_processes : int;
  r_f : int;
  r_wave_length : int;
  r_rule : string;
  r_waves_bound : float;
  r_observer : int;
  r_events : int;
  r_truncated : bool;
  r_span : float * float;
  r_sends : int;
  r_send_bits : int;
  r_waves : wave_record list;
  r_waves_resolved : int;
  r_commits_direct : int;
  r_commits_chained : int;
  r_waves_skipped : int;
  r_waves_per_commit : float;
  r_claim6_ok : bool;
  r_rounds : (int * int) list;
  r_round_skew : Stdx.Stats.summary;
  r_rbc_phases : (string * Stdx.Stats.summary) list;
  r_ordered : int;
  r_chain_quality : Metrics.Chain_quality.report;
  r_chain_quality_bound : float;
  r_drops : (string * int) list;
  r_retransmits : int;
  r_corrupt_rejects : int;
  r_link_retransmits : ((int * int) * int) list;
  r_anomalies : anomaly list;
}

(* ---- accumulation ---- *)

type t = {
  mutable count : int;
  mutable first_seq : int; (* -1 until the first event *)
  mutable t_min : float;
  mutable t_max : float;
  mutable have_time : bool;
  mutable max_node : int;
  mutable sends : int;
  mutable send_bits : int;
  rbc_last : (int * int * int, string * float) Hashtbl.t;
  rbc_stats : (string, Stdx.Stats.t) Hashtbl.t; (* "echo->ready" -> durations *)
  inserted : (int * int * int, unit) Hashtbl.t; (* (node, round, source) *)
  advances : (int, (int * float) list ref) Hashtbl.t; (* node -> rev *)
  coin_first : (int, float) Hashtbl.t; (* wave -> first share out *)
  elections : (int, (int * int * float) list ref) Hashtbl.t;
      (* node -> rev (wave, leader, at) *)
  ledger : Forensics.t; (* certificates and a_deliver logs *)
  critpath : Critpath.t; (* causal paths, streamed at [vantage] *)
  vantage : int option;
  drop_reasons : (string, int ref) Hashtbl.t;
  retrans_links : (int * int, int ref) Hashtbl.t; (* (src, dst) -> count *)
  giveup_links : (int * int, int ref) Hashtbl.t;
  mutable retransmit_events : int;
  mutable corrupt_rejects : int;
  attack_acts : (int * string, int ref) Hashtbl.t;
      (* (attacker, strategy) -> actions (attacker-attributed events) *)
  sync_rejects : (int, string list ref) Hashtbl.t;
      (* node -> rejection reasons, reverse-chronological *)
}

let create ?observer () =
  { count = 0;
    first_seq = -1;
    t_min = 0.0;
    t_max = 0.0;
    have_time = false;
    max_node = -1;
    sends = 0;
    send_bits = 0;
    rbc_last = Hashtbl.create 4096;
    rbc_stats = Hashtbl.create 16;
    inserted = Hashtbl.create 4096;
    advances = Hashtbl.create 16;
    coin_first = Hashtbl.create 256;
    elections = Hashtbl.create 16;
    ledger = Forensics.create ();
    critpath = Critpath.create ?observer ();
    vantage = observer;
    drop_reasons = Hashtbl.create 8;
    retrans_links = Hashtbl.create 64;
    giveup_links = Hashtbl.create 16;
    retransmit_events = 0;
    corrupt_rejects = 0;
    attack_acts = Hashtbl.create 8;
    sync_rejects = Hashtbl.create 8 }

let incr_cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl key (ref [ v ])

let feed t (e : Trace.event) =
  let sp = Prof.enter "analyze.feed" in
  (try
  if t.first_seq < 0 then t.first_seq <- e.Trace.seq;
  t.count <- t.count + 1;
  let time = e.Trace.time in
  if not t.have_time then begin
    t.have_time <- true;
    t.t_min <- time;
    t.t_max <- time
  end
  else begin
    if time < t.t_min then t.t_min <- time;
    if time > t.t_max then t.t_max <- time
  end;
  let bump i = if i > t.max_node then t.max_node <- i in
  Forensics.feed t.ledger e;
  Critpath.feed t.critpath e;
  (match e.Trace.kind with
  | Trace.Send { src; dst; bits; _ } ->
    bump src;
    bump dst;
    t.sends <- t.sends + 1;
    t.send_bits <- t.send_bits + bits
  | Trace.Recv { src; dst; _ } ->
    bump src;
    bump dst
  | Trace.Rbc_phase { node; origin; round; phase } ->
    bump node;
    bump origin;
    let key = (node, origin, round) in
    (match Hashtbl.find_opt t.rbc_last key with
    | Some (prev, at) ->
      let label = prev ^ "->" ^ phase in
      let st =
        match Hashtbl.find_opt t.rbc_stats label with
        | Some st -> st
        | None ->
          let st = Stdx.Stats.create () in
          Hashtbl.add t.rbc_stats label st;
          st
      in
      Stdx.Stats.add st (time -. at)
    | None -> ());
    Hashtbl.replace t.rbc_last key (phase, time)
  | Trace.Vertex_created { node; _ } -> bump node
  | Trace.Vertex_added { node; round; source } ->
    bump node;
    bump source;
    Hashtbl.replace t.inserted (node, round, source) ()
  | Trace.Round_advanced { node; round } ->
    bump node;
    push t.advances node (round, time)
  | Trace.Coin_flip { node; wave } ->
    bump node;
    if not (Hashtbl.mem t.coin_first wave) then
      Hashtbl.add t.coin_first wave time
  | Trace.Leader_elected { node; wave; leader } ->
    bump node;
    bump leader;
    push t.elections node (wave, leader, time)
  (* the ledger folds the certificates; they only widen the fleet *)
  | Trace.Commit_cert { node; leader_source; _ }
  | Trace.Skip_cert { node; leader_source; _ } ->
    bump node;
    bump leader_source
  | Trace.A_deliver { node; source; _ } ->
    bump node;
    bump source
  | Trace.Drop { src; dst; reason; _ } ->
    bump src;
    bump dst;
    incr_cell t.drop_reasons reason;
    if reason = "give-up" then incr_cell t.giveup_links (src, dst)
  | Trace.Retransmit { src; dst; _ } ->
    bump src;
    bump dst;
    t.retransmit_events <- t.retransmit_events + 1;
    incr_cell t.retrans_links (src, dst)
  | Trace.Corrupt_reject { src; dst; _ } ->
    bump src;
    bump dst;
    t.corrupt_rejects <- t.corrupt_rejects + 1
  | Trace.Sync_retry { node; _ } | Trace.Sync_gave_up { node; _ }
  | Trace.Sync_unavailable { node } ->
    bump node
  | Trace.Sync_reject { node; reason; _ } ->
    bump node;
    push t.sync_rejects node reason
  | Trace.Attack_event { node; strategy; _ } ->
    bump node;
    incr_cell t.attack_acts (node, strategy)
  | Trace.Engine_sample _ -> ()
  | Trace.Health _ | Trace.Tx_submitted _ | Trace.Block_assembled _ ->
    (* monitor SLO transitions and workload lifecycle: the monitor and
       the critical-path tracer own their aggregation; the analyzer
       just passes them through *)
    ())
   with exn -> Prof.leave_reraise sp exn);
  Prof.leave sp

let of_events events =
  let t = create () in
  List.iter (feed t) events;
  t

let ledger t = t.ledger

let critpath t = t.critpath

(* the observer rule: the longest a_deliver log, ties to the lowest id *)
let longest_log t =
  let best = ref 0 and best_len = ref (-1) in
  for i = 0 to t.max_node do
    let len = List.length (Forensics.ordered t.ledger ~node:i) in
    if len > !best_len then begin
      best := i;
      best_len := len
    end
  done;
  !best

let critpath_report t =
  let observer =
    match t.vantage with Some o -> o | None -> longest_log t
  in
  Critpath.finalize ~observer t.critpath

(* ---- finalize ---- *)

let median xs =
  let st = Stdx.Stats.create () in
  List.iter (Stdx.Stats.add st) xs;
  Stdx.Stats.percentile st 50.0

let chronological tbl key =
  match Hashtbl.find_opt tbl key with Some r -> List.rev !r | None -> []

(* gaps need a meaningful median before a multiple of it means anything,
   and tiny absolute gaps are scheduling noise whatever the ratio *)
let min_gaps_for_median = 4
let min_flagged_gap = 0.5

(* flag a round/commit gap above this multiple of that process's median
   gap, a wave whose coin-to-election time is above this multiple of the
   median resolution, and a run of this many leader skips without a
   commit *)
let stall_factor = 8.0
let slow_wave_factor = 4.0
let skip_streak = 3

(* flag a link whose retransmit count is above this multiple of the
   median per-link count and above an absolute floor, so mildly unlucky
   links in short runs stay unflagged *)
let lossy_link_factor = 4.0
let lossy_link_min = 20

let finalize ?(config = default_config) t =
  let processes = max 1 (t.max_node + 1) in
  let f =
    match config.f with Some f -> f | None -> (processes - 1) / 3
  in
  let rule = config.rule in
  let wave_length = max 1 rule.Dagrider.Ordering.rule_wave_length in
  (* [Some n]: leaders follow the round-robin schedule over n processes *)
  let round_robin_n =
    match rule.Dagrider.Ordering.rule_schedule with
    | Dagrider.Ordering.Coin -> None
    | Dagrider.Ordering.Round_robin ->
      Some (Option.value config.n ~default:processes)
  in
  let span = if t.have_time then (t.t_min, t.t_max) else (0.0, 0.0) in
  let horizon = snd span in
  let observer =
    match config.observer with Some o -> o | None -> longest_log t
  in
  (* ---- wave records: the observer's elections, and its decisions
     from the certificate ledger (first skip, last commit per wave) ---- *)
  let elected : (int, int * float) Hashtbl.t = Hashtbl.create 256 in
  (* under a round-robin rule the election events in the stream are
     coin-instance resolutions on the coin cadence — their numbering is
     unrelated to ordering waves, so they must not be folded into the
     wave records *)
  if round_robin_n = None then
    List.iter
      (fun (wave, leader, at) ->
        if not (Hashtbl.mem elected wave) then Hashtbl.add elected wave (leader, at))
      (chronological t.elections observer);
  let wave_ids =
    let seen = Hashtbl.create 256 in
    let note w = if not (Hashtbl.mem seen w) then Hashtbl.add seen w () in
    Hashtbl.iter (fun w _ -> note w) elected;
    List.iter
      (fun st -> note st.Forensics.st_wave)
      (Forensics.stories t.ledger ~node:observer);
    (* coin instances number ordering waves only on coin-scheduled
       rules; under round-robin they run on a separate cadence *)
    if round_robin_n = None then
      Hashtbl.iter (fun w _ -> note w) t.coin_first;
    List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) seen [])
  in
  let processed = ref 0 and direct_commits = ref 0 in
  let chained_commits = ref 0 and skipped_final = ref 0 in
  let waves =
    List.map
      (fun w ->
        let leader_elect = Hashtbl.find_opt elected w in
        let story = Forensics.find_story t.ledger ~node:observer ~wave:w in
        let skip = Option.bind story (fun st -> st.Forensics.st_skip) in
        let commit = Option.bind story (fun st -> st.Forensics.st_commit) in
        if skip <> None || commit <> None then incr processed;
        let outcome, committed_at, delivered =
          match commit with
          | Some { Forensics.at; cert = c } ->
            if c.Trace.direct then begin
              incr direct_commits;
              (Committed_direct, Some at, c.Trace.delivered)
            end
            else begin
              incr chained_commits;
              ( Committed_chained c.Trace.anchor_wave,
                Some at,
                c.Trace.delivered )
            end
          | None -> (
            match skip with
            | Some { Forensics.cert = s; _ } ->
              incr skipped_final;
              let reason =
                match s.Trace.reason with
                | "leader-absent" -> "leader vertex absent"
                | "under-supported" -> "leader under-supported"
                | other -> other
              in
              (Skipped reason, None, 0)
            | None -> (Unresolved, None, 0))
        in
        let leader =
          match (leader_elect, skip, round_robin_n) with
          | Some (l, _), _, _ -> Some l
          | None, Some { Forensics.cert = s; _ }, _ -> Some s.Trace.leader_source
          | None, None, Some n ->
            (* round-robin leaders are implicit in the schedule *)
            Some ((w - 1) mod n)
          | None, None, None -> None
        in
        let elected_at = Option.map snd leader_elect in
        let resolution =
          match (Hashtbl.find_opt t.coin_first w, elected_at) with
          | Some c, Some e when e >= c -> Some (e -. c)
          | _ -> None
        in
        let running_mean =
          if !direct_commits = 0 then
            if !processed = 0 then 0.0 else infinity
          else float_of_int !processed /. float_of_int !direct_commits
        in
        { w_wave = w;
          w_leader = leader;
          w_elected_at = elected_at;
          w_resolution = resolution;
          w_outcome = outcome;
          w_committed_at = committed_at;
          w_delivered = delivered;
          w_running_mean = running_mean })
      wave_ids
  in
  let waves_per_commit =
    if !direct_commits = 0 then if !processed = 0 then 0.0 else infinity
    else float_of_int !processed /. float_of_int !direct_commits
  in
  let obs_adeliv = List.map snd (Forensics.ordered t.ledger ~node:observer) in
  let decisions = Forensics.decisions t.ledger ~node:observer in
  (* ---- per-process rounds and skew ---- *)
  let rounds =
    List.init processes (fun i ->
        let top =
          List.fold_left (fun acc (r, _) -> max acc r) 0 (chronological t.advances i)
        in
        (i, top))
  in
  let round_skew =
    let entries : (int, float * float) Hashtbl.t = Hashtbl.create 1024 in
    for i = 0 to processes - 1 do
      List.iter
        (fun (r, at) ->
          match Hashtbl.find_opt entries r with
          | None -> Hashtbl.add entries r (at, at)
          | Some (lo, hi) -> Hashtbl.replace entries r (min lo at, max hi at))
        (chronological t.advances i)
    done;
    let st = Stdx.Stats.create () in
    Hashtbl.fold (fun r (lo, hi) acc -> (r, hi -. lo) :: acc) entries []
    |> List.sort compare
    |> List.iter (fun (_, skew) -> Stdx.Stats.add st skew);
    Stdx.Stats.to_summary st
  in
  let rbc_phases =
    Hashtbl.fold
      (fun label st acc -> (label, Stdx.Stats.to_summary st) :: acc)
      t.rbc_stats []
    |> List.sort compare
  in
  (* ---- chain quality ---- *)
  let correct i = not (List.mem i config.byzantine) in
  let chain_quality =
    Metrics.Chain_quality.audit ~f ~correct ~sources:obs_adeliv
  in
  let bound = float_of_int (f + 1) /. float_of_int ((2 * f) + 1) in
  (* ---- anomalies ---- *)
  let anomalies = ref [] in
  let add a = anomalies := a :: !anomalies in
  (* round stalls + horizon starvation, per process *)
  for node = 0 to processes - 1 do
    let adv = chronological t.advances node in
    let gaps =
      let rec go acc = function
        | (_, a) :: ((r2, b) :: _ as rest) -> go ((r2, b, b -. a) :: acc) rest
        | _ -> List.rev acc
      in
      go [] adv
    in
    if List.length gaps >= min_gaps_for_median then begin
      let med = median (List.map (fun (_, _, g) -> g) gaps) in
      let threshold = max (stall_factor *. med) min_flagged_gap in
      List.iter
        (fun (round, at, gap) ->
          if gap > threshold then add (Round_stall { node; round; at; gap; median = med }))
        gaps;
      match List.rev adv with
      | (last_round, last_at) :: _ ->
        let end_gap = horizon -. last_at in
        if end_gap > threshold then begin
          let have =
            Hashtbl.fold
              (fun (n, r, _) _ acc ->
                if n = node && r = last_round then acc + 1 else acc)
              t.inserted 0
          in
          add
            (Quorum_starvation
               { node;
                 round = last_round;
                 stuck_for = end_gap;
                 have;
                 need = (2 * f) + 1 })
        end
      | [] -> ()
    end
  done;
  (* commit stalls at the observer (direct commits anchor the clock) *)
  let commit_times =
    List.filter_map
      (function
        | Forensics.Committed { at; cert } when cert.Trace.direct ->
          Some (cert.Trace.wave, at)
        | _ -> None)
      decisions
  in
  (match commit_times with
  | [] -> ()
  | _ :: _ ->
    let gaps =
      let rec go acc = function
        | (w1, a) :: ((_, b) :: _ as rest) -> go ((w1, b, b -. a) :: acc) rest
        | _ -> List.rev acc
      in
      go [] commit_times
    in
    if List.length gaps >= min_gaps_for_median then begin
      let med = median (List.map (fun (_, _, g) -> g) gaps) in
      let threshold = max (stall_factor *. med) min_flagged_gap in
      List.iter
        (fun (after_wave, at, gap) ->
          if gap > threshold then
            add (Commit_stall { node = observer; after_wave; at; gap; median = med }))
        gaps;
      let last_wave, last_at = List.nth commit_times (List.length commit_times - 1) in
      let end_gap = horizon -. last_at in
      if end_gap > threshold then
        add
          (Commit_stall
             { node = observer;
               after_wave = last_wave;
               at = horizon;
               gap = end_gap;
               median = med })
    end);
  (* skip streaks at the observer *)
  let streak = ref 0 and streak_start = ref 0 in
  let flush_streak () =
    if !streak >= skip_streak then
      add (Skip_streak { node = observer; first_wave = !streak_start; length = !streak });
    streak := 0
  in
  List.iter
    (function
      | Forensics.Skipped { cert; _ } ->
        if !streak = 0 then streak_start := cert.Trace.wave;
        incr streak
      | Forensics.Committed _ -> flush_streak ())
    decisions;
  flush_streak ();
  (* slow waves: coin release to observer election *)
  let resolutions =
    List.filter_map (fun wr -> Option.map (fun d -> (wr.w_wave, d)) wr.w_resolution) waves
  in
  if List.length resolutions >= min_gaps_for_median then begin
    let med = median (List.map snd resolutions) in
    let threshold = max (slow_wave_factor *. med) min_flagged_gap in
    List.iter
      (fun (wave, took) ->
        if took > threshold then add (Slow_wave { wave; took; median = med }))
      resolutions
  end;
  (* ---- loss diagnostics ---- *)
  let drops =
    Hashtbl.fold (fun reason r acc -> (reason, !r) :: acc) t.drop_reasons []
    |> List.sort compare
  in
  let link_retransmits =
    Hashtbl.fold (fun link r acc -> (link, !r) :: acc) t.retrans_links []
    |> List.sort (fun (l1, c1) (l2, c2) ->
           match compare c2 c1 with 0 -> compare l1 l2 | o -> o)
  in
  (* a lossy link starving its destination: uniform loss keeps every
     link near the median, so only links far above it (or links that
     exhausted a retry budget) are flagged. Links appearing only in the
     give-up table still count — their retransmissions may have fallen
     outside the ring buffer's retained window *)
  let suspect_links =
    Hashtbl.fold
      (fun link r acc ->
        if Hashtbl.mem t.retrans_links link then acc else (link, !r) :: acc)
      t.giveup_links []
    |> List.map (fun (link, _) -> (link, 0))
    |> List.append link_retransmits
  in
  (if suspect_links <> [] then
     let med =
       median (List.map (fun (_, c) -> float_of_int c) link_retransmits)
     in
     let threshold =
       max (lossy_link_factor *. med) (float_of_int lossy_link_min)
     in
     List.iter
       (fun ((src, dst), retransmits) ->
         let gave_up =
           match Hashtbl.find_opt t.giveup_links (src, dst) with
           | Some r -> !r
           | None -> 0
         in
         if gave_up > 0 || float_of_int retransmits > threshold then
           add (Lossy_link { src; dst; retransmits; gave_up; median = med }))
       suspect_links);
  (* attacker-attributed activity and sync-defense rejections: always
     flagged when present, so an attacked trace names its adversary *)
  Hashtbl.fold (fun key r acc -> (key, !r) :: acc) t.attack_acts []
  |> List.sort compare
  |> List.iter (fun ((node, strategy), actions) ->
         add (Attacker_active { node; strategy; actions }));
  Hashtbl.fold (fun node r acc -> (node, !r) :: acc) t.sync_rejects []
  |> List.sort compare
  |> List.iter (fun (node, reasons) ->
         let distinct = List.sort_uniq compare reasons in
         add
           (Sync_rejections
              { node; count = List.length reasons; reasons = distinct }));
  { r_processes = processes;
    r_f = f;
    r_wave_length = wave_length;
    r_rule = rule.Dagrider.Ordering.rule_name;
    r_waves_bound = rule.Dagrider.Ordering.rule_bound;
    r_observer = observer;
    r_events = t.count;
    r_truncated = t.first_seq > 0;
    r_span = span;
    r_sends = t.sends;
    r_send_bits = t.send_bits;
    r_waves = waves;
    r_waves_resolved =
      (* coin rules: waves whose leader the observer elected; round
         robin: every leader is predefined, so count processed waves *)
      (match round_robin_n with
      | None -> Hashtbl.length elected
      | Some _ -> !processed);
    r_commits_direct = !direct_commits;
    r_commits_chained = !chained_commits;
    r_waves_skipped = !skipped_final;
    r_waves_per_commit = waves_per_commit;
    r_claim6_ok = waves_per_commit <= rule.Dagrider.Ordering.rule_bound;
    r_rounds = rounds;
    r_round_skew = round_skew;
    r_rbc_phases = rbc_phases;
    r_ordered = List.length obs_adeliv;
    r_chain_quality = chain_quality;
    r_chain_quality_bound = bound;
    r_drops = drops;
    r_retransmits = t.retransmit_events;
    r_corrupt_rejects = t.corrupt_rejects;
    r_link_retransmits = link_retransmits;
    r_anomalies = List.rev !anomalies }

let with_certified_rule config t =
  match
    Option.bind (Forensics.rule_name t.ledger) Dagrider.Ordering.rule_of_name
  with
  | Some rule -> { config with rule }
  | None -> config

(* ---- output ---- *)

let outcome_label = function
  | Committed_direct -> "committed"
  | Committed_chained _ -> "committed-chained"
  | Skipped _ -> "skipped"
  | Unresolved -> "unresolved"

let wave_to_json w =
  let opt_f = function None -> Stdx.Json.Null | Some v -> Stdx.Json.Float v in
  let extra =
    match w.w_outcome with
    | Committed_chained by -> [ ("resolved_by", Stdx.Json.Int by) ]
    | Skipped reason -> [ ("skip_reason", Stdx.Json.String reason) ]
    | Committed_direct | Unresolved -> []
  in
  Stdx.Json.Obj
    ([ ("wave", Stdx.Json.Int w.w_wave);
       ( "leader",
         match w.w_leader with None -> Stdx.Json.Null | Some l -> Stdx.Json.Int l );
       ("outcome", Stdx.Json.String (outcome_label w.w_outcome));
       ("elected_at", opt_f w.w_elected_at);
       ("resolution", opt_f w.w_resolution);
       ("committed_at", opt_f w.w_committed_at);
       ("delivered", Stdx.Json.Int w.w_delivered);
       ("running_waves_per_commit", Stdx.Json.Float w.w_running_mean) ]
    @ extra)

let anomaly_to_json a =
  let obj kind fields =
    Stdx.Json.Obj
      (("kind", Stdx.Json.String kind)
      :: fields
      @ [ ("text", Stdx.Json.String (describe_anomaly a)) ])
  in
  let i k v = (k, Stdx.Json.Int v) in
  let fl k v = (k, Stdx.Json.Float v) in
  match a with
  | Round_stall { node; round; at; gap; median } ->
    obj "round-stall" [ i "node" node; i "round" round; fl "at" at; fl "gap" gap; fl "median" median ]
  | Commit_stall { node; after_wave; at; gap; median } ->
    obj "commit-stall"
      [ i "node" node; i "after_wave" after_wave; fl "at" at; fl "gap" gap; fl "median" median ]
  | Quorum_starvation { node; round; stuck_for; have; need } ->
    obj "quorum-starvation"
      [ i "node" node; i "round" round; fl "stuck_for" stuck_for; i "have" have; i "need" need ]
  | Skip_streak { node; first_wave; length } ->
    obj "skip-streak" [ i "node" node; i "first_wave" first_wave; i "length" length ]
  | Slow_wave { wave; took; median } ->
    obj "slow-wave" [ i "wave" wave; fl "took" took; fl "median" median ]
  | Lossy_link { src; dst; retransmits; gave_up; median } ->
    obj "lossy-link"
      [ i "src" src;
        i "dst" dst;
        i "retransmits" retransmits;
        i "gave_up" gave_up;
        fl "median" median ]
  | Attacker_active { node; strategy; actions } ->
    obj "attacker-active"
      [ i "node" node; ("strategy", Stdx.Json.String strategy);
        i "actions" actions ]
  | Sync_rejections { node; count; reasons } ->
    obj "sync-rejections"
      [ i "node" node; i "count" count;
        ( "reasons",
          Stdx.Json.List (List.map (fun r -> Stdx.Json.String r) reasons) ) ]

let report_to_json r =
  let lo, hi = r.r_span in
  Stdx.Json.Obj
    [ ("processes", Stdx.Json.Int r.r_processes);
      ("f", Stdx.Json.Int r.r_f);
      ("wave_length", Stdx.Json.Int r.r_wave_length);
      ("rule", Stdx.Json.String r.r_rule);
      ("rule_name", Stdx.Json.String r.r_rule);
      ("waves_bound", Stdx.Json.Float r.r_waves_bound);
      ("observer", Stdx.Json.Int r.r_observer);
      ("events", Stdx.Json.Int r.r_events);
      ("truncated", Stdx.Json.Bool r.r_truncated);
      ("span", Stdx.Json.List [ Stdx.Json.Float lo; Stdx.Json.Float hi ]);
      ("sends", Stdx.Json.Int r.r_sends);
      ("send_bits", Stdx.Json.Int r.r_send_bits);
      ("waves", Stdx.Json.List (List.map wave_to_json r.r_waves));
      ("waves_resolved", Stdx.Json.Int r.r_waves_resolved);
      ("commits_direct", Stdx.Json.Int r.r_commits_direct);
      ("commits_chained", Stdx.Json.Int r.r_commits_chained);
      ("waves_skipped", Stdx.Json.Int r.r_waves_skipped);
      ("waves_per_commit", Stdx.Json.Float r.r_waves_per_commit);
      ("claim6_bound", Stdx.Json.Float r.r_waves_bound);
      ("claim6_ok", Stdx.Json.Bool r.r_claim6_ok);
      ( "rounds",
        Stdx.Json.Obj
          (List.map
             (fun (i, top) -> (Printf.sprintf "p%d" i, Stdx.Json.Int top))
             r.r_rounds) );
      ("round_skew", Stdx.Stats.summary_to_json r.r_round_skew);
      ( "rbc_phases",
        Stdx.Json.Obj
          (List.map
             (fun (k, s) -> (k, Stdx.Stats.summary_to_json s))
             r.r_rbc_phases) );
      ("ordered", Stdx.Json.Int r.r_ordered);
      ( "chain_quality",
        Stdx.Json.Obj
          [ ("total", Stdx.Json.Int r.r_chain_quality.Metrics.Chain_quality.total);
            ( "correct_entries",
              Stdx.Json.Int r.r_chain_quality.Metrics.Chain_quality.correct_entries );
            ( "worst_prefix_len",
              Stdx.Json.Int r.r_chain_quality.Metrics.Chain_quality.worst_prefix_len );
            ( "worst_prefix_ratio",
              Stdx.Json.Float r.r_chain_quality.Metrics.Chain_quality.worst_prefix_ratio );
            ("bound", Stdx.Json.Float r.r_chain_quality_bound);
            ("holds", Stdx.Json.Bool r.r_chain_quality.Metrics.Chain_quality.holds) ] );
      ( "drops",
        Stdx.Json.Obj
          (List.map (fun (reason, c) -> (reason, Stdx.Json.Int c)) r.r_drops) );
      ("retransmits", Stdx.Json.Int r.r_retransmits);
      ("corrupt_rejects", Stdx.Json.Int r.r_corrupt_rejects);
      ( "link_retransmits",
        Stdx.Json.List
          (List.map
             (fun ((src, dst), c) ->
               Stdx.Json.Obj
                 [ ("src", Stdx.Json.Int src);
                   ("dst", Stdx.Json.Int dst);
                   ("count", Stdx.Json.Int c) ])
             r.r_link_retransmits) );
      ("anomalies", Stdx.Json.List (List.map anomaly_to_json r.r_anomalies)) ]

let render_anomalies r =
  match r.r_anomalies with
  | [] -> "anomalies: none detected\n"
  | anomalies ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "anomalies: %d flagged\n" (List.length anomalies));
    List.iter
      (fun a -> Buffer.add_string buf ("  - " ^ describe_anomaly a ^ "\n"))
      anomalies;
    Buffer.contents buf

(* the wave table shows the newest waves only *)
let max_waves = 12

let render r =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let lo, hi = r.r_span in
  add "== protocol analysis ==\n";
  add
    "processes: %d (f=%d, rule %s, wave length %d); observer: p%d; \
     events: %d%s; span: %.2f..%.2f\n"
    r.r_processes r.r_f r.r_rule r.r_wave_length r.r_observer r.r_events
    (if r.r_truncated then " (TRUNCATED: stream lost its head)" else "")
    lo hi;
  add "sends: %d (%d bits); ordered at observer: %d vertices\n\n" r.r_sends
    r.r_send_bits r.r_ordered;
  add "waves: %d resolved; %d direct commits, %d chained, %d skipped\n"
    r.r_waves_resolved r.r_commits_direct r.r_commits_chained r.r_waves_skipped;
  add "waves per commit: %.3f (%s bound %.2f: %s)\n" r.r_waves_per_commit
    (if r.r_rule = "dagrider" then "Claim 6" else r.r_rule)
    r.r_waves_bound
    (if r.r_claim6_ok then "ok" else "ABOVE BOUND");
  let shown =
    let total = List.length r.r_waves in
    if total <= max_waves then r.r_waves
    else List.filteri (fun i _ -> i >= total - max_waves) r.r_waves
  in
  if shown <> [] then begin
    add "  wave | leader | outcome            | resolution | delivered | running w/c\n";
    List.iter
      (fun w ->
        let outcome =
          match w.w_outcome with
          | Committed_direct -> "committed"
          | Committed_chained by -> Printf.sprintf "chained (by w%d)" by
          | Skipped reason -> "skipped: " ^ reason
          | Unresolved -> "unresolved"
        in
        add "  %4d | %-6s | %-18s | %10s | %9d | %.3f\n" w.w_wave
          (match w.w_leader with Some l -> Printf.sprintf "p%d" l | None -> "?")
          outcome
          (match w.w_resolution with
          | Some d -> Printf.sprintf "%.3f" d
          | None -> "-")
          w.w_delivered w.w_running_mean)
      shown
  end;
  add "\nround progress: %s\n"
    (String.concat ", "
       (List.map (fun (i, top) -> Printf.sprintf "p%d=r%d" i top) r.r_rounds));
  add "round skew (per-round entry spread): %s\n"
    (Stdx.Stats.fmt_summary r.r_round_skew);
  if r.r_rbc_phases <> [] then begin
    add "\nreliable-broadcast phase durations:\n";
    List.iter
      (fun (label, s) -> add "  %-22s %s\n" label (Stdx.Stats.fmt_summary s))
      r.r_rbc_phases
  end;
  let cq = r.r_chain_quality in
  add
    "\nchain quality: %d/%d entries from correct processes; worst prefix \
     %.3f (len %d) vs bound %.3f: %s\n"
    cq.Metrics.Chain_quality.correct_entries cq.Metrics.Chain_quality.total
    cq.Metrics.Chain_quality.worst_prefix_ratio
    cq.Metrics.Chain_quality.worst_prefix_len r.r_chain_quality_bound
    (if cq.Metrics.Chain_quality.holds then "holds" else "VIOLATED");
  if r.r_drops <> [] || r.r_retransmits > 0 || r.r_corrupt_rejects > 0 then begin
    add "\nloss diagnostics: %d retransmits, %d corrupt frames rejected\n"
      r.r_retransmits r.r_corrupt_rejects;
    if r.r_drops <> [] then
      add "  drops by reason: %s\n"
        (String.concat ", "
           (List.map
              (fun (reason, c) -> Printf.sprintf "%s=%d" reason c)
              r.r_drops));
    (match r.r_link_retransmits with
    | [] -> ()
    | links ->
      let shown = List.filteri (fun i _ -> i < 8) links in
      add "  busiest links (retransmits): %s%s\n"
        (String.concat ", "
           (List.map
              (fun ((src, dst), c) -> Printf.sprintf "p%d->p%d=%d" src dst c)
              shown))
        (if List.length links > List.length shown then ", ..." else ""))
  end;
  add "\n%s" (render_anomalies r);
  Buffer.contents buf

(* ---- DOT export ---- *)

let dot ?shade_wave ?max_round ~dag r =
  let leader_round w = ((w - 1) * r.r_wave_length) + 1 in
  let classes : (Dagrider.Vertex.vref, Dagrider.Render.vertex_class) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun w ->
      match w.w_leader with
      | None -> ()
      | Some l ->
        let vref = { Dagrider.Vertex.round = leader_round w.w_wave; source = l } in
        let cls =
          match w.w_outcome with
          | Committed_direct | Committed_chained _ -> Dagrider.Render.Committed_leader
          | Skipped _ -> Dagrider.Render.Skipped_leader
          | Unresolved -> Dagrider.Render.Elected_leader
        in
        Hashtbl.replace classes vref cls)
    r.r_waves;
  (* shade the chosen commit's causal history (the paper's Figure 2) *)
  let chosen =
    match shade_wave with
    | Some w -> List.find_opt (fun wr -> wr.w_wave = w) r.r_waves
    | None ->
      List.fold_left
        (fun acc wr ->
          match (wr.w_outcome, wr.w_leader) with
          | (Committed_direct | Committed_chained _), Some l
            when Dagrider.Dag.contains dag
                   { Dagrider.Vertex.round = leader_round wr.w_wave; source = l }
            -> Some wr
          | _ -> acc)
        None r.r_waves
  in
  (match chosen with
  | Some ({ w_leader = Some l; _ } as wr) ->
    let vref = { Dagrider.Vertex.round = leader_round wr.w_wave; source = l } in
    if Dagrider.Dag.contains dag vref then
      List.iter
        (fun v ->
          if not (Hashtbl.mem classes v) then
            Hashtbl.replace classes v Dagrider.Render.Shaded)
        (Dagrider.Dag.reachable_from dag vref ~via_strong_only:false)
  | _ -> ());
  Dagrider.Render.dot_classified ~legend:true
    ~classify:(fun v ->
      match Hashtbl.find_opt classes v with
      | Some c -> c
      | None -> Dagrider.Render.Plain)
    ?max_round dag
