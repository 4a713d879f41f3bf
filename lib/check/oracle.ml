type violation = {
  invariant : string;
  node : int;
  detail : string;
}

let pp v = Printf.sprintf "[%s] node %d: %s" v.invariant v.node v.detail

let pp_vref (r : Dagrider.Vertex.vref) =
  Printf.sprintf "(r=%d,p=%d)" r.Dagrider.Vertex.round r.Dagrider.Vertex.source

let check_agreement ~logs =
  match logs with
  | [] -> []
  | _ ->
    let arrays = List.map (fun (i, log) -> (i, Array.of_list log)) logs in
    let _, longest =
      List.fold_left
        (fun ((_, best) as acc) ((_, log) as cand) ->
          if Array.length log > Array.length best then cand else acc)
        (List.hd arrays) (List.tl arrays)
    in
    List.concat_map
      (fun (i, log) ->
        let rec cmp j =
          if j >= Array.length log then []
          else if log.(j) <> longest.(j) then
            [ { invariant = "agreement";
                node = i;
                detail =
                  Printf.sprintf "diverges at position %d: %s vs %s" j
                    (pp_vref log.(j)) (pp_vref longest.(j)) } ]
          else cmp (j + 1)
        in
        cmp 0)
      arrays

let check_extension ~node ~before ~after =
  let rec cmp j before after =
    match (before, after) with
    | [], _ -> []
    | _ :: _, [] ->
      [ { invariant = "extension";
          node;
          detail =
            Printf.sprintf "log shrank: %d entries left at position %d"
              (List.length before) j } ]
    | b :: bs, a :: as_ ->
      if b <> a then
        [ { invariant = "extension";
            node;
            detail =
              Printf.sprintf "rewrote position %d: %s became %s" j (pp_vref b)
                (pp_vref a) } ]
      else cmp (j + 1) bs as_
  in
  cmp 0 before after

let check_no_duplicates ~logs =
  List.concat_map
    (fun (i, log) ->
      let seen = Hashtbl.create 256 in
      let rec scan = function
        | [] -> []
        | r :: rest ->
          if Hashtbl.mem seen r then
            [ { invariant = "integrity";
                node = i;
                detail = Printf.sprintf "delivered %s twice" (pp_vref r) } ]
          else begin
            Hashtbl.add seen r ();
            scan rest
          end
      in
      scan log)
    logs

type commit_record = {
  cr_node : int;
  cr_wave : int;
  cr_leader : Dagrider.Vertex.vref;
  cr_direct : bool;
}

(* evaluated synchronously from the on_commit hook, so [dag] is the
   node's state at the moment the rule fired — support only grows
   afterwards, which is exactly why a weakened quorum can hide from
   end-of-run audits but not from this one. [rule] is the scenario's
   honest rule (2f+1 for DAG-Rider, f+1 for Bullshark), never the one
   the run was built with — a sabotaged quorum must not weaken the
   oracle that is supposed to catch it. *)
let quorum_label (rule : Dagrider.Ordering.rule) =
  match rule.Dagrider.Ordering.rule_quorum with
  | Dagrider.Ordering.Two_f_plus_one -> "2f+1"
  | Dagrider.Ordering.F_plus_one -> "f+1"
  | Dagrider.Ordering.Fixed q -> string_of_int q

let check_direct_commit ~rule ~f ~dag ~node ~wave ~leader =
  if Dagrider.Ordering.commit_rule_met ~rule ~f ~dag ~wave ~leader then []
  else
    [ { invariant = "leader-support";
        node;
        detail =
          Printf.sprintf
            "wave %d leader %s committed directly with < %s strong-path \
             support at commit time"
            wave
            (pp_vref (Dagrider.Vertex.vref_of leader))
            (quorum_label rule) } ]

let check_dag_wf ~n ~f ~node dag =
  List.filter_map
    (fun v ->
      match Dagrider.Vertex.validate ~n ~f v with
      | Ok () -> None
      | Error reason ->
        Some
          { invariant = "dag-wf";
            node;
            detail =
              Printf.sprintf "accepted invalid vertex %s: %s"
                (pp_vref (Dagrider.Vertex.vref_of v)) reason })
    (Dagrider.Dag.vertices dag)

(* two correct processes holding different vertices for one
   (round, source) means reliable broadcast let an equivocation through *)
let check_equivocation ~dags =
  let seen : (Dagrider.Vertex.vref, int * string) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.concat_map
    (fun (i, dag) ->
      List.filter_map
        (fun v ->
          let r = Dagrider.Vertex.vref_of v in
          let digest = Dagrider.Vertex.digest v in
          match Hashtbl.find_opt seen r with
          | None ->
            Hashtbl.add seen r (i, digest);
            None
          | Some (_, d) when d = digest -> None
          | Some (j, _) ->
            Some
              { invariant = "equivocation";
                node = i;
                detail =
                  Printf.sprintf
                    "vertex %s differs from the copy node %d accepted"
                    (pp_vref r) j })
        (Dagrider.Dag.vertices dag))
    dags

(* a directly committed leader must have the rule's strong-path support
   quorum in its wave's last round (Lemma 1's precondition for
   DAG-Rider's 2f+1; the f+1 vote count for Bullshark); a chained
   leader must be strong-path-reachable from the next leader the same
   process committed (the Line 39-43 backward walk). support can only
   grow after the commit, so evaluating on the final DAG is sound. A
   leader below the node's GC horizon was pruned with its wave and
   cannot be audited against this DAG (as in [check_certificates]); a
   direct commit was checked when it fired ([check_direct_commit]). *)
let check_leader_support ~rule ~f ~commits ~dag_of =
  let by_node = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let prev = try Hashtbl.find by_node c.cr_node with Not_found -> [] in
      Hashtbl.replace by_node c.cr_node (c :: prev))
    commits;
  Hashtbl.fold
    (fun node cs acc ->
      match dag_of node with
      | None -> acc
      | Some dag ->
        let cs = List.sort (fun a b -> compare a.cr_wave b.cr_wave) cs in
        let rec walk acc = function
          | [] -> acc
          | c :: rest ->
            let acc =
              match Dagrider.Dag.find dag c.cr_leader with
              | None when c.cr_leader.round < Dagrider.Dag.pruned_below dag ->
                acc
              | None ->
                { invariant = "leader-support";
                  node;
                  detail =
                    Printf.sprintf "committed leader %s absent from own DAG"
                      (pp_vref c.cr_leader) }
                :: acc
              | Some leader ->
                if c.cr_direct then
                  if
                    Dagrider.Ordering.commit_rule_met ~rule ~f ~dag
                      ~wave:c.cr_wave ~leader
                  then acc
                  else
                    { invariant = "leader-support";
                      node;
                      detail =
                        Printf.sprintf
                          "wave %d leader %s committed directly with < %s \
                           strong-path support"
                          c.cr_wave (pp_vref c.cr_leader) (quorum_label rule) }
                    :: acc
                else begin
                  match rest with
                  | [] ->
                    { invariant = "leader-support";
                      node;
                      detail =
                        Printf.sprintf
                          "wave %d leader %s chained with no later commit"
                          c.cr_wave (pp_vref c.cr_leader) }
                    :: acc
                  | next :: _ ->
                    if Dagrider.Dag.strong_path dag next.cr_leader c.cr_leader
                    then acc
                    else
                      { invariant = "leader-support";
                        node;
                        detail =
                          Printf.sprintf
                            "wave %d leader %s has no strong path from the \
                             next committed leader %s (wave %d)"
                            c.cr_wave (pp_vref c.cr_leader)
                            (pp_vref next.cr_leader) next.cr_wave }
                      :: acc
                end
            in
            walk acc rest
        in
        walk acc cs)
    by_node []

(* Leader-skip legality, auditable end-of-run because causal history is
   closed at vertex insertion: when a node committed wave [w2], the
   backward chain examined every uncommitted wave below it with [w2]'s
   leader (or a nearer chained one) as the reference vertex, and any
   strong path from that vertex existed already — the whole path lies
   in its causal history. So if the final DAG holds a skipped wave's
   leader vertex AND a strong path to it from the next committed
   leader, the chain-back was obliged to commit that wave: skipping it
   was a bug. [leader_of node wave] supplies the leader schedule
   (round-robin rules know every leader; coin rules only audit waves
   whose instance the node resolved — [None] skips the wave). *)
let check_skip_legality ~rule ~commits ~dag_of ~leader_of =
  let by_node = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let prev = try Hashtbl.find by_node c.cr_node with Not_found -> [] in
      Hashtbl.replace by_node c.cr_node (c :: prev))
    commits;
  Hashtbl.fold
    (fun node cs acc ->
      match dag_of node with
      | None -> acc
      | Some dag ->
        let cs = List.sort (fun a b -> compare a.cr_wave b.cr_wave) cs in
        let violations = ref acc in
        let audit_gap ~lo ~next =
          for w = lo to next.cr_wave - 1 do
            match leader_of node w with
            | None -> ()
            | Some leader_source -> (
              match
                Dagrider.Ordering.leader_vertex ~rule ~dag ~wave:w
                  ~leader_source
              with
              | None -> () (* legal: leader vertex absent from the DAG *)
              | Some lv ->
                if
                  Dagrider.Dag.strong_path dag next.cr_leader
                    (Dagrider.Vertex.vref_of lv)
                then
                  violations :=
                    { invariant = "skip-legality";
                      node;
                      detail =
                        Printf.sprintf
                          "wave %d leader %s was skipped although the next \
                           committed leader %s (wave %d) reaches it by a \
                           strong path"
                          w
                          (pp_vref (Dagrider.Vertex.vref_of lv))
                          (pp_vref next.cr_leader) next.cr_wave }
                    :: !violations)
          done
        in
        let rec walk lo = function
          | [] -> ()
          | c :: rest ->
            audit_gap ~lo ~next:c;
            walk (c.cr_wave + 1) rest
        in
        walk 1 cs;
        !violations)
    by_node []

(* Re-validate provenance certificates against the final DAGs. A
   certificate is a {e claim} about why a decision was legal; the
   checker re-derives every part of the claim it can from the DAG it
   ends up with — a certificate the checker cannot verify is itself a
   failure, whether the bug is in the ordering or in the emission.
   Strong paths and vertex presence are monotone (support only grows),
   so positive claims stay checkable end-of-run; the claimed-at-the-time
   {e counts} of skip certificates are checked for internal consistency
   instead. *)
let check_certificates ~rule ~f ~forensics ~dag_of =
  let wave_length = rule.Dagrider.Ordering.rule_wave_length in
  let quorum = Dagrider.Ordering.quorum_of rule ~f in
  let bad node detail = { invariant = "certificate"; node; detail } in
  let check_common node ~wave ~rule_name ~cert_quorum ~leader_round =
    let acc = [] in
    let acc =
      if rule_name <> rule.Dagrider.Ordering.rule_name then
        bad node
          (Printf.sprintf "wave %d certificate names rule %S, run used %S" wave
             rule_name rule.Dagrider.Ordering.rule_name)
        :: acc
      else acc
    in
    let acc =
      if cert_quorum <> quorum then
        bad node
          (Printf.sprintf "wave %d certificate claims quorum %d, rule needs %d"
             wave cert_quorum quorum)
        :: acc
      else acc
    in
    if leader_round <> Dagrider.Ordering.round_of ~wave_length ~wave ~k:1 then
      bad node
        (Printf.sprintf "wave %d certificate places the leader in round %d, \
                         the wave's first round is %d"
           wave leader_round
           (Dagrider.Ordering.round_of ~wave_length ~wave ~k:1))
      :: acc
    else acc
  in
  let check_commit node dag ~floor tbl_committed (c : Trace.commit_cert) =
    let acc =
      check_common node ~wave:c.Trace.wave ~rule_name:c.Trace.rule
        ~cert_quorum:c.Trace.quorum ~leader_round:c.Trace.leader_round
    in
    let leader =
      { Dagrider.Vertex.round = c.Trace.leader_round;
        source = c.Trace.leader_source }
    in
    if c.Trace.leader_round < floor then
      (* the wave sits below the GC horizon: its vertices were pruned,
         so absence is not evidence against the certificate — only the
         schedule/quorum field checks above still apply *)
      acc
    else if not (Dagrider.Dag.contains dag leader) then
      bad node
        (Printf.sprintf "wave %d committed leader %s absent from the final DAG"
           c.Trace.wave (pp_vref leader))
      :: acc
    else if c.Trace.direct then begin
      let last_round =
        Dagrider.Ordering.round_of ~wave_length ~wave:c.Trace.wave
          ~k:wave_length
      in
      let acc =
        if List.length c.Trace.support < quorum then
          bad node
            (Printf.sprintf
               "wave %d direct commit cites %d supporters, below quorum %d"
               c.Trace.wave
               (List.length c.Trace.support)
               quorum)
          :: acc
        else acc
      in
      List.fold_left
        (fun acc src ->
          let sref = { Dagrider.Vertex.round = last_round; source = src } in
          if not (Dagrider.Dag.contains dag sref) then
            bad node
              (Printf.sprintf "wave %d cites supporter %s missing from the \
                               final DAG"
                 c.Trace.wave (pp_vref sref))
            :: acc
          else if not (Dagrider.Dag.strong_path dag sref leader) then
            bad node
              (Printf.sprintf "wave %d cites supporter %s with no strong path \
                               to leader %s"
                 c.Trace.wave (pp_vref sref) (pp_vref leader))
            :: acc
          else acc)
        acc c.Trace.support
    end
    else begin
      let via =
        { Dagrider.Vertex.round = c.Trace.via_round;
          source = c.Trace.via_source }
      in
      let via_wave = ((c.Trace.via_round - 1) / wave_length) + 1 in
      let acc =
        if
          via_wave <= c.Trace.wave || via_wave > c.Trace.anchor_wave
          || not (Hashtbl.mem tbl_committed via_wave)
        then
          bad node
            (Printf.sprintf
               "wave %d chained via %s (wave %d), which is not a later \
                committed wave of the same chain (anchor %d)"
               c.Trace.wave (pp_vref via) via_wave c.Trace.anchor_wave)
          :: acc
        else acc
      in
      if not (Dagrider.Dag.contains dag via) then
        bad node
          (Printf.sprintf "wave %d chain-back evidence %s absent from the \
                           final DAG"
             c.Trace.wave (pp_vref via))
        :: acc
      else if not (Dagrider.Dag.strong_path dag via leader) then
        bad node
          (Printf.sprintf "wave %d chained without a strong path from %s to \
                           leader %s"
             c.Trace.wave (pp_vref via) (pp_vref leader))
        :: acc
      else acc
    end
  in
  let check_final_skip node dag ~floor ~next_commit (s : Trace.skip_cert) =
    let acc =
      check_common node ~wave:s.Trace.wave ~rule_name:s.Trace.rule
        ~cert_quorum:s.Trace.quorum ~leader_round:s.Trace.leader_round
    in
    let leader =
      { Dagrider.Vertex.round = s.Trace.leader_round;
        source = s.Trace.leader_source }
    in
    let acc =
      if List.length s.Trace.support >= quorum then
        bad node
          (Printf.sprintf
             "wave %d skip cites %d supporters — at or above quorum %d, the \
              skip was illegal by its own evidence"
             s.Trace.wave
             (List.length s.Trace.support)
             quorum)
        :: acc
      else acc
    in
    let acc =
      if s.Trace.reason = "leader-absent" && s.Trace.support <> []
      then
        bad node
          (Printf.sprintf "wave %d skip claims an absent leader yet cites \
                           supporters"
             s.Trace.wave)
        :: acc
      else acc
    in
    (* claimed supporters are monotone facts — still checkable (unless
       the wave fell below the GC horizon and was pruned) *)
    let acc =
      if s.Trace.leader_round >= floor && Dagrider.Dag.contains dag leader
      then
        List.fold_left
          (fun acc src ->
            let sref =
              { Dagrider.Vertex.round =
                  Dagrider.Ordering.round_of ~wave_length
                    ~wave:s.Trace.wave ~k:wave_length;
                source = src }
            in
            if
              Dagrider.Dag.contains dag sref
              && Dagrider.Dag.strong_path dag sref leader
            then acc
            else
              bad node
                (Printf.sprintf "wave %d skip cites supporter %s the final \
                                 DAG does not confirm"
                   s.Trace.wave (pp_vref sref))
              :: acc)
          acc s.Trace.support
      else acc
    in
    (* skip legality: if the next committed leader reaches this wave's
       leader by a strong path in the final DAG, the chain-back was
       obliged to commit it (causal closure at insertion makes this
       auditable end-of-run, as in check_skip_legality) *)
    match next_commit with
    | Some (next : Trace.commit_cert)
      when s.Trace.leader_round >= floor
           && Dagrider.Dag.contains dag leader
           && Dagrider.Dag.strong_path dag
                { Dagrider.Vertex.round = next.Trace.leader_round;
                  source = next.Trace.leader_source }
                leader ->
      bad node
        (Printf.sprintf
           "wave %d was finally skipped although committed wave %d's leader \
            reaches its leader %s by a strong path"
           s.Trace.wave next.Trace.wave (pp_vref leader))
      :: acc
    | _ -> acc
  in
  List.concat_map
    (fun node ->
      match dag_of node with
      | None -> []
      | Some dag ->
        (* the GC horizon: rounds below the lowest retained one were
           pruned and cannot be audited against this DAG *)
        let floor =
          List.fold_left
            (fun acc v -> min acc v.Dagrider.Vertex.round)
            max_int
            (Dagrider.Dag.vertices dag)
        in
        let sts = Forensics.stories forensics ~node in
        let commit_of st =
          Option.map (fun c -> c.Forensics.cert) st.Forensics.st_commit
        in
        let committed = Hashtbl.create 64 in
        List.iter
          (fun st ->
            match commit_of st with
            | Some c -> Hashtbl.replace committed st.Forensics.st_wave c
            | None -> ())
          sts;
        let next_commit_after w =
          List.fold_left
            (fun acc st ->
              match (acc, commit_of st) with
              | None, Some c when st.Forensics.st_wave > w -> Some c
              | _ -> acc)
            None sts
        in
        List.concat_map
          (fun st ->
            (match commit_of st with
            | Some c -> check_commit node dag ~floor committed c
            | None -> [])
            @
            match (st.Forensics.st_commit, st.Forensics.st_skip) with
            | None, Some s ->
              check_final_skip node dag ~floor
                ~next_commit:(next_commit_after st.Forensics.st_wave)
                s.Forensics.cert
            | _ -> [])
          sts)
    (Forensics.nodes forensics)

let check_chain_quality ~f ~correct ~logs =
  List.filter_map
    (fun (i, log) ->
      let sources = List.map (fun v -> v.Dagrider.Vertex.source) log in
      let r = Metrics.Chain_quality.audit ~f ~correct ~sources in
      if r.Metrics.Chain_quality.holds then None
      else
        Some
          { invariant = "chain-quality";
            node = i;
            detail =
              Printf.sprintf
                "worst prefix (len %d) has correct ratio %.3f < %.3f"
                r.Metrics.Chain_quality.worst_prefix_len
                r.Metrics.Chain_quality.worst_prefix_ratio
                (float_of_int (f + 1) /. float_of_int ((2 * f) + 1)) })
    logs

(* ---- attack-informed oracles ----

   The adversary driver records the ground truth of every deviation it
   actually sent (forked vertices, forged sync payloads); these checks
   replay that ledger against the honest fleet's final DAGs. They are
   strictly sharper than the black-box checks above: [check_equivocation]
   only fires when two honest DAGs happen to disagree, while the fork
   ledger also proves the {e safe} outcomes — every fork was excluded or
   converged — and ties each verdict to the attack that caused it. *)

let short_digest d = String.sub (Crypto.Sha256.to_hex d) 0 12

type fork_outcome =
  | Fork_excluded
  | Fork_converged of string

let fork_outcome ~dags ~attacker (fk : Attack.fork) =
  let slot =
    { Dagrider.Vertex.round = fk.Attack.fork_round; source = attacker }
  in
  let held =
    List.filter_map
      (fun (i, dag) ->
        Option.map
          (fun v -> (i, Dagrider.Vertex.digest v))
          (Dagrider.Dag.find dag slot))
      dags
  in
  match held with
  | [] -> Ok Fork_excluded
  | (_, d0) :: rest ->
    if List.for_all (fun (_, d) -> String.equal d d0) rest then
      Ok (Fork_converged d0)
    else Error held

let check_fork_outcomes ~(reports : Harness.Runner.attack_report list) ~dags =
  List.concat_map
    (fun (ar : Harness.Runner.attack_report) ->
      let attacker = ar.Harness.Runner.ar_node in
      List.concat_map
        (fun (fk : Attack.fork) ->
          match fork_outcome ~dags ~attacker fk with
          | Ok Fork_excluded -> []
          | Ok (Fork_converged d) ->
            (* converging is legal, but only onto a variant the attacker
               actually broadcast — anything else means the backend
               manufactured a vertex *)
            if List.exists (String.equal d) fk.Attack.fork_digests then []
            else
              [ { invariant = "fork-outcome";
                  node = attacker;
                  detail =
                    Printf.sprintf
                      "round-%d fork converged on digest %s the attacker \
                       never sent"
                      fk.Attack.fork_round (short_digest d) } ]
          | Error held ->
            let node = match held with (i, _) :: _ -> i | [] -> attacker in
            [ { invariant = "fork-outcome";
                node;
                detail =
                  Printf.sprintf "p%d's round-%d fork split the fleet: %s"
                    attacker fk.Attack.fork_round
                    (String.concat ", "
                       (List.map
                          (fun (i, d) ->
                            Printf.sprintf "p%d=%s" i (short_digest d))
                          held)) } ])
        ar.Harness.Runner.ar_forks)
    reports

let check_lie_exclusion ~(reports : Harness.Runner.attack_report list) ~dags =
  List.concat_map
    (fun (ar : Harness.Runner.attack_report) ->
      List.concat_map
        (fun (lie : Attack.lie) ->
          let slot =
            { Dagrider.Vertex.round = lie.Attack.lie_round;
              source = lie.Attack.lie_source }
          in
          List.filter_map
            (fun (i, dag) ->
              match Dagrider.Dag.find dag slot with
              | Some v
                when String.equal (Dagrider.Vertex.digest v)
                       lie.Attack.lie_digest ->
                Some
                  { invariant = "sync-lie";
                    node = i;
                    detail =
                      Printf.sprintf
                        "admitted p%d's forged catch-up vertex for %s"
                        ar.Harness.Runner.ar_node (pp_vref slot) }
              | _ -> None)
            dags)
        (* one forged slot is typically served many times; judge it once *)
        (List.sort_uniq compare ar.Harness.Runner.ar_lies))
    reports

let check_validity ~n ~logs =
  List.concat_map
    (fun (i, log) ->
      if List.length log < 3 * n then []
      else
        let proposed = Array.make n false in
        List.iter (fun v -> proposed.(v.Dagrider.Vertex.source) <- true) log;
        List.filter_map
          (fun s ->
            if proposed.(s) then None
            else
              Some
                { invariant = "validity";
                  node = i;
                  detail =
                    Printf.sprintf
                      "no proposal from correct process %d in a %d-entry log" s
                      (List.length log) })
          (List.init n (fun s -> s)))
    logs

let check_fleet ~rule ~runner ~commits ~expect_validity =
  let opts = Harness.Runner.options runner in
  let n = opts.Harness.Runner.n and f = opts.Harness.Runner.f in
  let correct = Harness.Runner.correct_indices runner in
  let is_correct = Harness.Runner.is_correct runner in
  let full_logs =
    List.map
      (fun i ->
        (i, Dagrider.Node.delivered_log (Harness.Runner.node runner i)))
      correct
  in
  let ref_logs =
    List.map
      (fun (i, log) -> (i, List.map Dagrider.Vertex.vref_of log))
      full_logs
  in
  let dags =
    List.map
      (fun i -> (i, Dagrider.Node.dag (Harness.Runner.node runner i)))
      correct
  in
  let dag_of node =
    if is_correct node then Some (Dagrider.Node.dag (Harness.Runner.node runner node))
    else None
  in
  let live_commits = List.filter (fun c -> is_correct c.cr_node) commits in
  let leader_of node wave =
    if is_correct node then
      Dagrider.Node.leader_of (Harness.Runner.node runner node) ~wave
    else None
  in
  check_agreement ~logs:ref_logs
  @ check_no_duplicates ~logs:ref_logs
  @ List.concat_map (fun (i, dag) -> check_dag_wf ~n ~f ~node:i dag) dags
  @ check_equivocation ~dags
  @ check_leader_support ~rule ~f ~commits:live_commits ~dag_of
  @ check_skip_legality ~rule ~commits:live_commits ~dag_of ~leader_of
  @ (match Harness.Runner.analyzer runner with
    | Some analyzer ->
      check_certificates ~rule ~f ~forensics:(Analyze.ledger analyzer) ~dag_of
    | None -> [])
  @ check_chain_quality ~f ~correct:is_correct ~logs:full_logs
  @ (match Harness.Runner.attack_reports runner with
    | [] -> []
    | reports ->
      check_fork_outcomes ~reports ~dags @ check_lie_exclusion ~reports ~dags)
  @ (if expect_validity then check_validity ~n ~logs:full_logs else [])
