type verdict = {
  drop : bool;
  duplicates : int;
  corrupt : bool;
  extra_delay : float;
}

let clean = { drop = false; duplicates = 0; corrupt = false; extra_delay = 0.0 }

type t = {
  name : string;
  decide : Sched.io -> src:int -> dst:int -> kind:string -> verdict;
}

let none = { name = "none"; decide = (fun _ ~src:_ ~dst:_ ~kind:_ -> clean) }

let check_prob label p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Faults.lossy: %s must be in [0,1]" label)

let lossy ~rng ?(drop = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0)
    ?(reorder = 0.0) ?(reorder_spread = 3.0) () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "corrupt" corrupt;
  check_prob "reorder" reorder;
  if reorder_spread < 0.0 then
    invalid_arg "Faults.lossy: reorder_spread must be non-negative";
  let name =
    Printf.sprintf "lossy(drop=%.2f,dup=%.2f,corrupt=%.2f,reorder=%.2f)" drop
      duplicate corrupt reorder
  in
  (* the draw sequence per decision is fixed (drop, duplicate, corrupt,
     reorder, then the spread iff reordered) so executions stay pure
     functions of the seed *)
  let decide _ ~src:_ ~dst:_ ~kind:_ =
    let dropped = drop > 0.0 && Stdx.Rng.float rng 1.0 < drop in
    let duplicates =
      if duplicate > 0.0 && Stdx.Rng.float rng 1.0 < duplicate then 1 else 0
    in
    let corrupted = corrupt > 0.0 && Stdx.Rng.float rng 1.0 < corrupt in
    let extra_delay =
      if reorder > 0.0 && Stdx.Rng.float rng 1.0 < reorder then
        Stdx.Rng.float rng reorder_spread
      else 0.0
    in
    (* a clean message shares [clean] rather than a fresh verdict *)
    if dropped || duplicates > 0 || corrupted || extra_delay <> 0.0 then
      { drop = dropped; duplicates; corrupt = corrupted; extra_delay }
    else clean
  in
  { name; decide }

let on_links ~pred inner =
  { name = inner.name ^ "+targeted";
    decide =
      (fun io ~src ~dst ~kind ->
        if pred ~src ~dst then inner.decide io ~src ~dst ~kind else clean) }

let with_window ~from_time ~until_time inner =
  { name = Printf.sprintf "%s+window[%.1f,%.1f)" inner.name from_time until_time;
    decide =
      (fun io ~src ~dst ~kind ->
        if io.Sched.now >= from_time && io.Sched.now < until_time then
          inner.decide io ~src ~dst ~kind
        else clean) }
