type key = string

(* [at.(0)] is the first delivery at any process and [at.(1 + p)] the
   first at process [p], nan while there is none. A float array holds
   its floats unboxed, so recording a delivery allocates nothing once
   the array covers the process. *)
type record = {
  proposed_at : float;
  mutable at : float array;
  mutable deliveries : int; (* processes with a delivery *)
}

type t = { records : (key, record) Hashtbl.t; processes : int }

let create ?(processes = 4) () =
  { records = Hashtbl.create 64; processes = max 0 processes }

let proposed t key ~now =
  if not (Hashtbl.mem t.records key) then
    Hashtbl.add t.records key
      { proposed_at = now;
        at = Array.make (1 + t.processes) Float.nan;
        deliveries = 0 }

let grow r ~process =
  let at = Array.make (max (2 + process) (2 * Array.length r.at)) Float.nan in
  Array.blit r.at 0 at 0 (Array.length r.at);
  r.at <- at

(* inlined, so a caller does not box [now] to pass it *)
let[@inline] delivered t key ~process ~now =
  if process < 0 then invalid_arg "Latency.delivered: negative process";
  match Hashtbl.find t.records key with
  | exception Not_found -> ()
  | r ->
    if 1 + process >= Array.length r.at then grow r ~process;
    if Float.is_nan r.at.(1 + process) then begin
      r.at.(1 + process) <- now;
      r.deliveries <- r.deliveries + 1
    end;
    (* keep an earlier first delivery; nan is never earlier *)
    if not (r.at.(0) <= now) then r.at.(0) <- now

let first_delivered r = r.at.(0)

let first_delivery_latency t key =
  match Hashtbl.find_opt t.records key with
  | None -> None
  | Some r ->
    let d = first_delivered r in
    if Float.is_nan d then None else Some (d -. r.proposed_at)

(* Hashtbl iteration order depends on the table's internal layout, so
   every [fold]-built list below is sorted before it escapes — reports
   and registry snapshots must not change shape when a hash function or
   resize policy does. *)
let all_first_delivery_latencies t =
  List.sort compare
    (Hashtbl.fold
       (fun _ r acc ->
         let d = first_delivered r in
         if Float.is_nan d then acc else (d -. r.proposed_at) :: acc)
       t.records [])

let undelivered t =
  List.sort compare
    (Hashtbl.fold
       (fun key r acc ->
         if Float.is_nan (first_delivered r) then key :: acc else acc)
       t.records [])

let proposed_at t key =
  Option.map (fun r -> r.proposed_at) (Hashtbl.find_opt t.records key)

let delivery_count t key =
  match Hashtbl.find_opt t.records key with
  | None -> 0
  | Some r -> r.deliveries

(* each process's latency, in decreasing process order, onto [acc] *)
let fold_per_process r acc =
  let acc = ref acc in
  for i = 1 to Array.length r.at - 1 do
    let at = r.at.(i) in
    if not (Float.is_nan at) then acc := (i - 1, at -. r.proposed_at) :: !acc
  done;
  !acc

let per_process_latency t key =
  match Hashtbl.find_opt t.records key with
  | None -> []
  | Some r -> List.rev (fold_per_process r [])

let all_per_process_latencies t =
  List.sort compare
    (Hashtbl.fold
       (fun _ r acc ->
         List.fold_left (fun acc (_, d) -> d :: acc) acc (fold_per_process r []))
       t.records [])
