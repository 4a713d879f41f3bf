type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, Stdx.Stats.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16 }

let incr t name ?(by = 1) () =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Stdx.Stats.create () in
    Hashtbl.add t.histograms name h;
    h

let observe t name v = Stdx.Stats.add (histogram t name) v

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge_value t name =
  Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

(* ---- snapshots ---- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Stdx.Stats.summary) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot (t : t) =
  { counters =
      List.sort by_name
        (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []);
    gauges =
      List.sort by_name
        (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges []);
    histograms =
      List.sort by_name
        (Hashtbl.fold
           (fun k stats acc -> (k, Stdx.Stats.to_summary stats) :: acc)
           t.histograms []) }

let snapshot_to_json s =
  Stdx.Json.Obj
    [ ( "counters",
        Stdx.Json.Obj (List.map (fun (k, v) -> (k, Stdx.Json.Int v)) s.counters)
      );
      ( "gauges",
        Stdx.Json.Obj (List.map (fun (k, v) -> (k, Stdx.Json.Float v)) s.gauges)
      );
      ( "histograms",
        Stdx.Json.Obj
          (List.map (fun (k, v) -> (k, Stdx.Stats.summary_to_json v))
             s.histograms) ) ]
