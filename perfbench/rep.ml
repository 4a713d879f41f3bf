(* One repeat of a workload. Main runs each repeat in a fresh child
   process, so the heap high-water mark and the GC state it reports
   belong to that repeat alone. *)

type variant =
  | Plain  (** the workload as defined: the end-to-end measurement *)
  | Traced
      (** the workload with Trace and Monitor on, keeping the event
          stream for the observability replays *)
  | Profiled  (** [Plain] under [Prof], then the layer replays *)

let variant_names =
  [ ("plain", Plain); ("traced", Traced); ("profiled", Profiled) ]

let variant_name v = fst (List.find (fun (_, v') -> v' = v) variant_names)

(* OCaml 5's [Gc.allocated_bytes] advances in whole minor-heap arenas;
   emptying the minor heap first makes the reading exact *)
let alloc_now () =
  Gc.minor ();
  Gc.allocated_bytes ()

let word_bytes = float_of_int (Sys.word_size / 8)

(* CPU time of this process, user plus system. The simulation is
   single-threaded and does no I/O, so on an idle machine this equals
   wall time; unlike wall time it leaves out the time the scheduler, or
   the hypervisor of a shared host, gives the CPU to someone else. *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* The run is timed in [slices] equal steps of virtual time. Running to
   each step's end in turn does exactly what one run to the horizon
   does, so repeats of one input do the same work in each step, and
   main can keep each step's fastest repeat: a burst of contention from
   co-tenants of the machine that slows one repeat's step is dropped
   when another repeat ran that step undisturbed. *)
let slices = 100

let timed_run fleet ~horizon =
  let last = ref (cpu_now ()) in
  Array.init slices (fun i ->
      let until = horizon *. float_of_int (i + 1) /. float_of_int slices in
      Harness.Runner.run fleet ~until;
      let now = cpu_now () in
      let dt = now -. !last in
      last := now;
      dt)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* the lowest correct process *)
let observer_node fleet =
  let observer = List.hd (Harness.Runner.correct_indices fleet) in
  (observer, Harness.Runner.node fleet observer)

(* What a repeat records while it runs. The a_deliver hook only conses,
   so it adds one allocation per delivery to the timed run. *)
type probe = {
  deliveries : (string * float) list array;  (** per process, newest first *)
  mutable direct_commits : int;  (** at the observer *)
  mutable commits : int;
  mutable leaders : Dagrider.Vertex.vref list;
}

let build w ~seed ~observed ?capture () =
  let probe =
    { deliveries = Array.make w.Spec.n [];
      direct_commits = 0;
      commits = 0;
      leaders = [] }
  in
  (* no workload declares faults, so the observer is process 0 *)
  let observer = 0 in
  let trace, monitor =
    if observed then begin
      let tr = Trace.create ~capacity:4096 () in
      Option.iter (Trace.add_sink tr) capture;
      (Some tr, Some (Monitor.create ~interval:1.0 ~window:20.0 ()))
    end
    else (None, None)
  in
  let on_deliver ~node ~block ~round:_ ~source:_ ~time =
    probe.deliveries.(node) <- (block, time) :: probe.deliveries.(node)
  in
  let on_commit ~node (c : Dagrider.Ordering.commit) =
    if node = observer then begin
      probe.commits <- probe.commits + 1;
      if c.direct then probe.direct_commits <- probe.direct_commits + 1;
      probe.leaders <- Dagrider.Vertex.vref_of c.leader :: probe.leaders
    end
  in
  let options =
    { (Spec.options w ~seed) with
      trace;
      monitor;
      on_deliver = Some on_deliver;
      on_commit = Some on_commit }
  in
  let fleet = Harness.Runner.build options in
  (fleet, probe)

(* CPU seconds per untraced [build] of the workload, which is one
   [Runner.build]. Builds are timed in batches of at least
   [setup_batch_s], which keeps the clock's microsecond resolution and
   any one cold build out of the reading; the fastest of
   [setup_batches] batches is reported, for the reason the run keeps
   each slice's fastest repeat. *)
let setup_batches = 10

let setup_batch_s = 0.01

let setup_time w ~seed =
  let batch () =
    let builds = ref 0 and t0 = cpu_now () in
    while cpu_now () -. t0 < setup_batch_s do
      ignore (build w ~seed ~observed:false ());
      incr builds
    done;
    (cpu_now () -. t0) /. float_of_int !builds
  in
  List.fold_left Float.min infinity
    (List.init setup_batches (fun _ -> batch ()))

(* ---- operations, latency and failures ---- *)

type ops = {
  attempted : int;
  failed : int;
  ordered : int;  (** operations a_delivered at the observer *)
  latencies : Stdx.Stats.t;  (** pooled over correct processes *)
}

(* An operation is a client transaction on client workloads (entry =
   its scheduled submit time: the generator submits transaction k of
   each process at (k+1)/rate) and a synthetic block elsewhere (entry =
   the creation of the vertex carrying it). Operations that entered by
   horizon - limit are attempted; one fails unless the observer
   a_delivered it within [limit]. A process that never delivered an
   attempted operation adds the censored latency horizon - entry to the
   pool. *)
let operations w fleet probe =
  let n = w.Spec.n and horizon = w.Spec.horizon and limit = w.Spec.limit in
  let cutoff = horizon -. limit in
  let table : (string, float array) Hashtbl.t = Hashtbl.create 4096 in
  let record key node time =
    let times =
      match Hashtbl.find_opt table key with
      | Some a -> a
      | None ->
        let a = Array.make n nan in
        Hashtbl.add table key a;
        a
    in
    if Float.is_nan times.(node) then times.(node) <- time
  in
  let correct = Harness.Runner.correct_indices fleet in
  let block_ops block =
    match w.Spec.clients with
    | Some _ ->
      List.map Workload.Txgen.tx_to_string (Workload.Txgen.block_txs block)
    | None -> [ block ]
  in
  Array.iteri
    (fun node ds ->
      List.iter
        (fun (block, time) ->
          List.iter (fun op -> record op node time) (block_ops block))
        ds)
    probe.deliveries;
  let entries =
    match w.Spec.clients with
    | Some wl ->
      let period = 1.0 /. wl.Harness.Runner.wl_rate in
      let per_owner = int_of_float (Float.floor ((cutoff /. period) +. 1e-9)) in
      List.concat_map
        (fun owner ->
          let body_bytes = wl.Harness.Runner.wl_body_bytes in
          let gen = Workload.Txgen.gen ~owner ~body_bytes in
          List.init per_owner (fun k ->
              let tx = Workload.Txgen.next_tx gen in
              (Workload.Txgen.tx_to_string tx, float_of_int (k + 1) *. period)))
        correct
    | None ->
      let latency = Harness.Runner.latency fleet in
      Hashtbl.fold (fun k _ acc -> k :: acc) table []
      @ Metrics.Latency.undelivered latency
      |> List.filter_map (fun key ->
             Option.map
               (fun at -> (key, at))
               (Metrics.Latency.proposed_at latency key))
  in
  let observer = List.hd correct in
  let attempted = ref 0 and failed = ref 0 in
  let latencies = Stdx.Stats.create () in
  List.iter
    (fun (key, entry) ->
      if entry <= cutoff then begin
        incr attempted;
        let times =
          match Hashtbl.find_opt table key with
          | Some a -> a
          | None -> Array.make n nan
        in
        if Float.is_nan times.(observer) || times.(observer) -. entry > limit
        then incr failed;
        List.iter
          (fun q ->
            let t = if Float.is_nan times.(q) then horizon else times.(q) in
            Stdx.Stats.add latencies (t -. entry))
          correct
      end)
    entries;
  let ordered =
    List.fold_left
      (fun acc (block, _) -> acc + List.length (block_ops block))
      0 probe.deliveries.(observer)
  in
  { attempted = !attempted; failed = !failed; ordered; latencies }

(* SHA-256 over the observer's delivery log *)
let fingerprint node =
  let ctx = Crypto.Sha256.init () in
  List.iter
    (fun (v : Dagrider.Vertex.t) ->
      Crypto.Sha256.feed ctx (Printf.sprintf "%d:%d:" v.round v.source);
      Crypto.Sha256.feed ctx (Dagrider.Vertex.encode v))
    (Dagrider.Node.delivered_log node);
  Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)

let check fleet =
  match Harness.Runner.check_total_order fleet with
  | Error e -> Some ("total order: " ^ e)
  | Ok () -> (
    match Harness.Runner.check_integrity fleet with
    | Error e -> Some ("integrity: " ^ e)
    | Ok () -> None)

(* ---- the end-to-end repeat ---- *)

(* Set-up is timed after the run, on a compacted heap, so the builds it
   repeats leave the run's heap and GC readings alone and the run's
   garbage is not collected on set-up's clock. *)
let plain w ~seed =
  let fleet, probe = build w ~seed ~observed:false () in
  let gc0 = Gc.quick_stat () in
  let a0 = alloc_now () in
  let cpu = timed_run fleet ~horizon:w.Spec.horizon in
  let alloc = alloc_now () -. a0 in
  let gc1 = Gc.quick_stat () in
  let _, node = observer_node fleet in
  let ord = Dagrider.Node.ordering node in
  let ops = operations w fleet probe in
  let fingerprint = fingerprint node and error = check fleet in
  let delivered = Dagrider.Ordering.delivered_count ord in
  let decided_wave = Dagrider.Ordering.decided_wave ord in
  let honest_bits = Harness.Runner.honest_bits fleet in
  Gc.compact ();
  let setup = setup_time w ~seed in
  let open Stdx.Json in
  Obj
    [ ("setup_s", Float setup);
      ("cpu_s", Float (Array.fold_left ( +. ) 0.0 cpu));
      ("slices_s", List (Array.to_list (Array.map (fun x -> Float x) cpu)));
      ("alloc_bytes", Float alloc);
      ("heap_bytes", Float (float_of_int gc1.top_heap_words *. word_bytes));
      ("delivered", Int delivered);
      ("decided_wave", Int decided_wave);
      ("direct_commits", Int probe.direct_commits);
      ("honest_bits", Int honest_bits);
      ("attempted", Int ops.attempted);
      ("failed", Int ops.failed);
      ("ordered_ops", Int ops.ordered);
      ("latency_n", Int (Stdx.Stats.count ops.latencies));
      ("latency_p50", Float (Stdx.Stats.percentile ops.latencies 50.0));
      ("latency_p99", Float (Stdx.Stats.percentile ops.latencies 99.0));
      ("gc_minor", Int (gc1.minor_collections - gc0.minor_collections));
      ("gc_major", Int (gc1.major_collections - gc0.major_collections));
      ( "gc_promoted_bytes",
        Float ((gc1.promoted_words -. gc0.promoted_words) *. word_bytes) );
      ("fingerprint", String fingerprint);
      ("error", match error with None -> Null | Some e -> String e) ]
