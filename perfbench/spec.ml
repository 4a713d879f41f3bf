(* The benchmark's workloads and metric names. BENCHMARK.json at the
   repository root mirrors these tables (names, units, directions) and
   adds the regression bounds; the smoke check keeps the two in step. *)

type workload = {
  name : string;
  n : int;
  backend : Harness.Runner.backend;
  rule : Dagrider.Ordering.rule;
  gc_depth : int option;
  link_faults : Harness.Runner.link_faults option;
  clients : Harness.Runner.workload option;
      (** [Some] = open-loop client transactions; [None] = one synthetic
          block per process per round, paced by the protocol *)
  horizon : float;  (** virtual time units simulated per repeat *)
  limit : float;
      (** an operation not a_delivered at the observer within this many
          time units of entering counts as failed *)
}

let synthetic ~name ~n ~horizon ~limit =
  { name;
    n;
    backend = Harness.Runner.Bracha;
    rule = Dagrider.Ordering.dag_rider;
    gc_depth = None;
    link_faults = None;
    clients = None;
    horizon;
    limit }

(* Sizes are set so one repeat takes 1-4 s of CPU time on a 2-core
   x86-64 virtual machine; the per-workload reasons are in README.md. *)
let workloads =
  let history =
    synthetic ~name:"n10-history" ~n:10 ~horizon:100.0 ~limit:40.0
  in
  [ synthetic ~name:"n16-bracha" ~n:16 ~horizon:40.0 ~limit:25.0;
    history;
    { (synthetic ~name:"n4-gc-long" ~n:4 ~horizon:2000.0 ~limit:60.0) with
      gc_depth = Some 8 };
    { (synthetic ~name:"n7-clients-avid" ~n:7 ~horizon:200.0 ~limit:60.0) with
      backend = Harness.Runner.Avid;
      rule = Dagrider.Ordering.bullshark;
      gc_depth = Some 8;
      link_faults =
        Some
          { Harness.Runner.default_link_faults with
            lf_drop = 0.05;
            lf_duplicate = 0.02 };
      clients = Some Harness.Runner.default_workload };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let options w ~seed =
  { (Harness.Runner.default_options ~n:w.n) with
    seed;
    backend = w.backend;
    rule = w.rule;
    gc_depth = w.gc_depth;
    link_faults = w.link_faults;
    workload = w.clients }

(* (name, unit) of every end-to-end metric, in print order *)
let end_to_end =
  [ ("cpu_us_per_vertex", "us");
    ("alloc_kb_per_vertex", "KiB");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
    ("latency_p50_tu", "tu");
    ("latency_p99_tu", "tu");
    ("waves_per_commit", "ratio");
    ("honest_bits_per_vertex", "bits");
    ("ops_per_tu", "ops/tu") ]

(* Seed-42 behaviour of each workload: the SHA-256 of the observer's
   delivery log and the honest bits sent. A behaviour-preserving change
   leaves both identical. *)
let pinned_seed = 42

let pins =
  [ ( "n16-bracha",
      ( "6a2a30e9bb43c55e7dda75de3bd5f76021145e00d03d211316d134c98a7069f4",
        211983360 ) );
    ( "n10-history",
      ( "332cef4f6073f3eb849e8a9a809771a9900f22a562770a2e5cce3de262f653eb",
        103188160 ) );
    ( "n4-gc-long",
      ( "dc1c7a1a6edc9e12707ed0e803823cb8472707e7fd258fbeb0799388c2c0c85d",
        104972928 ) );
    ( "n7-clients-avid",
      ( "18c7a26d50d7d00a99931c2c4988fe19e71252b9e6b3322b8a177f2e69cec14f",
        282588560 ) ) ]
