(** Experiment harnesses that regenerate the paper's Table 1 and the
    measured claims (DESIGN.md §4 index). Each function returns a
    rendered table plus the raw numbers the render came from, so the
    bench driver can print and EXPERIMENTS.md can quote them.

    Absolute numbers are simulator-specific; the reproduced artifact is
    the {e shape}: orderings between systems, growth exponents, and
    threshold positions. *)

type table = {
  title : string;
  header : string list;
  rows : string list list;
  snapshots : (string * Metrics.Registry.snapshot) list;
      (** labeled {!Metrics.Registry} snapshots of the underlying runs
          (per-kind bit counters, engine gauges, latency percentiles) —
          populated by the experiments that go through {!Runner}
          (currently E1 communication and the latency table); empty
          where the rendered rows are the whole story *)
  notes : string list;
}

val render : table -> string

val to_json : table -> Stdx.Json.t
(** The table plus its snapshots as one JSON object
    ([{"title", "header", "rows", "notes", "snapshots"}]); the bench's
    [--json] export is a list of these. *)

(** E1 — Table 1, communication complexity column. Bits sent by honest
    processes per ordered value, for each system and system size, plus
    log-log growth exponents. *)
val table1_communication : ?ns:int list -> ?seed:int -> unit -> table

(** E2 — Table 1, expected time complexity column. Virtual time units
    until O(n) values from distinct correct proposers are ordered
    (DAG-Rider) / until n concurrent slots are output in order (VABA and
    Dumbo SMRs, the Ben-Or–El-Yaniv O(log n) effect). *)
val table1_time : ?ns:int list -> ?seed:int -> unit -> table

(** E3 — Table 1, eventual fairness + post-quantum safety columns.
    Fairness is measured (victim share under a 25x targeted delay);
    post-quantum safety is structural (which primitives sit on each
    system's safety path). *)
val table1_fairness : ?seed:int -> unit -> table

(** The combined Table 1 reproduction: one row per system, all four
    columns, measured where measurable. *)
val table1_combined : ?seed:int -> unit -> table

(** E6 — Claim 6: expected number of waves until the commit rule fires.
    The paper proves <= 3/2 against the worst-case adversary; random and
    skewed schedules should sit well under that. Five traced runs per
    schedule. *)
val claim6_waves : ?seed:int -> unit -> table

(** E7 — chain quality (§3): worst prefix ratio of correct-process
    vertices with f Byzantine-but-live processes. Bound: (f+1)/(2f+1). *)
val chain_quality : ?seed:int -> unit -> table

(** E8 — §6.2 batching amortization: bits per transaction as the batch
    size grows from 1 to n log n transactions per vertex. *)
val batching : ?seed:int -> unit -> table

(** Ablation — wave length (DESIGN.md §5): direct-commit probability and
    rounds per committed wave for wave lengths 2..6. *)
val ablation_wave_length : ?seed:int -> unit -> table

(** Ablation — reliable broadcast instantiation: bits per ordered value
    and delivery latency for Bracha / AVID / gossip at one system size,
    with small and large blocks (the Table 1 trade-off rows). *)
val ablation_rbc : ?seed:int -> unit -> table

(** Ablation — weak edges: victim inclusion with and without weak edges
    under censorship (the Validity mechanism). *)
val ablation_weak_edges : ?seed:int -> unit -> table

(** Ablation — coin transport: separate share channel vs the paper's
    footnote-1 in-DAG shares (bits, messages, progress). *)
val ablation_coin : ?seed:int -> unit -> table

(** Supporting measurement — proposal-to-delivery latency distribution
    per backend and coin transport (mean / p50 / p99 in time units). *)
val latency : ?seed:int -> unit -> table

(** Ablation — garbage collection: vertices retained vs delivered with
    pruning on/off, plus output equivalence. *)
val ablation_gc : ?seed:int -> unit -> table

(** Supporting measurement — throughput scaling: ordered transactions
    per time unit as n grows (DAG-Rider+AVID with batching). *)
val throughput : ?seed:int -> unit -> table

(** Supporting measurement — sustained load over time (the way
    Narwhal-lineage systems report headline numbers): an n=10 fleet
    under continuous client traffic, flight-recorded each virtual time
    unit. Rows are windowed tx/s, commits/s, and sliding p99 latency
    over the run, next to the observer's DAG size with garbage
    collection off (the paper's setting — grows without bound) and with
    gc_depth 8. The monitored fleet's metrics snapshot (including the
    mempool gauges) rides along for the bench's JSON export. *)
val sustained_load : ?seed:int -> unit -> table

(** Related work (paper §7) — Aleph-style per-vertex binary agreement
    vs DAG-Rider: validity under censorship, per-vertex cost, agreement
    instance counts. *)
val related_work : ?seed:int -> unit -> table

(** Commit rules on one DAG substrate — DAG-Rider (4-round waves, coin
    leaders) vs Bullshark (2-round waves, round-robin leaders):
    proposal-to-delivery latency on identical seeded synchronous
    schedules at n = 4 and n = 10. The rule changes no network draw, so
    the latency delta is attributable to the commit rule alone. *)
val rules_latency : ?seed:int -> unit -> table

type experiment = {
  name : string;  (** command-line name, e.g. ["table1-comm"] *)
  description : string;
  run : ?seed:int -> unit -> table;  (** seed defaults to 42 *)
}

val all : experiment list
(** Every table above, in DESIGN.md §4 order: the one registry both
    [bench/main.exe] and [dagrider_run experiments] iterate. *)
