(** Swarm driver: run generated scenarios, judge them with the oracle,
    shrink failures, and emit deterministic repro commands.

    One scenario runs as: build the fleet from
    {!Scenario.to_options} (plus commit/delivery observation hooks),
    arm the timed fault script on the engine, then advance virtual time
    in slices — checking agreement and log-append-onlyness at every
    slice boundary — and finish with the full {!Oracle.check_fleet}
    sweep. TigerBeetle-style: everything is a pure function of the
    seed, so "re-run seed N" reproduces the execution exactly. *)

type outcome = {
  scenario : Scenario.t;
  violations : Oracle.violation list; (** deduplicated; empty = pass *)
  delivered_min : int; (** fewest vertices delivered by a correct node *)
  delivered_max : int;
  commits : Oracle.commit_record list;
      (** every commit the [on_commit] hook observed, fleet-wide,
          newest first *)
  events : int;  (** simulator events executed *)
}

val run_scenario : ?trace:Trace.t -> Scenario.t -> outcome
(** [?trace] threads a tracer into the fleet's options
    ({!Harness.Runner.options.trace}); because a scenario run is a pure
    function of the seed, tracing a re-run reproduces the original
    execution event for event. *)

val trace_scenario : Scenario.t -> Harness.Runner.t
(** Re-run [sc] with a fresh tracer and return the runner — the swarm
    CLI calls this on every (shrunk) failure and writes its artifacts
    from it: the tracer's retained window as the event log
    ({!Harness.Runner.options}[.trace]), and the certificate stories,
    anomaly lines and last-wave waterfall from its live analyzer
    ({!Harness.Runner.analyzer}), which saw the whole run even when
    the ring wrapped. *)

val repro_command : Scenario.t -> string
(** The exact command line that replays this scenario. *)

val shrink_list : keep:('a list -> bool) -> 'a list -> 'a list
(** Greedy delta-debugging pass: try dropping each element in turn,
    keeping the drop whenever [keep] still holds on the remainder.
    [keep] must hold on the input list. *)

val shrink : outcome -> outcome
(** Minimize a failing scenario's fault script: greedily drop fault
    actions while the run still produces a violation. Returns the
    outcome of the smallest still-failing scenario (the input itself if
    nothing could be dropped or it was not failing). *)

type report = {
  runs : int;
  failures : outcome list; (** shrunk, in seed order *)
  agreement_violations : int;
      (** total "agreement" violations across failures — the count
          sabotage mode must drive above zero *)
}

val run_seeds :
  ?sabotage:bool ->
  ?quick:bool ->
  ?lossy:Harness.Runner.link_faults ->
  ?attack:Attack.spec ->
  ?weaken_sync:bool ->
  ?gc_depth:int ->
  ?rule:Dagrider.Ordering.rule ->
  ?progress:(seed:int -> outcome -> unit) ->
  seeds:int list ->
  unit ->
  report
(** Generate-and-run each seed; failing outcomes are shrunk before they
    are reported. [progress] observes every run (the CLI uses it for
    live output). [lossy] forces every scenario onto lossy links at the
    given rates (the CLI's --loss/--dup/--corrupt flags). [attack]
    forces the given adversary into every scenario (the CLI's --attack
    flag); [weaken_sync] runs every fleet with the deliberately
    weakened sync validator — the planted-vulnerability mode, expected
    to {e produce} violations. [gc_depth] runs every process with
    garbage collection at that depth (the CLI's --gc-depth flag). [rule]
    runs every scenario under the given commit rule (the CLI's --rule
    flag). *)
