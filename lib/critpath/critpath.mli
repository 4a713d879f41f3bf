(** Causal critical-path tracer: cross-node, per-commit latency
    attribution — the one create→[a_deliver] latency breakdown.

    It answers "{e which messages, which links, and which stragglers}
    made THIS commit as slow as it was". It consumes the {!Trace} event
    stream through the analyzer that owns it ([Analyze.critpath]), live
    or replayed, and uses the wire-level correlation
    ids ({!Trace.kind.Send}[.id] / {!Trace.event}[.cause]) to rebuild,
    for every vertex the observer [a_deliver]ed, the cross-node causal
    chain from the proposer's [Vertex_created] to the observer's
    reliable-broadcast delivery, and to partition the end-to-end
    create→[a_deliver] latency into disjoint segments:

    - {b handler-hold}: time a causal message sat between the arrival
      of its trigger and its own first send (node-side processing);
    - {b retransmit-stall}: first send → last send of the copy that
      got through (reliable-link backoff under loss);
    - {b transit}: last send → delivery (scheduler/network flight
      time), per directed link;
    - {b quorum-wait}: earliest quorum-completing ready arrival →
      RBC deliver at the observer — the time spent waiting for the
      {e straggler}, who is named;
    - {b dag-wait}: RBC deliver → DAG insert (Algorithm 2 buffering
      on missing strong edges);
    - {b order-wait}: DAG insert → [a_deliver] (wave resolution and
      Algorithm 3 ordering).

    The six segments telescope: on a consistent (untruncated) trace
    their sum reconciles with the end-to-end latency exactly, which
    {!report.r_reconciled} counts. The coarse pipeline stages are sums
    of segments: create→RBC deliver is hold + stall + transit +
    quorum-wait, RBC deliver→DAG insert is dag-wait, and DAG
    insert→[a_deliver] is order-wait. Commit→[a_deliver] is zero: a
    node emits a commit and its [a_deliver]s in one engine callback.

    When the run carries a traced workload ({!Trace.kind.Tx_submitted}
    / {!Trace.kind.Block_assembled}), a {e mempool-wait} segment is
    attributed per transaction as well: the built-in mempool drains
    FIFO, so mirroring each node's accepted submissions in a queue and
    popping [txs] entries at every block assembly recovers exact per-tx
    dwell from the event stream alone. Mempool dwell precedes vertex
    creation, so it reports alongside — not inside — the telescoping
    create→[a_deliver] decomposition and never perturbs residuals. *)

type hop = {
  h_id : int;  (** correlation id of the message *)
  h_src : int;
  h_dst : int;
  h_kind : string;  (** wire kind, e.g. "bracha-echo" *)
  h_sent : float;  (** first send *)
  h_last_sent : float;  (** last (re)send before first delivery *)
  h_recv : float;  (** delivery at [h_dst] *)
  h_hold : float;
      (** handler hold charged to this hop: trigger arrival (or vertex
          creation, for the first hop) → [h_sent] *)
  h_attempts : int;  (** send copies observed (1 = no retransmit) *)
}
(** One edge of the causal chain. Stall = [h_last_sent - h_sent],
    transit = [h_recv - h_last_sent]. *)

type path = {
  p_round : int;
  p_source : int;
  (* landmarks (nan when the event is missing from the stream) *)
  p_created : float;
  p_rbc_deliver : float;
  p_inserted : float;
  p_adeliver : float;
  p_first_ready : float;  (** earliest counted quorum-ready arrival *)
  p_straggler : int;
      (** source of the message whose handling completed the deliver
          quorum — who the observer waited for ([-1] unknown) *)
  p_trigger : string;  (** that message's wire kind *)
  p_hops : hop list;  (** origin-first causal chain *)
  (* segments (nan on incomplete paths where not derivable) *)
  p_transit : float;
  p_stall : float;
  p_hold : float;
  p_quorum : float;
  p_dag : float;
  p_order : float;
  p_txs : int;
      (** transactions this vertex carried whose mempool dwell could be
          attributed (0 without a traced workload, or when the ring
          dropped the submissions — under-counts, never invents) *)
  p_tx_wait : float;
      (** mean mempool dwell (submit → block assembly) of those txs;
          nan when [p_txs = 0]. Pre-creation time: not part of
          [p_total] or the residual. *)
  p_total : float;  (** end-to-end create → [a_deliver] *)
  p_residual : float;  (** [p_total] − segment sum; 0 when consistent *)
  p_complete : bool;
  p_reason : string;
      (** why reconstruction fell short ("" when complete):
          "no-create" | "no-rbc-deliver" | "no-dag-insert" |
          "no-trigger" | "chain-broken" | "chain-cycle" *)
}

type report = {
  r_observer : int;
  r_processes : int;
  r_events : int;
  r_truncated : bool;
      (** stream did not start at sequence 0 (ring wrapped before the
          first event seen) — chains into the lost head come out
          "chain-broken", so completeness numbers are lower bounds *)
  r_paths : path list;  (** observer's [a_deliver] order *)
  r_complete : int;
  r_reconciled : int;
      (** complete and |residual| ≤ 1.0 (one simulator tick) *)
  r_max_residual : float;  (** worst |residual| over complete paths *)
  r_incomplete : (string * int) list;  (** reason → count, sorted *)
  r_segments : (string * Stdx.Stats.summary) list;
      (** per-segment digests over complete paths, pipeline order:
          "handler-hold", "retransmit-stall", "transit", "quorum-wait",
          "dag-wait", "order-wait", "total"; a leading "mempool-wait"
          (per-tx dwell) appears when the run carried a traced
          workload *)
  r_stragglers : (int * int * float) list;
      (** (node, paths it completed last, total quorum-wait charged),
          descending by count — who the fleet keeps waiting for *)
  r_edges : ((int * int) * Stdx.Stats.summary) list;
      (** per directed link (src, dst): transit digests over chain
          hops, descending by mean — the slowest links *)
}

(** {1 Accumulation} *)

type t
(** A streaming accumulator; feed events in stream order. *)

val create : ?observer:int -> unit -> t
(** With [observer], paths are reconstructed {e online} as that
    process's [a_deliver] events arrive, so {!segment_means} is cheap
    enough for monitor probes mid-run. Without it, reconstruction
    happens at {!finalize}. *)

val feed : t -> Trace.event -> unit
(** O(1) per event. Pre-correlation-id streams fold fine; their chains
    all come out "chain-broken" but landmarks still resolve. *)

val finalize : observer:int -> t -> report
(** Reconstruct from [observer]'s [a_deliver] log (the paths streamed
    so far when it is the streaming observer). The default observer is
    the analyzer's to pick ([Analyze.critpath_report]). Pure with
    respect to the accumulator: feeding can continue and [finalize] can
    be called again. *)

val segment_means : t -> (string * float) list
(** Live aggregates over paths streamed so far (streaming mode only;
    all zeros otherwise), keyed "critpath.commits",
    "critpath.complete", "critpath.reconciled",
    "critpath.<segment>.mean" — the series {!Harness.Runner} exports
    to {!Monitor} probes and [metrics_snapshot]. *)

(** {1 Output} *)

val report_to_json : report -> Stdx.Json.t

val waterfall : path -> string
(** ASCII waterfall for one commit: a header naming total latency and
    the straggler, then one bar row per causal hop ([~] = retransmit
    stall, [=] = transit) and per tail segment ([#] = quorum-wait),
    positioned on the create→[a_deliver] time axis. *)

val render : ?top:int -> report -> string
(** Human-readable report: completeness and reconciliation counts,
    per-segment digests, straggler and slowest-link tables, then
    waterfalls of the [top] (default 3) slowest complete commits. *)

val dot_path : path -> string
(** Graphviz rendering of one commit's critical path — the causal hop
    chain plus the quorum/dag/order tail — reusing the Figure 1/2
    palette via {!Dagrider.Render.class_style}: origin vertex gold,
    chain hops gray, straggler lightcoral, observer stages
    lightskyblue/palegreen. *)
