(** Span-based performance profiler: wall-clock time, allocated bytes,
    and call counts attributed to named spans across the hot paths
    (engine dispatch, RBC send/deliver, link retransmission, DAG
    insert/path queries, wave ordering, the analyzer sink).

    Mirrors {!Trace}'s zero-cost-when-disabled contract, with one
    twist: the hot paths live in libraries that never see a harness
    options record, so the profiler is ambient — {!install} puts one
    [t] in a process-wide slot and every instrumentation site reads it
    through {!enter}/{!leave}. With nothing installed, [enter] is a
    ref read plus a match returning a constant: no allocation, no
    clock or GC reads, and (unlike a sampling profiler) no signal
    machinery — a disabled-profiler run executes the exact same event
    schedule and delivers byte-identical logs.

    Spans nest: each [enter] pushes onto a stack, [leave] pops, and
    the time/allocation of a child is subtracted from the parent's
    *self* numbers, so self columns partition the observed wall time.
    Aggregation is a trie keyed by call path, which is exactly the
    shape flamegraph tooling wants ({!folded}); {!rows} flattens it by
    span name for the hot-span table ({!render_table}). *)

type t

val create :
  ?clock:(unit -> float) -> ?alloc_bytes:(unit -> float) -> unit -> t
(** [clock] defaults to [Unix.gettimeofday] (seconds). [alloc_bytes]
    defaults to an exact count of the bytes allocated so far: the unboxed
    [Gc.minor_words], which includes the current minor arena, plus the
    words allocated directly in the major heap (blocks over
    [Max_young_wosize] words). Both defaults are read without boxing.
    ([Gc.allocated_bytes] counts the minor arena only after the next
    minor collection, so a span's reading would jump by up to an arena.)
    Both are injectable for deterministic tests. Creation snapshots
    [Gc.quick_stat] as the {!gc_summary} baseline. *)

val span_words : int
(** The words a span's own bookkeeping adds to its self allocation
    under the default counter: [enter] reads the counter and then
    allocates the span's window, frame, stack cell and handle. So a span
    around code that allocates [k] words reads [k + span_words] words of
    self allocation, whatever the minor heap held. *)

val install : t -> unit
(** Make [t] the ambient profiler every {!enter} site reports to.
    Replaces any previously installed profiler. *)

val uninstall : unit -> unit

val installed : unit -> t option

(** {2 Instrumentation} *)

type span
(** A handle returned by {!enter}; pass it to the matching {!leave}.
    When no profiler is installed the handle is a shared constant. *)

val enter : string -> span
(** Open a span. [name] should be a static string (it keys the
    aggregation tables). Near-zero cost when nothing is installed. *)

val leave : span -> unit
(** Close a span. Closing out of order (not the innermost open span)
    is counted in {!unbalanced} and otherwise ignored. *)

val leave_reraise : span -> exn -> 'a
(** [leave_reraise sp e] closes [sp] and re-raises [e] with its
    original backtrace. Exception path for open-coded spans — without
    it, an exception between {!enter} and {!leave} strands a frame on
    the ambient stack and every later span mis-nests under it:
    {[
      let sp = Prof.enter "x" in
      (try body with e -> Prof.leave_reraise sp e);
      Prof.leave sp
    ]} *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] wraps [f] in a span, exception-safely. Convenience
    for non-hot call sites; hot paths use {!enter}/{!leave} directly. *)

val depth : t -> int
(** Currently open spans — 0 between well-balanced regions. *)

val unbalanced : t -> int
(** Number of {!leave}s that did not match the innermost open span. *)

(** {2 Results} *)

type row = {
  r_name : string;
  r_count : int;
  r_total_s : float;  (** inclusive wall seconds *)
  r_self_s : float;  (** exclusive wall seconds (children subtracted) *)
  r_alloc_bytes : float;  (** inclusive allocated bytes *)
  r_self_alloc_bytes : float;
  r_samples : float list;
      (** bounded per-call duration sample, seconds: a deterministic
          uniform reservoir (Algorithm R, capacity 2048) over every
          call, not the first N — percentiles computed from it reflect
          the whole run, warmup and steady state alike *)
}

val rows : t -> row list
(** Flat per-name aggregation over the call-path trie, sorted by self
    time descending. Same-name spans at different paths merge. *)

val observed_s : t -> float
(** Wall seconds under top-level (outermost) spans. *)

val coverage : t -> float
(** Fraction of {!observed_s} attributed below the top-level spans,
    i.e. [1 - self(top-level)/total(top-level)]; 0 when nothing was
    observed. With a single root span wrapping a run, this is the
    share of the run's wall time the instrumented spans explain. *)

val render_table : ?top:int -> t -> string
(** Hot-span table (default top 16 by self time) plus a coverage
    footer. *)

val folded : t -> string
(** Folded-stacks output, one line per call path:
    ["run;engine.dispatch;dag.add 1234"] where the value is the
    path's self time in microseconds — directly consumable by
    [flamegraph.pl] / [inferno-flamegraph]. Deterministic order. *)

type gc_summary = {
  gc_minor_collections : int;  (** since profiler creation *)
  gc_major_collections : int;
  gc_promoted_words : float;
  gc_top_heap_words : int;  (** absolute high-water mark *)
  gc_allocated_bytes : float;  (** since profiler creation *)
}

val gc_summary : t -> gc_summary

val render_gc : gc_summary -> string
