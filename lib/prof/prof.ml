(* bounded per-call duration sample per span name, for percentile
   summaries without retaining one float per call. Algorithm R
   reservoir: every call has probability cap/seen of being retained,
   so the sample stays uniform over the whole run instead of freezing
   on the first [sample_cap] (warmup-biased) calls. The replacement
   index comes from a per-sample deterministic xorshift — same run,
   same sample. *)
let sample_cap = 2048

type sample = {
  mutable sm_seen : int;
  mutable sm_filled : int;
  mutable sm_state : int;
  sm_buf : float array;
}

(* Call-path trie. Each node aggregates every visit to one span name
   reached through one particular stack of enclosing spans; the flat
   per-name view ([rows]) merges nodes by name, the folded-stacks view
   walks paths. *)
type node = {
  nd_name : string;
  nd_children : (string, node) Hashtbl.t;
  mutable nd_last : node option; (* the child entered last *)
  nd_sample : sample; (* shared by every node of this name *)
  mutable nd_count : int;
  nd_sums : sums;
}

(* Float-only records store their fields unboxed, so updating them at
   [leave] allocates nothing. *)
and sums = {
  mutable total : float;
  mutable self : float;
  mutable alloc : float;
  mutable self_alloc : float;
}

let new_sample name =
  { sm_seen = 0;
    sm_filled = 0;
    sm_state = Hashtbl.hash name lor 1;
    sm_buf = Array.make sample_cap 0.0 }

let make_node name sample =
  { nd_name = name;
    nd_children = Hashtbl.create 4;
    nd_last = None;
    nd_sample = sample;
    nd_count = 0;
    nd_sums = { total = 0.0; self = 0.0; alloc = 0.0; self_alloc = 0.0 } }

(* One open span. Child time/alloc accumulate here so the parent's
   self numbers can subtract them at [leave]. *)
type frame = {
  fr_node : node;
  fr_window : window;
}

and window = {
  t0 : float;
  a0 : float;
  mutable child_time : float;
  mutable child_alloc : float;
}

(* [None] reads the built-in counter directly (see [now] and
   [allocated]), so a reading is an unboxed float and boxes nothing *)
type t = {
  clock : (unit -> float) option;
  alloc_bytes : (unit -> float) option;
  root : node; (* virtual; its children are the top-level spans *)
  samples : (string, sample) Hashtbl.t;
  gc0 : Gc.stat;
  alloc0 : float;
  mutable stack : frame list;
  mutable unbalanced : int;
}

external major_direct_words : unit -> (float[@unboxed])
  = "dagrider_prof_major_direct_words_byte" "dagrider_prof_major_direct_words"
[@@noalloc]

let word_bytes = float_of_int (Sys.word_size / 8)

(* Every byte allocated so far. [Gc.minor_words] counts the current
   minor arena too; [Gc.allocated_bytes] counts it only after the next
   minor collection, so its deltas jump by an arena between spans that
   allocate the same. Blocks too large for the minor heap go straight to
   the major heap, which [major_direct_words] counts. *)
let[@inline] exact_allocated_bytes () =
  (Gc.minor_words () +. major_direct_words ()) *. word_bytes

let[@inline] now t =
  match t.clock with None -> Unix.gettimeofday () | Some clock -> clock ()

let[@inline] read_alloc_bytes = function
  | None -> exact_allocated_bytes ()
  | Some alloc_bytes -> alloc_bytes ()

let[@inline] allocated t = read_alloc_bytes t.alloc_bytes

(* the words [enter] allocates after it reads the counter: the window
   (4 floats), the frame, the stack cell and the [On] handle *)
let span_words = 5 + 3 + 3 + 3

let create ?clock ?alloc_bytes () =
  { clock;
    alloc_bytes;
    root =
      (* never left, so it records no samples *)
      make_node "" { sm_seen = 0; sm_filled = 0; sm_state = 1; sm_buf = [||] };
    samples = Hashtbl.create 32;
    gc0 = Gc.quick_stat ();
    alloc0 = read_alloc_bytes alloc_bytes;
    stack = [];
    unbalanced = 0 }

(* ---- the ambient slot ---- *)

let current : t option ref = ref None

let install t = current := Some t

let uninstall () = current := None

let installed () = !current

(* ---- instrumentation ---- *)

type span = Off | On of t * frame

let enter name =
  match !current with
  | None -> Off
  | Some t ->
    let parent = match t.stack with [] -> t.root | f :: _ -> f.fr_node in
    let node =
      (* a call site passes the same literal each time, so a hot span
         usually matches its parent's last child physically *)
      match parent.nd_last with
      | Some n when n.nd_name == name -> n
      | _ ->
        let n =
          match Hashtbl.find_opt parent.nd_children name with
          | Some n -> n
          | None ->
            let sample =
              match Hashtbl.find_opt t.samples name with
              | Some s -> s
              | None ->
                let s = new_sample name in
                Hashtbl.add t.samples name s;
                s
            in
            let n = make_node name sample in
            Hashtbl.add parent.nd_children name n;
            n
        in
        parent.nd_last <- Some n;
        n
    in
    (* both counters are read inside the span's own clock window, so
       the cost of reading them is the span's, not its parent's *)
    let t0 = now t in
    let a0 = allocated t in
    let fr =
      { fr_node = node;
        fr_window = { t0; a0; child_time = 0.0; child_alloc = 0.0 } }
    in
    t.stack <- fr :: t.stack;
    On (t, fr)

let record_sample s dt =
  s.sm_seen <- s.sm_seen + 1;
  if s.sm_filled < sample_cap then begin
    s.sm_buf.(s.sm_filled) <- dt;
    s.sm_filled <- s.sm_filled + 1
  end
  else begin
    (* xorshift step on OCaml's 63-bit int; state is seeded nonzero *)
    let x = s.sm_state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s.sm_state <- x;
    let j = (x land max_int) mod s.sm_seen in
    if j < sample_cap then s.sm_buf.(j) <- dt
  end

let leave = function
  | Off -> ()
  | On (t, fr) -> (
    match t.stack with
    | top :: rest when top == fr ->
      t.stack <- rest;
      let w = fr.fr_window in
      let da = allocated t -. w.a0 in
      let dt = now t -. w.t0 in
      let n = fr.fr_node in
      n.nd_count <- n.nd_count + 1;
      let sums = n.nd_sums in
      sums.total <- sums.total +. dt;
      sums.self <- sums.self +. (dt -. w.child_time);
      sums.alloc <- sums.alloc +. da;
      sums.self_alloc <- sums.self_alloc +. (da -. w.child_alloc);
      (match rest with
      | parent :: _ ->
        let pw = parent.fr_window in
        pw.child_time <- pw.child_time +. dt;
        pw.child_alloc <- pw.child_alloc +. da
      | [] -> ());
      record_sample n.nd_sample dt
    | _ -> t.unbalanced <- t.unbalanced + 1)

let leave_reraise sp e =
  let bt = Printexc.get_raw_backtrace () in
  leave sp;
  Printexc.raise_with_backtrace e bt

let time name f =
  let sp = enter name in
  Fun.protect ~finally:(fun () -> leave sp) f

let depth t = List.length t.stack

let unbalanced t = t.unbalanced

(* ---- results ---- *)

type row = {
  r_name : string;
  r_count : int;
  r_total_s : float;
  r_self_s : float;
  r_alloc_bytes : float;
  r_self_alloc_bytes : float;
  r_samples : float list;
}

let sorted_children node =
  Hashtbl.fold (fun _ n acc -> n :: acc) node.nd_children []
  |> List.sort (fun a b -> compare a.nd_name b.nd_name)

let rec iter_nodes f path node =
  let path = if node.nd_name = "" then path else node.nd_name :: path in
  if node.nd_name <> "" then f (List.rev path) node;
  List.iter (iter_nodes f path) (sorted_children node)

let rows t =
  let by_name : (string, row) Hashtbl.t = Hashtbl.create 32 in
  iter_nodes
    (fun _path n ->
      let prev =
        match Hashtbl.find_opt by_name n.nd_name with
        | Some r -> r
        | None ->
          { r_name = n.nd_name;
            r_count = 0;
            r_total_s = 0.0;
            r_self_s = 0.0;
            r_alloc_bytes = 0.0;
            r_self_alloc_bytes = 0.0;
            r_samples = [] }
      in
      Hashtbl.replace by_name n.nd_name
        { prev with
          r_count = prev.r_count + n.nd_count;
          r_total_s = prev.r_total_s +. n.nd_sums.total;
          r_self_s = prev.r_self_s +. n.nd_sums.self;
          r_alloc_bytes = prev.r_alloc_bytes +. n.nd_sums.alloc;
          r_self_alloc_bytes = prev.r_self_alloc_bytes +. n.nd_sums.self_alloc })
    [] t.root;
  let rows = Hashtbl.fold (fun _ r acc -> r :: acc) by_name [] in
  let rows =
    List.map
      (fun r ->
        match Hashtbl.find_opt t.samples r.r_name with
        | None -> r
        | Some s ->
          { r with
            r_samples =
              Array.to_list (Array.sub s.sm_buf 0 s.sm_filled) })
      rows
  in
  List.sort
    (fun a b ->
      match compare b.r_self_s a.r_self_s with
      | 0 -> compare a.r_name b.r_name
      | c -> c)
    rows

let top_level_totals t =
  List.fold_left
    (fun (total, self) n -> (total +. n.nd_sums.total, self +. n.nd_sums.self))
    (0.0, 0.0) (sorted_children t.root)

let observed_s t = fst (top_level_totals t)

let coverage t =
  let total, self = top_level_totals t in
  if total <= 0.0 then 0.0 else 1.0 -. (self /. total)

let render_table ?(top = 16) t =
  let buf = Buffer.create 1024 in
  let observed = observed_s t in
  let pct x = if observed <= 0.0 then 0.0 else 100.0 *. x /. observed in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %10s %10s %6s %10s %10s %12s\n" "span" "calls"
       "self(s)" "self%" "total(s)" "alloc(MB)" "self(B/call)");
  let shown = ref 0 in
  List.iter
    (fun r ->
      if !shown < top then begin
        incr shown;
        Buffer.add_string buf
          (Printf.sprintf "%-24s %10d %10.4f %5.1f%% %10.4f %10.2f %12.0f\n"
             r.r_name r.r_count r.r_self_s (pct r.r_self_s) r.r_total_s
             (r.r_alloc_bytes /. 1e6)
             (r.r_self_alloc_bytes /. float_of_int (max 1 r.r_count)))
      end)
    (rows t);
  Buffer.add_string buf
    (Printf.sprintf
       "observed %.4fs under top-level spans; %.1f%% attributed below them\n"
       observed (100.0 *. coverage t));
  if t.unbalanced > 0 then
    Buffer.add_string buf
      (Printf.sprintf "WARNING: %d unbalanced leave(s)\n" t.unbalanced);
  Buffer.contents buf

let folded t =
  let buf = Buffer.create 1024 in
  iter_nodes
    (fun path n ->
      let us = int_of_float (Float.round (n.nd_sums.self *. 1e6)) in
      if n.nd_count > 0 && us > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%s %d\n" (String.concat ";" path) us))
    [] t.root;
  Buffer.contents buf

(* ---- GC ---- *)

type gc_summary = {
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_promoted_words : float;
  gc_top_heap_words : int;
  gc_allocated_bytes : float;
}

let gc_summary t =
  let g = Gc.quick_stat () in
  { gc_minor_collections = g.minor_collections - t.gc0.minor_collections;
    gc_major_collections = g.major_collections - t.gc0.major_collections;
    gc_promoted_words = g.promoted_words -. t.gc0.promoted_words;
    gc_top_heap_words = g.top_heap_words;
    gc_allocated_bytes = allocated t -. t.alloc0 }

let render_gc g =
  Printf.sprintf
    "gc: %.2f MB allocated, %d minor / %d major collections, %.2f MB \
     promoted, top heap %.2f MB\n"
    (g.gc_allocated_bytes /. 1e6)
    g.gc_minor_collections g.gc_major_collections
    (g.gc_promoted_words *. float_of_int (Sys.word_size / 8) /. 1e6)
    (float_of_int g.gc_top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1e6)
