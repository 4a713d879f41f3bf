(* Test-only reference for Dagrider.Node's vertex buffer (Algorithm 2,
   lines 6-9): the list and [List.partition] drain loop the node ran
   before its buffer became an array, with the [List.for_all] edge check
   [Dag.can_add] ran then. Each pass fixes which vertices are ready
   before it adds any, then adds them in buffer order, newest first.
   test_node.ml feeds a node and this reference the same deliveries and
   compares insertion order, weak edges and buffer size. *)

module V = Dagrider.Vertex
module Dag = Dagrider.Dag

type t = {
  dag : Dag.t;
  mutable buffer : V.t list; (* newest first *)
  mutable added : V.vref list; (* newest first *)
}

(* a store pruned below [horizon], as a node restored at that horizon *)
let create ~n ~horizon =
  let dag = Dag.create ~n in
  Dag.prune_below dag ~round:horizon;
  { dag; buffer = []; added = [] }

let can_add t (v : V.t) =
  let edge_ok (e : V.vref) =
    e.round < v.round && (Dag.contains t.dag e || e.round < Dag.pruned_below t.dag)
  in
  List.for_all edge_ok v.strong_edges && List.for_all edge_ok v.weak_edges

let drain t =
  let progressed = ref true in
  while !progressed do
    progressed := false;
    let ready, waiting = List.partition (can_add t) t.buffer in
    if ready <> [] then begin
      List.iter
        (fun v ->
          let vref = V.vref_of v in
          if not (Dag.contains t.dag vref) then begin
            Dag.add t.dag v;
            (* [add] drops a vertex of a garbage-collected round *)
            if Dag.contains t.dag vref then t.added <- vref :: t.added
          end)
        ready;
      t.buffer <- waiting;
      progressed := true
    end
  done

(* a vertex reliable broadcast delivered and validation accepted *)
let deliver t v =
  if not (Dag.contains t.dag (V.vref_of v)) then begin
    t.buffer <- v :: t.buffer;
    drain t
  end

(* a synced vertex enough responders vouched for: admitted unless its
   slot is taken or an identical copy waits in the buffer *)
let admit t v =
  let copy b = V.vref_of b = V.vref_of v && V.digest b = V.digest v in
  if not (Dag.contains t.dag (V.vref_of v) || List.exists copy t.buffer) then begin
    t.buffer <- v :: t.buffer;
    drain t
  end

let insertion_order t = List.rev t.added

let buffered t = List.length t.buffer
