(* The tuple-keyed mempool and split_on_char block parser that
   Workload.Mempool and Workload.Txgen replaced, kept as the oracle for
   test_workload's differential tests. Its blocks are joined by
   Txgen_reference's String.concat, so an assembled block is checked
   byte for byte against the library's writer. The numeric fields
   follow the canonical rule stated declaratively: a field is accepted
   iff [string_of_int] prints it back and it is in range. *)

type tx = Workload.Txgen.tx

let field s limit =
  match int_of_string_opt s with
  | Some v when v >= 0 && v < limit && string_of_int v = s -> Some v
  | _ -> None

let tx_of_string s =
  match String.split_on_char '\x1f' s with
  | [ owner; seqno; body ] -> (
    match (field owner (1 lsl 30), field seqno (1 lsl 32)) with
    | Some owner, Some seqno -> Some { Workload.Txgen.owner; seqno; body }
    | _ -> None)
  | _ -> None

let block_txs block =
  if String.length block = 0 then []
  else List.filter_map tx_of_string (String.split_on_char '\x1e' block)

type key = int * int (* owner, seqno *)

type t = {
  max_batch : int;
  max_pending : int option;
  queue : tx Queue.t;
  seen : (key, unit) Hashtbl.t;
  inflight : (key, unit) Hashtbl.t;
  retired_keys : (key, unit) Hashtbl.t;
  mutable submitted : int;
  mutable retired : int;
  mutable rejected : int;
}

let create ?(max_batch = 64) ?max_pending () =
  { max_batch;
    max_pending;
    queue = Queue.create ();
    seen = Hashtbl.create 256;
    inflight = Hashtbl.create 256;
    retired_keys = Hashtbl.create 256;
    submitted = 0;
    retired = 0;
    rejected = 0 }

let key_of (tx : tx) = (tx.owner, tx.seqno)

let submit t tx =
  let k = key_of tx in
  if Hashtbl.mem t.seen k then false
  else
    match t.max_pending with
    | Some cap when Queue.length t.queue >= cap ->
      t.rejected <- t.rejected + 1;
      false
    | _ ->
      Hashtbl.add t.seen k ();
      Queue.add tx t.queue;
      t.submitted <- t.submitted + 1;
      true

let assemble_block t =
  let rec take acc count =
    if count >= t.max_batch then List.rev acc
    else
      match Queue.take_opt t.queue with
      | None -> List.rev acc
      | Some tx when Hashtbl.mem t.retired_keys (key_of tx) -> take acc count
      | Some tx ->
        Hashtbl.replace t.inflight (key_of tx) ();
        take (tx :: acc) (count + 1)
  in
  Txgen_reference.block_of_txs (take [] 0)

let retire_block t block =
  let mine = ref 0 in
  List.iter
    (fun tx ->
      let k = key_of tx in
      if Hashtbl.mem t.inflight k then begin
        Hashtbl.remove t.inflight k;
        incr mine
      end;
      Hashtbl.replace t.retired_keys k ();
      if not (Hashtbl.mem t.seen k) then Hashtbl.add t.seen k ();
      t.retired <- t.retired + 1)
    (block_txs block);
  !mine

let pending t = Queue.length t.queue
let in_flight t = Hashtbl.length t.inflight
let submitted t = t.submitted
let retired t = t.retired
let rejected t = t.rejected
