(* Transactions are keyed by [Txgen.key], one int per (owner, seqno). *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* the seqno in the low 32 bits; the owner, times an odd constant,
     moves each owner's run of seqnos to its own part of the table *)
  let hash k = k + ((k lsr 32) * 0x9E3779B1)
end)

type t = {
  owner : int;
  max_batch : int;
  max_pending : int option;
  queue : Txgen.tx Queue.t;
  (* every key we have ever seen, for dedup across submit/retire *)
  seen : unit Keys.t;
  inflight : unit Keys.t;
  (* keys ordered elsewhere while still queued here: dropped lazily when
     the queue pops them (a client may submit to several processes) *)
  retired_keys : unit Keys.t;
  mutable submitted : int;
  mutable retired : int;
  mutable rejected : int;
}

let create ?(max_batch = 64) ?max_pending ~owner () =
  { owner;
    max_batch;
    max_pending;
    queue = Queue.create ();
    seen = Keys.create 256;
    inflight = Keys.create 256;
    retired_keys = Keys.create 256;
    submitted = 0;
    retired = 0;
    rejected = 0 }

let key_of (tx : Txgen.tx) = Txgen.key ~owner:tx.owner ~seqno:tx.seqno

let submit t tx =
  let k = key_of tx in
  if Keys.mem t.seen k then false
  else
    match t.max_pending with
    | Some cap when Queue.length t.queue >= cap ->
      (* backpressure: shed without recording the key, so the client may
         retry once the queue drains *)
      t.rejected <- t.rejected + 1;
      false
    | _ ->
      Keys.add t.seen k ();
      Queue.add tx t.queue;
      t.submitted <- t.submitted + 1;
      true

let assemble_block t =
  let rec take acc count =
    if count >= t.max_batch then List.rev acc
    else
      match Queue.take_opt t.queue with
      | None -> List.rev acc
      | Some tx when Keys.mem t.retired_keys (key_of tx) ->
        (* already ordered through another process's block *)
        take acc count
      | Some tx ->
        Keys.replace t.inflight (key_of tx) ();
        take (tx :: acc) (count + 1)
  in
  Txgen.block_of_txs (take [] 0)

let retire_block t block =
  let mine = ref 0 in
  Txgen.iter_keys block (fun owner seqno ->
      let k = Txgen.key ~owner ~seqno in
      if Keys.mem t.inflight k then begin
        Keys.remove t.inflight k;
        incr mine
      end;
      Keys.replace t.retired_keys k ();
      (* remember foreign transactions too: a client that multi-submits
         must not get its transaction ordered twice through us *)
      if not (Keys.mem t.seen k) then Keys.add t.seen k ();
      t.retired <- t.retired + 1);
  !mine

let pending t = Queue.length t.queue

let in_flight t = Keys.length t.inflight

let submitted t = t.submitted

let retired t = t.retired

let rejected t = t.rejected
