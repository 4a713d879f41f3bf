(* The in-flight set is keyed by [Txgen.key], one int per (owner, seqno);
   the dedup sets are found by owner. *)
module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* the seqno in the low 32 bits; the owner, times an odd constant,
     moves each owner's run of seqnos to its own part of the table *)
  let hash k = k + ((k lsr 32) * 0x9E3779B1)
end)

(* An owner's transactions, by seqno: every one we have ever seen (for
   dedup across submit/retire) and every one ordered. A client numbers
   its transactions densely from 0, so each set is a watermark plus the
   few seqnos above it. *)
type owner_sets = { seen : Stdx.Seqset.t; retired : Stdx.Seqset.t }

type t = {
  owner : int;
  max_batch : int;
  max_pending : int option;
  queue : Txgen.tx Queue.t;
  owners : owner_sets Keys.t; (* an owner, below 2^30, hashes to itself *)
  inflight : unit Keys.t;
  (* the batch being assembled, reused: grows to the largest batch *)
  mutable batch : Txgen.tx array;
  mutable submitted : int;
  mutable retired : int;
  mutable rejected : int;
}

let create ?(max_batch = 64) ?max_pending ~owner () =
  { owner;
    max_batch;
    max_pending;
    queue = Queue.create ();
    owners = Keys.create 16;
    inflight = Keys.create 256;
    batch = [||];
    submitted = 0;
    retired = 0;
    rejected = 0 }

let sets t owner =
  match Keys.find t.owners owner with
  | sets -> sets
  | exception Not_found ->
    let sets =
      { seen = Stdx.Seqset.create (); retired = Stdx.Seqset.create () }
    in
    Keys.add t.owners owner sets;
    sets

let key_of (tx : Txgen.tx) = Txgen.key ~owner:tx.owner ~seqno:tx.seqno

let submit t (tx : Txgen.tx) =
  (* [key_of] rejects an out-of-range owner or seqno *)
  ignore (key_of tx : int);
  let sets = sets t tx.owner in
  if Stdx.Seqset.mem sets.seen tx.seqno then false
  else
    match t.max_pending with
    | Some cap when Queue.length t.queue >= cap ->
      (* backpressure: shed without recording the key, so the client may
         retry once the queue drains *)
      t.rejected <- t.rejected + 1;
      false
    | _ ->
      ignore (Stdx.Seqset.add sets.seen tx.seqno : bool);
      Queue.add tx t.queue;
      t.submitted <- t.submitted + 1;
      true

let add_to_batch t count tx =
  if count = Array.length t.batch then begin
    let grown = Array.make (max 8 (2 * count)) tx in
    Array.blit t.batch 0 grown 0 count;
    t.batch <- grown
  end;
  t.batch.(count) <- tx

(* the batch goes from the queue into [t.batch], then is written once
   into the block *)
let assemble_block t =
  let count = ref 0 in
  while !count < t.max_batch && not (Queue.is_empty t.queue) do
    let tx = Queue.take t.queue in
    (* skip one already ordered through another process's block *)
    if not (Stdx.Seqset.mem (sets t tx.owner).retired tx.seqno) then begin
      Keys.replace t.inflight (key_of tx) ();
      add_to_batch t !count tx;
      incr count
    end
  done;
  Txgen.block_of_array t.batch ~count:!count

let retire_block t block =
  let mine = ref 0 in
  Txgen.iter_keys block (fun owner seqno ->
      let k = Txgen.key ~owner ~seqno in
      if Keys.mem t.inflight k then begin
        Keys.remove t.inflight k;
        incr mine
      end;
      let sets = sets t owner in
      ignore (Stdx.Seqset.add sets.retired seqno : bool);
      (* remember foreign transactions too: a client that multi-submits
         must not get its transaction ordered twice through us *)
      ignore (Stdx.Seqset.add sets.seen seqno : bool);
      t.retired <- t.retired + 1);
  !mine

let pending t = Queue.length t.queue

let in_flight t = Keys.length t.inflight

let retained t =
  Keys.fold
    (fun _ sets acc ->
      acc + 1
      + Stdx.Seqset.above_floor sets.seen
      + Stdx.Seqset.above_floor sets.retired)
    t.owners 0

let submitted t = t.submitted

let retired t = t.retired

let rejected t = t.rejected
