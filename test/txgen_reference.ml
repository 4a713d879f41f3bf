(* Test-only reference for the text Workload.Txgen and
   Harness.Runner.synthetic_block write: the Printf, [^] and
   String.concat renderings the library built before it wrote each
   string once into a buffer of its exact size. test_workload.ml checks
   the library byte for byte against these. *)

let field_sep = '\x1f'
let record_sep = '\x1e'

let tx_to_string (tx : Workload.Txgen.tx) =
  Printf.sprintf "%d%c%d%c%s" tx.owner field_sep tx.seqno field_sep tx.body

let synth_body ~owner ~seqno ~body_bytes =
  let tag = Printf.sprintf "t%d.%d." owner seqno in
  if String.length tag >= body_bytes then tag
  else tag ^ String.make (body_bytes - String.length tag) 'a'

(* the transaction a [Txgen.gen ~owner ~body_bytes] hands out as its
   [seqno]-th *)
let nth_tx ~owner ~body_bytes seqno =
  { Workload.Txgen.owner; seqno; body = synth_body ~owner ~seqno ~body_bytes }

let block_of_txs txs =
  String.concat (String.make 1 record_sep) (List.map tx_to_string txs)

let synthetic_block ~block_bytes ~me ~round =
  let tag = Printf.sprintf "blk:p%d:r%d:" me round in
  if String.length tag >= block_bytes then tag
  else tag ^ String.make (block_bytes - String.length tag) 'x'
