type tx = { owner : int; seqno : int; body : string }

(* Serialization avoids the record separator \x1e inside fields by
   construction: owner/seqno are decimal and the body is alphanumeric. *)
let field_sep = '\x1f'
let record_sep = '\x1e'

let tx_to_string tx =
  Printf.sprintf "%d%c%d%c%s" tx.owner field_sep tx.seqno field_sep tx.body

(* A transaction's key fields are canonical decimals: what
   [string_of_int] prints for an owner below 2^30 or a seqno below 2^32,
   so [owner lsl 32 lor seqno] names one transaction and one rendering. *)
let owner_limit = 1 lsl 30
let seqno_limit = 1 lsl 32

let key ~owner ~seqno =
  if owner < 0 || owner >= owner_limit || seqno < 0 || seqno >= seqno_limit
  then invalid_arg "Txgen.key: owner or seqno out of range";
  (owner lsl 32) lor seqno

(* the first [c] in [s.[i..hi)], or [hi] *)
let rec find s c i hi =
  if i >= hi || String.unsafe_get s i = c then i else find s c (i + 1) hi

(* the value of the canonical decimal field [s.[lo..hi)] if it is below
   [limit], else -1: no sign, no leading zero, at most ten digits *)
let field s lo hi limit =
  let len = hi - lo in
  if len < 1 || len > 10 || (len > 1 && String.unsafe_get s lo = '0') then -1
  else begin
    let v = ref 0 in
    let i = ref lo in
    while !i < hi && !v >= 0 do
      let c = String.unsafe_get s !i in
      if c >= '0' && c <= '9' then v := (!v * 10) + (Char.code c - 48)
      else v := -1;
      incr i
    done;
    if !v < limit then !v else -1
  end

(* The key [owner lsl 32 lor seqno] of the record [s.[lo..hi)] if it is a
   transaction ("<owner>\x1f<seqno>\x1f<body>", the body free of
   [field_sep]), else -1. The one parser behind [tx_of_string] and
   [iter_keys]. *)
let record_key s lo hi =
  let a = find s field_sep lo hi in
  let b = find s field_sep (a + 1) hi in
  if b >= hi || find s field_sep (b + 1) hi < hi then -1
  else
    let owner = field s lo a owner_limit in
    let seqno = field s (a + 1) b seqno_limit in
    if owner < 0 || seqno < 0 then -1 else (owner lsl 32) lor seqno

let tx_of_string s =
  let len = String.length s in
  let key = record_key s 0 len in
  if key < 0 then None
  else
    let body = find s field_sep (find s field_sep 0 len + 1) len + 1 in
    Some
      { owner = key lsr 32;
        seqno = key land (seqno_limit - 1);
        body = String.sub s body (len - body) }

let tx_bytes ~body_bytes =
  (* "<owner>\x1f<seqno>\x1f<body>" with ~4-digit counters *)
  body_bytes + 12

type gen = { owner : int; body_bytes : int; mutable seqno : int }

let gen ~owner ~body_bytes = { owner; body_bytes; seqno = 0 }

let synth_body g =
  let tag = Printf.sprintf "t%d.%d." g.owner g.seqno in
  if String.length tag >= g.body_bytes then tag
  else tag ^ String.make (g.body_bytes - String.length tag) 'a'

let next_tx g =
  let tx = { owner = g.owner; seqno = g.seqno; body = synth_body g } in
  g.seqno <- g.seqno + 1;
  tx

let produced g = g.seqno

let block_of_txs txs =
  String.concat (String.make 1 record_sep) (List.map tx_to_string txs)

let make_block g ~count =
  block_of_txs (List.init count (fun _ -> next_tx g))

let block_txs block =
  if String.length block = 0 then []
  else
    List.filter_map tx_of_string (String.split_on_char record_sep block)

let iter_keys block f =
  let len = String.length block in
  let rec go lo =
    let hi = find block record_sep lo len in
    let key = record_key block lo hi in
    if key >= 0 then f (key lsr 32) (key land (seqno_limit - 1));
    if hi < len then go (hi + 1)
  in
  if len > 0 then go 0
