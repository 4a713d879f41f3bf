type tx = { owner : int; seqno : int; body : string }

(* Serialization avoids the record separator \x1e inside fields by
   construction: owner/seqno are decimal and the body is alphanumeric. *)
let field_sep = '\x1f'
let record_sep = '\x1e'

(* Every rendering below is written once into a buffer of its exact
   size: [tx_length] is [String.length (tx_to_string tx)]. *)
let tx_length (tx : tx) =
  Stdx.Decimal.length tx.owner + 1 + Stdx.Decimal.length tx.seqno + 1
  + String.length tx.body

(* writes [tx_to_string tx] at [pos]; returns where it ends *)
let write_tx b pos (tx : tx) =
  let pos = Stdx.Decimal.write b ~pos tx.owner in
  Bytes.set b pos field_sep;
  let pos = Stdx.Decimal.write b ~pos:(pos + 1) tx.seqno in
  Bytes.set b pos field_sep;
  Bytes.blit_string tx.body 0 b (pos + 1) (String.length tx.body);
  pos + 1 + String.length tx.body

let tx_to_string tx =
  let b = Bytes.create (tx_length tx) in
  ignore (write_tx b 0 tx : int);
  Bytes.unsafe_to_string b

(* A transaction's key fields are canonical decimals: what
   [string_of_int] prints for an owner below 2^30 or a seqno below 2^32,
   so [owner lsl 32 lor seqno] names one transaction and one rendering. *)
let owner_limit = 1 lsl 30
let seqno_limit = 1 lsl 32

let key ~owner ~seqno =
  if owner < 0 || owner >= owner_limit || seqno < 0 || seqno >= seqno_limit
  then invalid_arg "Txgen.key: owner or seqno out of range";
  (owner lsl 32) lor seqno

(* The one parser behind [tx_of_string], [block_txs] and [iter_keys]: a
   single pass over [s] that calls [k owner seqno body stop] for each
   record "<owner>\x1f<seqno>\x1f<body>" that is a transaction, its body
   being [s.[body..stop)] and free of [field_sep]. With [split],
   [record_sep] ends a record and the next one starts after it (a
   block); without, all of [s] is one record. A key field must be a
   canonical decimal below its limit: no sign, no leading zero, at most
   ten digits. The cursor lives in local refs, so a record costs no
   allocation. *)
type part = Owner | Seqno | Body | Rejected

let scan s ~split k =
  let len = String.length s in
  let part = ref Owner (* where the cursor is in its record *)
  and start = ref 0 (* where the current field began *)
  and v = ref 0 (* the current key field's value so far *)
  and owner = ref 0
  and seqno = ref 0
  and i = ref 0 in
  while !i <= len do
    let c = if !i = len then record_sep else String.unsafe_get s !i in
    if c = record_sep && (split || !i = len) then begin
      (match !part with Body -> k !owner !seqno !start !i | _ -> ());
      part := Owner;
      start := !i + 1;
      v := 0
    end
    else begin
      match !part with
      | Body -> if c = field_sep then part := Rejected
      | Rejected -> ()
      | (Owner | Seqno) as key ->
        if c >= '0' && c <= '9' then v := (!v * 10) + (Char.code c - 48)
        else if c <> field_sep then part := Rejected
        else begin
          (* more than ten digits may have wrapped [v]; their count
             rejects them *)
          let digits = !i - !start in
          let limit =
            match key with Owner -> owner_limit | _ -> seqno_limit
          in
          if digits < 1 || digits > 10 || !v >= limit
             || (digits > 1 && String.unsafe_get s !start = '0')
          then part := Rejected
          else begin
            (match key with
            | Owner ->
              owner := !v;
              part := Seqno
            | _ ->
              seqno := !v;
              part := Body);
            start := !i + 1;
            v := 0
          end
        end
    end;
    incr i;
    (* in a body or a rejected record only a separator matters *)
    match !part with
    | Body | Rejected ->
      while
        !i < len
        &&
        let c = String.unsafe_get s !i in
        c <> field_sep && c <> record_sep
      do
        incr i
      done
    | Owner | Seqno -> ()
  done

let tx_of_string s =
  let found = ref None in
  scan s ~split:false (fun owner seqno body stop ->
      found := Some { owner; seqno; body = String.sub s body (stop - body) });
  !found

let tx_bytes ~body_bytes =
  (* "<owner>\x1f<seqno>\x1f<body>" with ~4-digit counters *)
  body_bytes + 12

type gen = { owner : int; body_bytes : int; mutable seqno : int }

let gen ~owner ~body_bytes = { owner; body_bytes; seqno = 0 }

(* "t<owner>.<seqno>." padded with 'a' to [body_bytes] *)
let synth_body g =
  let tag = Stdx.Decimal.length g.owner + Stdx.Decimal.length g.seqno + 3 in
  let b = Bytes.create (max tag g.body_bytes) in
  Bytes.set b 0 't';
  let pos = Stdx.Decimal.write b ~pos:1 g.owner in
  Bytes.set b pos '.';
  let pos = Stdx.Decimal.write b ~pos:(pos + 1) g.seqno in
  Bytes.set b pos '.';
  Bytes.fill b (pos + 1) (Bytes.length b - pos - 1) 'a';
  Bytes.unsafe_to_string b

let next_tx g =
  let tx = { owner = g.owner; seqno = g.seqno; body = synth_body g } in
  g.seqno <- g.seqno + 1;
  tx

let produced g = g.seqno

(* A block is its transactions joined by [record_sep]: no transactions
   give "", and [count] of them take [count - 1] separators. *)
let block_of_array txs ~count =
  if count <= 0 then ""
  else begin
    let size = ref (-1) in
    for i = 0 to count - 1 do
      size := !size + 1 + tx_length txs.(i)
    done;
    let b = Bytes.create !size in
    let pos = ref (write_tx b 0 txs.(0)) in
    for i = 1 to count - 1 do
      Bytes.set b !pos record_sep;
      pos := write_tx b (!pos + 1) txs.(i)
    done;
    Bytes.unsafe_to_string b
  end

let block_of_txs txs =
  let txs = Array.of_list txs in
  block_of_array txs ~count:(Array.length txs)

let make_block g ~count =
  block_of_txs (List.init count (fun _ -> next_tx g))

let block_txs block =
  let txs = ref [] in
  scan block ~split:true (fun owner seqno body stop ->
      txs := { owner; seqno; body = String.sub block body (stop - body) } :: !txs);
  List.rev !txs

let iter_keys block f =
  scan block ~split:true (fun owner seqno _ _ -> f owner seqno)
