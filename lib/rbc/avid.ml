open Rbc_intf

type msg =
  | Disperse of {
      round : int;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }
  | Echo of {
      origin : int;
      round : int;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }
  | Ready of { origin : int; round : int; root : string; data_len : int }

let rec put_digests w = function
  | [] -> ()
  | d :: rest ->
    Wire.put_bytes w d;
    put_digests w rest

let put_proof w (proof : Crypto.Merkle.proof) =
  Wire.put_u32 w proof.Crypto.Merkle.leaf_index;
  Wire.put_u32 w (List.length proof.Crypto.Merkle.path);
  put_digests w proof.Crypto.Merkle.path

let get_proof r =
  let leaf_index = Wire.get_u32 r in
  let count = Wire.get_u32 r in
  if count > 64 then raise Wire.Bad;
  let path = List.init count (fun _ -> Wire.get_bytes r) in
  if List.exists (fun d -> String.length d <> 32) path then raise Wire.Bad;
  { Crypto.Merkle.leaf_index; path }

(* [8 * String.length (encode_msg msg)], the size [encode_msg] writes:
   a tag byte, a u32 per integer field, and a u32 length before each
   byte string (the root, the fragment and every proof digest). *)
let msg_bits msg =
  let bytes s = 4 + String.length s in
  let proof_bytes (proof : Crypto.Merkle.proof) =
    List.fold_left (fun acc d -> acc + bytes d) 8 proof.Crypto.Merkle.path
  in
  let len =
    match msg with
    | Disperse { root; frag; proof; _ } ->
      1 + 4 + bytes root + 4 + 4 + bytes frag + proof_bytes proof
    | Echo { root; frag; proof; _ } ->
      1 + 4 + 4 + bytes root + 4 + 4 + bytes frag + proof_bytes proof
    | Ready { root; _ } -> 1 + 4 + 4 + bytes root + 4
  in
  8 * len

let encode_msg msg =
  let w = Wire.writer ~bits:(msg_bits msg) in
  (match msg with
  | Disperse { round; root; data_len; frag_index; frag; proof } ->
    Wire.put_u8 w 1;
    Wire.put_u32 w round;
    Wire.put_bytes w root;
    Wire.put_u32 w data_len;
    Wire.put_u32 w frag_index;
    Wire.put_bytes w frag;
    put_proof w proof
  | Echo { origin; round; root; data_len; frag_index; frag; proof } ->
    Wire.put_u8 w 2;
    Wire.put_u32 w origin;
    Wire.put_u32 w round;
    Wire.put_bytes w root;
    Wire.put_u32 w data_len;
    Wire.put_u32 w frag_index;
    Wire.put_bytes w frag;
    put_proof w proof
  | Ready { origin; round; root; data_len } ->
    Wire.put_u8 w 3;
    Wire.put_u32 w origin;
    Wire.put_u32 w round;
    Wire.put_bytes w root;
    Wire.put_u32 w data_len);
  Wire.contents w

let decode_msg src =
  Wire.decode src (fun r ->
      match Wire.get_u8 r with
      | 1 ->
        let round = Wire.get_u32 r in
        let root = Wire.get_bytes r in
        let data_len = Wire.get_u32 r in
        let frag_index = Wire.get_u32 r in
        let frag = Wire.get_bytes r in
        let proof = get_proof r in
        if String.length root <> 32 then None
        else Wire.finish r (Disperse { round; root; data_len; frag_index; frag; proof })
      | 2 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let root = Wire.get_bytes r in
        let data_len = Wire.get_u32 r in
        let frag_index = Wire.get_u32 r in
        let frag = Wire.get_bytes r in
        let proof = get_proof r in
        if String.length root <> 32 then None
        else
          Wire.finish r
            (Echo { origin; round; root; data_len; frag_index; frag; proof })
      | 3 ->
        let origin = Wire.get_u32 r in
        let round = Wire.get_u32 r in
        let root = Wire.get_bytes r in
        let data_len = Wire.get_u32 r in
        if String.length root <> 32 then None
        else Wire.finish r (Ready { origin; round; root; data_len })
      | _ -> None)

(* A commit's verified fragments, one slot per fragment index, each with
   the Merkle leaf digest computed when it was verified. An empty slot
   holds "" in both arrays (a valid fragment is never empty). [memo]
   keeps the internal node hashes of every proof verified under the
   commit, and the root check at delivery reads them back. *)
type held = {
  frags : string array;
  digests : string array;
  memo : Crypto.Merkle.memo;
  mutable count : int;
}

(* a commit no fragment verified under; never written *)
let no_held =
  { frags = [||];
    digests = [||];
    memo = Crypto.Merkle.memo ~leaf_count:1;
    count = 0 }

(* All quorum state is keyed by the commit, the pair (root, data_len):
   a Byzantine process that lies about either is voting for a different
   commitment and cannot poison the honest one. A commit's [held] is
   the state of its tally key. *)
type instance = {
  mutable echoed : bool;
  mutable ready_sent : bool;
  mutable delivered : bool;
  mutable discarded : bool;
  votes : held Tally.t;
}

type t = {
  net : msg Net.Port.t;
  me : int;
  n : int;
  f : int;
  k : int;
  coder : Crypto.Reed_solomon.coder;
  deliver : deliver;
  instances : instance Rows.t;
  mutable trace : Trace.t option;
}

let set_trace t tr = t.trace <- Some tr

let phase t ~origin ~round p =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr (Trace.Rbc_phase { node = t.me; origin; round; phase = p })

let new_instance n () =
  { echoed = false;
    ready_sent = false;
    delivered = false;
    discarded = false;
    votes = Tally.create ~n ~empty:no_held }

let quorum t = (2 * t.f) + 1
let amplify t = t.f + 1

(* Verify a fragment against the commit and, if it is valid, keep it
   (the first valid fragment per index wins). A fragment byte-equal to
   the one already held at its index reuses that one's leaf digest, so
   only its authentication path is hashed, and through the commit's node
   memo only the nodes no earlier proof produced. A commit's first proof
   is checked with a fresh memo that is kept only if the proof checks:
   a root nobody proved a fragment under holds no state. *)
let accept_fragment t inst ~root ~data_len ~frag_index ~frag ~proof =
  frag_index = proof.Crypto.Merkle.leaf_index
  && frag_index >= 0
  && frag_index < t.n
  && String.length frag
     = Crypto.Reed_solomon.fragment_length t.coder ~data_len
  &&
  let h =
    match Tally.find inst.votes root data_len with
    | key -> key.Tally.state
    | exception Not_found -> no_held
  in
  let digest =
    if h != no_held && String.equal h.frags.(frag_index) frag then
      h.digests.(frag_index)
    else Crypto.Merkle.leaf_digest frag
  in
  let memo =
    if h != no_held then h.memo else Crypto.Merkle.memo ~leaf_count:t.n
  in
  Crypto.Merkle.verify_digest ~memo ~root ~leaf_count:t.n ~digest proof
  && begin
    let h =
      if h != no_held then h
      else begin
        let h =
          { frags = Array.make t.n "";
            digests = Array.make t.n "";
            memo;
            count = 0 }
        in
        (Tally.find_or_add inst.votes root data_len).Tally.state <- h;
        h
      end
    in
    if String.equal h.frags.(frag_index) "" then begin
      h.frags.(frag_index) <- frag;
      h.digests.(frag_index) <- digest;
      h.count <- h.count + 1
    end;
    true
  end

(* An echo that cannot change anything (DESIGN §16): the instance is
   decided, or this process has sent its Ready (so the echo count no
   longer matters), already holds the k fragments that fix the decision,
   and still lacks the Ready quorum whose arrival will decide. With the
   quorum present the echo must be processed: a Disperse stores a
   fragment without trying to deliver, so the next echo is what
   delivers. *)
let echo_is_moot t inst ~root ~data_len =
  inst.delivered || inst.discarded
  || inst.ready_sent
     &&
     match Tally.find inst.votes root data_len with
     | key ->
       key.Tally.state.count >= t.k && Tally.count key Tally.Ready < quorum t
     | exception Not_found -> false

let send_ready t inst ~origin ~round ~root ~data_len =
  if not inst.ready_sent then begin
    inst.ready_sent <- true;
    phase t ~origin ~round "ready";
    let msg = Ready { origin; round; root; data_len } in
    Net.Port.broadcast t.net ~src:t.me ~kind:"avid-ready"
      ~bits:(msg_bits msg) msg
  end

(* [String.equal frag (Bytes.sub_string row 0 len)] without the copy:
   eight bytes per comparison, then the tail byte by byte. *)
let row_equal row ~len frag =
  String.length frag = len
  &&
  let i = ref 0 in
  while
    !i + 8 <= len
    && (String.get_int64_ne frag !i : int64) = Bytes.get_int64_ne row !i
  do
    i := !i + 8
  done;
  while !i < len && String.unsafe_get frag !i = Bytes.unsafe_get row !i do
    incr i
  done;
  !i = len

(* Reconstruct, re-encode and check the committed root: rejects
   Byzantine non-codeword dispersals deterministically, so every correct
   process makes the same deliver/discard decision. It runs in the
   coder's buffers: each row of the codeword is derived into the row
   buffer, a row equal to the held fragment keeps that fragment's leaf
   digest, and any other row is hashed in place; the root check reads
   the held proofs' internal nodes back from the memo. The row digests
   go into [held.digests], which the decision drops anyway. Returns the
   payload, copied out, iff the root matches: no buffer is live once it
   returns, so the deliver upcall may re-enter [bcast]. *)
let check_codeword t held ~root ~data_len =
  match Crypto.Reed_solomon.reconstruct t.coder ~data_len held.frags with
  | exception Invalid_argument _ -> None
  | () ->
    let len = Crypto.Reed_solomon.fragment_length t.coder ~data_len in
    for i = 0 to t.n - 1 do
      let row = Crypto.Reed_solomon.row t.coder i in
      if not (row_equal row ~len held.frags.(i)) then
        held.digests.(i) <- Crypto.Merkle.leaf_digest_sub row ~pos:0 ~len
    done;
    if
      String.equal
        (Crypto.Merkle.root_of_leaf_digests ~memo:held.memo held.digests)
        root
    then Some (Crypto.Reed_solomon.payload t.coder)
    else None

(* [key] is the commit of the message just counted *)
let try_deliver t inst key ~origin ~round =
  let held = key.Tally.state in
  if
    (not inst.delivered) && (not inst.discarded)
    && Tally.count key Tally.Ready >= quorum t
    && held.count >= t.k
  then begin
    (match
       check_codeword t held ~root:key.Tally.id ~data_len:key.Tally.len
     with
    | Some payload ->
      inst.delivered <- true;
      phase t ~origin ~round "deliver";
      t.deliver ~payload ~round ~source:origin
    | None ->
      inst.discarded <- true;
      phase t ~origin ~round "discard");
    (* decided: every later echo is moot (no fragment is verified
       again), so the held fragments and node memos are dead *)
    Tally.clear_states inst.votes
  end

let handle t ~src msg =
  let sp = Prof.enter "rbc.avid.recv" in
  (try
     match msg with
  | Disperse { round; root; data_len; frag_index; frag; proof } -> (
    let origin = src in
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      if
        frag_index = t.me
        && (not inst.echoed)
        && accept_fragment t inst ~root ~data_len ~frag_index ~frag ~proof
      then begin
        inst.echoed <- true;
        phase t ~origin ~round "echo";
        let msg =
          Echo { origin; round; root; data_len; frag_index; frag; proof }
        in
        Net.Port.broadcast t.net ~src:t.me ~kind:"avid-echo"
          ~bits:(msg_bits msg) msg
      end
    | None -> ())
  | Echo { origin; round; root; data_len; frag_index; frag; proof } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      if
        (not (echo_is_moot t inst ~root ~data_len))
        && accept_fragment t inst ~root ~data_len ~frag_index ~frag ~proof
      then begin
        let key = Tally.find_or_add inst.votes root data_len in
        if Tally.vote key Tally.Echo src >= quorum t then
          send_ready t inst ~origin ~round ~root ~data_len;
        try_deliver t inst key ~origin ~round
      end
    | None -> ())
  | Ready { origin; round; root; data_len } -> (
    match Rows.find_or_open t.instances ~origin ~round with
    | Some inst ->
      let key = Tally.find_or_add inst.votes root data_len in
      let count = Tally.vote key Tally.Ready src in
      if count >= amplify t then
        send_ready t inst ~origin ~round ~root ~data_len;
      try_deliver t inst key ~origin ~round
    | None -> ())
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let create_port ~port ~me ~f ~deliver =
  let n = Net.Port.n port in
  let k = f + 1 in
  let t =
    { net = port;
      me;
      n;
      f;
      k;
      coder = Crypto.Reed_solomon.make ~k ~n;
      deliver;
      instances = Rows.create ~n ~make:(new_instance n);
      trace = None }
  in
  Net.Port.register port me (fun ~src msg -> handle t ~src msg);
  t

let disperse t ~round ~frags ~data_len =
  phase t ~origin:t.me ~round "disperse";
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree in
  Array.iteri
    (fun i frag ->
      let proof = Crypto.Merkle.prove tree i in
      let msg = Disperse { round; root; data_len; frag_index = i; frag; proof } in
      Net.Port.send t.net ~src:t.me ~dst:i ~kind:"avid-disperse"
        ~bits:(msg_bits msg) msg)
    frags

let bcast t ~payload ~round =
  let sp = Prof.enter "rbc.avid.bcast" in
  (try
     let frags = Crypto.Reed_solomon.encode t.coder payload in
     disperse t ~round ~frags ~data_len:(String.length payload)
   with e -> Prof.leave_reraise sp e);
  Prof.leave sp

let inject_disperse t ~dsts ~round ~payload =
  let frags = Crypto.Reed_solomon.encode t.coder payload in
  let data_len = String.length payload in
  let tree = Crypto.Merkle.build frags in
  let root = Crypto.Merkle.root tree in
  List.iter
    (fun i ->
      if i >= 0 && i < t.n then begin
        let proof = Crypto.Merkle.prove tree i in
        let msg =
          Disperse { round; root; data_len; frag_index = i; frag = frags.(i); proof }
        in
        Net.Port.send t.net ~src:t.me ~dst:i ~kind:"avid-disperse"
          ~bits:(msg_bits msg) msg
      end)
    dsts

let bcast_inconsistent t ~payload ~round =
  let frags = Crypto.Reed_solomon.encode t.coder payload in
  (* corrupt one parity fragment before committing: the vector is no
     longer a codeword, so the re-encode check must fail everywhere *)
  let last = Array.length frags - 1 in
  frags.(last) <-
    String.map (fun c -> Char.chr (Char.code c lxor 0xFF)) frags.(last);
  disperse t ~round ~frags ~data_len:(String.length payload)

let prune_below t ~round = Rows.prune_below t.instances ~round

let open_instances t = Rows.open_instances t.instances

let dropped_below_horizon t = Rows.dropped_below_horizon t.instances
