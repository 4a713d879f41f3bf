(** Shared vocabulary of the reliable-broadcast abstraction (paper §2).

    Each sender [p_k] calls [r_bcast_k (m, r)]; every process eventually
    outputs [r_deliver_i (m, r, p_k)] with the abstraction's Agreement /
    Integrity / Validity guarantees. Implementations are message-type
    specific, but all expose the same [create]/[bcast] shape so the DAG
    layer can be instantiated with any of them (Table 1 rows), and all
    keep their instances in one {!Rows} store whose horizon the DAG
    layer's garbage collection raises ([prune_below]). Every backend
    counts an instance's Echo and Ready votes in one {!Tally}: the
    instance's first key (payload, digest or Merkle commit) and its
    voter bitsets inline, the rare other keys in a chain. *)

type deliver = payload:string -> round:int -> source:int -> unit
(** Upcall invoked exactly once per (source, round) instance. *)

(** Wire-size accounting shared by the implementations: every message is
    charged a fixed header (tags, identifiers, round numbers) plus its
    variable-size payload in bits. *)

let header_bits = 128

let payload_bits s = 8 * String.length s

let digest_bits = 256

(** Per-round instance store shared by the three backends: the [Dag]
    row shape. An instance is identified by its origin and round; the
    instances of one round sit in one row, an [instance option array]
    indexed by origin, and the row used last is cached, so a message
    usually costs one compare and one array read.

    The store has a horizon, the garbage-collection bound of the process
    that owns it. A message naming an origin outside [\[0, n)] or a round
    below the horizon opens nothing: [find_or_open] returns [None] and
    counts a drop. [prune_below] raises the horizon and drops whole rows.
    Rows are keyed by round in a hash table, so a round far above the
    others costs one row, not the rows in between. *)
module Rows = struct
  type 'a t = {
    n : int;
    make : unit -> 'a;
    rows : (int, 'a option array) Hashtbl.t;
    mutable last_round : int; (* [-1]: empty cache (rounds are >= 0) *)
    mutable last_row : 'a option array;
    mutable horizon : int;
    mutable held : int;
    mutable dropped : int;
  }

  let create ~n ~make =
    { n;
      make;
      rows = Hashtbl.create 64;
      last_round = -1;
      last_row = [||];
      horizon = 0;
      held = 0;
      dropped = 0 }

  let row t round =
    if round = t.last_round then t.last_row
    else begin
      let row =
        match Hashtbl.find_opt t.rows round with
        | Some row -> row
        | None ->
          let row = Array.make t.n None in
          Hashtbl.add t.rows round row;
          row
      in
      t.last_round <- round;
      t.last_row <- row;
      row
    end

  (* returns the stored option itself, so a hit allocates nothing *)
  let find_or_open t ~origin ~round =
    if origin < 0 || origin >= t.n || round < t.horizon then begin
      t.dropped <- t.dropped + 1;
      None
    end
    else begin
      let row = row t round in
      match row.(origin) with
      | Some _ as found -> found
      | None ->
        let opened = Some (t.make ()) in
        row.(origin) <- opened;
        t.held <- t.held + 1;
        opened
    end

  let prune_below t ~round =
    if round > t.horizon then begin
      t.horizon <- round;
      Hashtbl.filter_map_inplace
        (fun r row ->
          if r >= round then Some row
          else begin
            Array.iter
              (fun i -> if Option.is_some i then t.held <- t.held - 1)
              row;
            None
          end)
        t.rows;
      if t.last_round < round then begin
        t.last_round <- -1;
        t.last_row <- [||]
      end
    end

  let open_instances t = t.held
  let dropped_below_horizon t = t.dropped
end

(** Per-instance quorum tally shared by the three backends: who echoed
    and who sent Ready, per key. A key is a byte string and an int: the
    Bracha payload and 0, the Gossip digest and 0, or the AVID Merkle
    root and [data_len]. In the common case an instance only ever sees
    one key, so the tally record is its first key: the key, both voter
    sets, both counts and the per-key state sit inline, and a vote costs
    a physical-equality compare and a bit test. A lookup compares with
    [==], then [String.equal], then the int; it computes no hash and
    allocates no key. Further keys are records of the same shape chained
    through [next] in the order they were first added.

    A voter set is the low word ([Sys.int_size] voters, [0 .. 62] on a
    64-bit host) inline, and one more word per [Sys.int_size] voters in
    [high], which interleaves the echo and ready words and is the shared
    empty array when [n <= Sys.int_size]. One path serves every [n]. A
    voter is counted once per key and kind, so link duplicates are
    idempotent.

    Bound: a key is added only by {!find_or_add}, which the backends
    call for a counted vote, a verified AVID fragment or a stored Gossip
    variant, so each extra key costs one message from some sender, and
    the keys die with their instance's row ({!Rows.prune_below}). A
    lookup walks the chain, so each key a flooding sender adds costs one
    compare in every later lookup of a key behind it, and none in a
    lookup of the inline first key. *)
module Tally = struct
  type kind = Echo | Ready

  type 'a t = {
    mutable id : string; (* [unset] until the first key is added *)
    mutable len : int;
    mutable state : 'a;
    empty : 'a; (* the state of a key when it is added *)
    mutable echo_low : int;
    mutable ready_low : int;
    mutable echoes : int;
    mutable readies : int;
    high : int array;
    mutable next : 'a t option;
  }

  (* physically distinct from every key a caller passes *)
  let unset = Bytes.to_string (Bytes.make 1 '\000')

  let word = Sys.int_size

  let make ~high ~empty ~id ~len =
    { id;
      len;
      state = empty;
      empty;
      echo_low = 0;
      ready_low = 0;
      echoes = 0;
      readies = 0;
      high = Array.make high 0;
      next = None }

  let create ~n ~empty =
    make ~high:(2 * ((max n 1 - 1) / word)) ~empty ~id:unset ~len:0

  let matches k id len = (k.id == id || String.equal k.id id) && k.len = len

  (* the key matching [id, len] or, if none does, the last key *)
  let rec walk k id len =
    match k.next with
    | Some next when not (matches k id len) -> walk next id len
    | _ -> k

  let find t id len =
    let k = walk t id len in
    if t.id != unset && matches k id len then k else raise_notrace Not_found

  let find_or_add t id len =
    if t.id == unset then begin
      t.id <- id;
      t.len <- len;
      t
    end
    else begin
      let k = walk t id len in
      if matches k id len then k
      else begin
        let added = make ~high:(Array.length k.high) ~empty:k.empty ~id ~len in
        k.next <- Some added;
        added
      end
    end

  let count k = function Echo -> k.echoes | Ready -> k.readies

  (* records [voter]'s vote of [kind] for the key; returns the key's
     count of that kind *)
  let vote k kind voter =
    let bit = 1 lsl (voter mod word) in
    let was =
      if voter >= word then begin
        let i =
          (2 * ((voter / word) - 1)) + match kind with Echo -> 0 | Ready -> 1
        in
        let w = k.high.(i) in
        k.high.(i) <- w lor bit;
        w
      end
      else
        match kind with
        | Echo ->
          let w = k.echo_low in
          k.echo_low <- w lor bit;
          w
        | Ready ->
          let w = k.ready_low in
          k.ready_low <- w lor bit;
          w
    in
    match kind with
    | Echo ->
      if was land bit = 0 then k.echoes <- k.echoes + 1;
      k.echoes
    | Ready ->
      if was land bit = 0 then k.readies <- k.readies + 1;
      k.readies

  let rec first_from k p =
    if p k then k
    else
      match k.next with
      | Some k -> first_from k p
      | None -> raise_notrace Not_found

  (* the first key, in the order keys were added, that satisfies [p] *)
  let find_first t p =
    if t.id == unset then raise_notrace Not_found else first_from t p

  (* every key's state back to [empty] *)
  let rec clear_states k =
    k.state <- k.empty;
    Option.iter clear_states k.next
end

(** Sets of process ids, used for quorum counting. *)
module Iset = Set.Make (Int)

(** Binary wire-format helpers shared by the protocol codecs. Every
    protocol message has an [encode_msg]/[decode_msg] pair; senders
    charge the exact encoded size, and the codecs carry property tests
    in the suite.

    An encoder writes its message once, into a {!writer} over a [Bytes]
    of the size the codec's size function gives ([msg_bits]), and
    {!contents} hands those bytes over as the message: no growing
    buffer and no second copy. The size is a contract: a [put] past
    the end, or {!contents} short of it, raises [Invalid_argument], so
    a size function that disagrees with its encoder fails on the first
    message it gets wrong. Integers are big-endian; [put_u32] keeps the
    low 32 bits of its argument. *)
module Wire = struct
  type writer = { out : Bytes.t; mutable pos : int }

  let writer ~bits = { out = Bytes.create (bits / 8); pos = 0 }

  let size_error w =
    invalid_arg
      (Printf.sprintf "Wire: wrote %d bytes of a %d-byte message" w.pos
         (Bytes.length w.out))

  (* reserves [k] bytes; returns where they start *)
  let[@inline] claim w k =
    let at = w.pos in
    w.pos <- at + k;
    if w.pos > Bytes.length w.out then size_error w;
    at

  let put_u8 w v =
    Bytes.unsafe_set w.out (claim w 1) (Char.unsafe_chr (v land 0xFF))

  let put_u32 w v =
    let at = claim w 4 in
    Bytes.unsafe_set w.out at (Char.unsafe_chr ((v lsr 24) land 0xFF));
    Bytes.unsafe_set w.out (at + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set w.out (at + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set w.out (at + 3) (Char.unsafe_chr (v land 0xFF))

  (* [s] as is, with no length before it *)
  let put_raw w s =
    let at = claim w (String.length s) in
    Bytes.unsafe_blit_string s 0 w.out at (String.length s)

  let put_bytes w s =
    put_u32 w (String.length s);
    put_raw w s

  let put_bool w b = put_u8 w (if b then 1 else 0)

  let contents w =
    if w.pos <> Bytes.length w.out then size_error w;
    Bytes.unsafe_to_string w.out

  type reader = { src : string; mutable pos : int }

  exception Bad

  let reader src = { src; pos = 0 }

  let get_u8 r =
    if r.pos >= String.length r.src then raise Bad;
    let v = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let get_u32 r =
    if r.pos + 4 > String.length r.src then raise Bad;
    let b i = Char.code r.src.[r.pos + i] in
    let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    r.pos <- r.pos + 4;
    v

  let get_bytes r =
    let len = get_u32 r in
    if r.pos + len > String.length r.src then raise Bad;
    let s = String.sub r.src r.pos len in
    r.pos <- r.pos + len;
    s

  let get_bool r = get_u8 r <> 0

  let finish r v = if r.pos = String.length r.src then Some v else None

  let decode src f = try f (reader src) with Bad -> None
end
