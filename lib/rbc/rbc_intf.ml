(** Shared vocabulary of the reliable-broadcast abstraction (paper §2).

    Each sender [p_k] calls [r_bcast_k (m, r)]; every process eventually
    outputs [r_deliver_i (m, r, p_k)] with the abstraction's Agreement /
    Integrity / Validity guarantees. Implementations are message-type
    specific, but all expose the same [create]/[bcast] shape so the DAG
    layer can be instantiated with any of them (Table 1 rows), and all
    keep their instances in one {!Rows} store whose horizon the DAG
    layer's garbage collection raises ([prune_below]). *)

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

(** Sets of process ids, used for quorum counting. *)
module Iset = Set.Make (Int)

(** Binary wire-format helpers shared by the protocol codecs. Every
    protocol message has an [encode_msg]/[decode_msg] pair; senders
    charge the exact encoded size, and the codecs carry property tests
    in the suite. *)
module Wire = struct
  let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

  let put_u32 buf v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))

  let put_bytes buf s =
    put_u32 buf (String.length s);
    Buffer.add_string buf s

  let put_bool buf b = put_u8 buf (if b then 1 else 0)

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

  let bits s = 8 * String.length s
end
