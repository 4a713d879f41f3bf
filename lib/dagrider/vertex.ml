type vref = { round : int; source : int }

type t = {
  round : int;
  source : int;
  block : string;
  strong_edges : vref list;
  weak_edges : vref list;
}

let vref_of v = { round = v.round; source = v.source }

let compare_vref (a : vref) (b : vref) =
  match compare a.round b.round with
  | 0 -> compare a.source b.source
  | c -> c

(* Wire format, all integers as 4-byte big-endian:
   [block_len][block][n_strong][(round,source)*][n_weak][(round,source)*] *)

module Wire = Rbc.Rbc_intf.Wire

let put_u32 w v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Vertex.encode: value out of u32";
  Wire.put_u32 w v

let rec put_edge_list w = function
  | [] -> ()
  | (e : vref) :: rest ->
    put_u32 w e.round;
    put_u32 w e.source;
    put_edge_list w rest

let put_edges w edges =
  put_u32 w (List.length edges);
  put_edge_list w edges

(* the block and the two edge lists, each after its u32 count, written
   once into a string of their exact size *)
let encode v =
  let size =
    4 + String.length v.block
    + (4 + (8 * List.length v.strong_edges))
    + (4 + (8 * List.length v.weak_edges))
  in
  let w = Wire.writer ~bits:(8 * size) in
  put_u32 w (String.length v.block);
  Wire.put_raw w v.block;
  put_edges w v.strong_edges;
  put_edges w v.weak_edges;
  Wire.contents w

(* Intake reads the payload in place: a short read raises [Short],
   which [decode] catches, so nothing is allocated but the vertex. *)
exception Short

let get_u32 s pos =
  if pos + 4 > String.length s then raise_notrace Short;
  (Char.code (String.unsafe_get s pos) lsl 24)
  lor (Char.code (String.unsafe_get s (pos + 1)) lsl 16)
  lor (Char.code (String.unsafe_get s (pos + 2)) lsl 8)
  lor Char.code (String.unsafe_get s (pos + 3))

(* The end of the edge list whose count is at [pos]; [Short] unless the
   whole list lies inside [s]. *)
let edges_end s pos =
  let stop = pos + 4 + (8 * get_u32 s pos) in
  if stop > String.length s then raise_notrace Short;
  stop

(* [count] edges from [pos], in wire order; [edges_end] has checked
   that they lie inside [s]. *)
let[@tail_mod_cons] rec get_edges s pos count =
  if count = 0 then []
  else
    let round = get_u32 s pos in
    let source = get_u32 s (pos + 4) in
    { round; source } :: get_edges s (pos + 8) (count - 1)

(* The offset of the weak-edge count, once the payload is known to be
   exactly a block and two edge lists. *)
let layout payload =
  let strong_at = 4 + get_u32 payload 0 in
  if strong_at > String.length payload then raise_notrace Short;
  let weak_at = edges_end payload strong_at in
  if edges_end payload weak_at <> String.length payload then raise_notrace Short;
  weak_at

let decode ~round ~source payload =
  match layout payload with
  | exception Short -> None
  | weak_at ->
    let block_len = get_u32 payload 0 in
    let strong_at = 4 + block_len in
    Some
      { round;
        source;
        block = String.sub payload 4 block_len;
        strong_edges =
          get_edges payload (strong_at + 4) (get_u32 payload strong_at);
        weak_edges = get_edges payload (weak_at + 4) (get_u32 payload weak_at) }

(* The checks of [validate] walk the edge lists with these top-level
   functions, so the [Ok] path builds no closure. *)
let rec all_in_round round = function
  | [] -> true
  | (e : vref) :: rest -> e.round = round && all_in_round round rest

let rec all_in_rounds ~hi = function
  | [] -> true
  | (e : vref) :: rest -> e.round >= 1 && e.round <= hi && all_in_rounds ~hi rest

let rec sources_below n = function
  | [] -> true
  | (e : vref) :: rest -> e.source >= 0 && e.source < n && sources_below n rest

(* Distinct sources, one bit per source: in an int [mask] when
   [n < Sys.int_size], else in [seen], a [Bytes] of [n] bits. *)
let rec distinct_in_mask mask = function
  | [] -> true
  | (e : vref) :: rest ->
    let bit = 1 lsl e.source in
    mask land bit = 0 && distinct_in_mask (mask lor bit) rest

let rec distinct_in_bytes seen = function
  | [] -> true
  | (e : vref) :: rest ->
    let byte = Bytes.get_uint8 seen (e.source lsr 3) in
    let bit = 1 lsl (e.source land 7) in
    byte land bit = 0
    && begin
      Bytes.set_uint8 seen (e.source lsr 3) (byte lor bit);
      distinct_in_bytes seen rest
    end

let rec no_adjacent_equal = function
  | a :: (b :: _ as rest) -> compare_vref a b <> 0 && no_adjacent_equal rest
  | [] | [ _ ] -> true

(* Strong edges all point into round [round - 1], so they are distinct
   iff their sources are, and no weak edge (rounds [<= round - 2]) can
   equal one of them. *)
let distinct_edges ~n v =
  (if n < Sys.int_size then distinct_in_mask 0 v.strong_edges
   else distinct_in_bytes (Bytes.make ((n + 7) / 8) '\000') v.strong_edges)
  &&
  match v.weak_edges with
  | [] | [ _ ] -> true
  | weak -> no_adjacent_equal (List.sort compare_vref weak)

let validate ~n ~f v =
  if v.round < 1 then Error (Printf.sprintf "round %d < 1" v.round)
  else if v.source < 0 || v.source >= n then
    Error (Printf.sprintf "source %d out of range" v.source)
  else if List.compare_length_with v.strong_edges ((2 * f) + 1) < 0 then
    Error
      (Printf.sprintf "only %d strong edges, need %d"
         (List.length v.strong_edges) ((2 * f) + 1))
  else if not (all_in_round (v.round - 1) v.strong_edges) then
    Error (Printf.sprintf "strong edge not to round %d" (v.round - 1))
  else if not (all_in_rounds ~hi:(v.round - 2) v.weak_edges) then
    Error (Printf.sprintf "weak edge outside rounds [1, %d]" (v.round - 2))
  else if not (sources_below n v.strong_edges && sources_below n v.weak_edges)
  then Error "edge source out of range"
  else if not (distinct_edges ~n v) then Error "duplicate edge target"
  else Ok ()

let digest v =
  Crypto.Sha256.digest_string
    (Printf.sprintf "vertex:%d:%d:" v.round v.source ^ encode v)

let pp fmt v =
  Format.fprintf fmt "v(r=%d,p=%d,|b|=%d,s=%d,w=%d)" v.round v.source
    (String.length v.block)
    (List.length v.strong_edges)
    (List.length v.weak_edges)
