(* Test-only reference for Dagrider.Vertex: the encoder the library ran
   before it wrote each vertex once into a string of its exact size (a
   Buffer, then [Buffer.contents]), and the decoder and validator it ran
   before intake stopped allocating. The decoder threads an option tuple
   per u32 through [let*] binds and reverses each edge list; the
   validator appends the edge lists and checks duplicates with
   [List.sort_uniq]. test_dagrider.ml compares the library's
   [encode]/[decode]/[validate] against these, bytes, results and error
   strings alike. *)

module V = Dagrider.Vertex

let encode (v : V.t) =
  let buf = Buffer.create (String.length v.block + 64) in
  let put_u32 x =
    if x < 0 || x > 0xFFFFFFFF then
      invalid_arg "Vertex.encode: value out of u32";
    Buffer.add_char buf (Char.chr ((x lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((x lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((x lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (x land 0xFF))
  in
  put_u32 (String.length v.block);
  Buffer.add_string buf v.block;
  let put_edges (edges : V.vref list) =
    put_u32 (List.length edges);
    List.iter
      (fun (e : V.vref) ->
        put_u32 e.round;
        put_u32 e.source)
      edges
  in
  put_edges v.strong_edges;
  put_edges v.weak_edges;
  Buffer.contents buf

let get_u32 s pos =
  if pos + 4 > String.length s then None
  else begin
    let b i = Char.code s.[pos + i] in
    Some (((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3, pos + 4))
  end

let decode ~round ~source payload =
  let ( let* ) = Option.bind in
  let* block_len, pos = get_u32 payload 0 in
  if pos + block_len > String.length payload then None
  else begin
    let block = String.sub payload pos block_len in
    let pos = pos + block_len in
    let get_edges pos =
      let* count, pos = get_u32 payload pos in
      if count > String.length payload then None
      else begin
        let rec loop i pos acc =
          if i = count then Some (List.rev acc, pos)
          else
            let* r, pos = get_u32 payload pos in
            let* s, pos = get_u32 payload pos in
            loop (i + 1) pos ({ V.round = r; source = s } :: acc)
        in
        loop 0 pos []
      end
    in
    let* strong_edges, pos = get_edges pos in
    let* weak_edges, pos = get_edges pos in
    if pos <> String.length payload then None
    else Some { V.round; source; block; strong_edges; weak_edges }
  end

let validate ~n ~f (v : V.t) =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let edge_ok (e : V.vref) = e.source >= 0 && e.source < n in
  if v.round < 1 then fail "round %d < 1" v.round
  else if v.source < 0 || v.source >= n then fail "source %d out of range" v.source
  else if List.length v.strong_edges < (2 * f) + 1 then
    fail "only %d strong edges, need %d" (List.length v.strong_edges) ((2 * f) + 1)
  else if List.exists (fun (e : V.vref) -> e.round <> v.round - 1) v.strong_edges then
    fail "strong edge not to round %d" (v.round - 1)
  else if List.exists (fun (e : V.vref) -> e.round < 1 || e.round > v.round - 2) v.weak_edges
  then fail "weak edge outside rounds [1, %d]" (v.round - 2)
  else if (not (List.for_all edge_ok v.strong_edges)) || not (List.for_all edge_ok v.weak_edges)
  then fail "edge source out of range"
  else begin
    let all = v.strong_edges @ v.weak_edges in
    let dedup = List.sort_uniq V.compare_vref all in
    if List.length dedup <> List.length all then fail "duplicate edge target"
    else Ok ()
  end
