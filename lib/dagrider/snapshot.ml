let magic = "DAGSNAP2"

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let get_u32 s pos =
  if pos + 4 > String.length s then None
  else begin
    let b i = Char.code s.[pos + i] in
    Some (((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3, pos + 4))
  end

let dag_to_string dag =
  let vertices = Dag.vertices dag in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_u32 buf (Dag.n dag);
  put_u32 buf (Dag.pruned_below dag);
  put_u32 buf (List.length vertices);
  List.iter
    (fun v ->
      let bytes = Vertex.encode v in
      put_u32 buf v.Vertex.round;
      put_u32 buf v.Vertex.source;
      put_u32 buf (String.length bytes);
      Buffer.add_string buf bytes)
    vertices;
  let body = Buffer.contents buf in
  body ^ Crypto.Sha256.digest_string body

let dag_of_string s =
  let ( let* ) = Result.bind in
  let fail msg = Error msg in
  let* () =
    if String.length s < String.length magic + 12 + 32 then fail "truncated"
    else Ok ()
  in
  let body = String.sub s 0 (String.length s - 32) in
  let checksum = String.sub s (String.length s - 32) 32 in
  let* () =
    if String.equal (Crypto.Sha256.digest_string body) checksum then Ok ()
    else fail "checksum mismatch"
  in
  let* () =
    if String.equal (String.sub body 0 (String.length magic)) magic then Ok ()
    else fail "bad magic"
  in
  let pos = String.length magic in
  let take_u32 pos =
    match get_u32 body pos with
    | Some r -> Ok r
    | None -> fail "truncated header"
  in
  let* n, pos = take_u32 pos in
  let* horizon, pos = take_u32 pos in
  let* count, pos = take_u32 pos in
  let* () = if n > 0 && n <= 4096 then Ok () else fail "implausible n" in
  let dag = Dag.create ~n in
  (* the rounds below the horizon were garbage-collected: edges into
     them count as present, as they did in the saved store *)
  Dag.prune_below dag ~round:horizon;
  let rec load i pos =
    if i = count then
      if pos = String.length body then Ok dag else fail "trailing bytes"
    else
      let* round, pos = take_u32 pos in
      let* source, pos = take_u32 pos in
      let* len, pos = take_u32 pos in
      if pos + len > String.length body then fail "truncated vertex"
      else begin
        let bytes = String.sub body pos len in
        match Vertex.decode ~round ~source bytes with
        | None -> fail (Printf.sprintf "undecodable vertex (%d, %d)" round source)
        | Some v -> (
          match Dag.add dag v with
          | () -> load (i + 1) (pos + len)
          | exception Invalid_argument _ ->
            fail
              (Printf.sprintf "vertex (%d, %d) is not causally closed" round
                 source))
      end
  in
  load 0 pos

let delivered_to_string refs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "DAGDELV1";
  put_u32 buf (List.length refs);
  List.iter
    (fun (r : Vertex.vref) ->
      put_u32 buf r.Vertex.round;
      put_u32 buf r.Vertex.source)
    refs;
  let body = Buffer.contents buf in
  body ^ Crypto.Sha256.digest_string body

let delivered_of_string s =
  let ( let* ) = Result.bind in
  let fail msg = Error msg in
  let* () = if String.length s >= 12 + 32 then Ok () else fail "truncated" in
  let body = String.sub s 0 (String.length s - 32) in
  let checksum = String.sub s (String.length s - 32) 32 in
  let* () =
    if String.equal (Crypto.Sha256.digest_string body) checksum then Ok ()
    else fail "checksum mismatch"
  in
  let* () =
    if String.equal (String.sub body 0 8) "DAGDELV1" then Ok ()
    else fail "bad magic"
  in
  let* count, pos =
    match get_u32 body 8 with Some r -> Ok r | None -> fail "truncated"
  in
  let rec load i pos acc =
    if i = count then
      if pos = String.length body then Ok (List.rev acc)
      else fail "trailing bytes"
    else
      match (get_u32 body pos, get_u32 body (pos + 4)) with
      | Some (round, _), Some (source, pos') ->
        load (i + 1) pos' ({ Vertex.round; source } :: acc)
      | _ -> fail "truncated entry"
  in
  load 0 pos []
