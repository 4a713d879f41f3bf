(* Differential tests: the table-driven Reed–Solomon kernels against the
   per-byte Lagrange reference in rs_reference.ml. Each case is a pure
   function of its seed. *)

module RS = Crypto.Reed_solomon
module Ref = Rs_reference

let fail fmt = Printf.ksprintf failwith fmt

(* (k, n) shapes: the edges (k = 1, k = n, n = 256) half the time,
   else a random small code. Decode leaves out k = n = 256, where the
   reference's O(k^3) interpolation costs most of a second. *)
let edge_shapes =
  [| (1, 1); (1, 4); (4, 4); (2, 7); (1, 256); (2, 256); (86, 256);
     (256, 256) |]

let decode_shapes = Array.sub edge_shapes 0 (Array.length edge_shapes - 1)

let shape ?(edges = edge_shapes) rng =
  if Stdx.Rng.bool rng then Stdx.Rng.choose rng edges
  else
    let n = Stdx.Rng.int_in_range rng ~lo:1 ~hi:40 in
    (Stdx.Rng.int_in_range rng ~lo:1 ~hi:n, n)

(* lengths 0 and 1, exact multiples of k, and the lengths around them *)
let data rng ~k =
  let len =
    match Stdx.Rng.int rng 4 with
    | 0 -> Stdx.Rng.int rng 2
    | 1 -> k * Stdx.Rng.int_in_range rng ~lo:1 ~hi:4
    | 2 -> (k * Stdx.Rng.int_in_range rng ~lo:1 ~hi:4) + Stdx.Rng.choose rng [| -1; 1 |]
    | _ -> Stdx.Rng.int rng 300
  in
  String.init (max 0 len) (fun _ -> Char.chr (Stdx.Rng.int rng 256))

let outcome f = try Ok (f ()) with Invalid_argument m -> Error m

let prop_encode =
  QCheck.Test.make ~name:"encode = reference" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let k, n = shape rng in
      let d = data rng ~k in
      let got = RS.encode (RS.make ~k ~n) d
      and want = Ref.encode (Ref.make ~k ~n) d in
      if got <> want then
        fail "k=%d n=%d len=%d: fragments differ" k n (String.length d);
      true)

(* At least k distinct fragments in a random order: all parity when the
   code has k parity fragments and the coin says so, else any mix. Some
   cases repeat an index with a garbage copy after the genuine one (the
   first occurrence counts). *)
let pieces rng ~k ~n frags =
  let all_parity = n - k >= k && Stdx.Rng.bool rng in
  let indices =
    if all_parity then
      List.map (fun i -> k + i)
        (Stdx.Rng.sample_without_replacement rng
           ~k:(Stdx.Rng.int_in_range rng ~lo:k ~hi:(n - k)) ~n:(n - k))
    else
      Stdx.Rng.sample_without_replacement rng
        ~k:(Stdx.Rng.int_in_range rng ~lo:k ~hi:n) ~n
  in
  let arr = Array.of_list (List.map (fun i -> (i, frags.(i))) indices) in
  Stdx.Rng.shuffle rng arr;
  let l = Array.to_list arr in
  if Stdx.Rng.int rng 4 = 0 then
    let i, frag = arr.(0) in
    l @ [ (i, String.map (fun c -> Char.chr (Char.code c lxor 0x5a)) frag) ]
  else l

let prop_decode =
  QCheck.Test.make ~name:"decode = reference = input" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let k, n = shape ~edges:decode_shapes rng in
      let d = data rng ~k in
      let c = RS.make ~k ~n and r = Ref.make ~k ~n in
      let ps = pieces rng ~k ~n (RS.encode c d) in
      let data_len = String.length d in
      let got = RS.decode c ~data_len ps and want = Ref.decode r ~data_len ps in
      if got <> want then fail "k=%d n=%d len=%d: differs from reference" k n data_len;
      if got <> d then fail "k=%d n=%d len=%d: differs from input" k n data_len;
      true)

(* Malformed inputs fail the same way: too few distinct fragments, an
   index out of range, a chosen fragment of the wrong length. *)
let prop_decode_errors =
  QCheck.Test.make ~name:"decode errors = reference" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let n = Stdx.Rng.int_in_range rng ~lo:1 ~hi:12 in
      let k = Stdx.Rng.int_in_range rng ~lo:1 ~hi:n in
      let d = data rng ~k in
      let c = RS.make ~k ~n and r = Ref.make ~k ~n in
      let frags = RS.encode c d in
      let ps =
        List.map (fun i -> (i, frags.(i)))
          (Stdx.Rng.sample_without_replacement rng
             ~k:(Stdx.Rng.int_in_range rng ~lo:0 ~hi:n) ~n)
      in
      let ps =
        match Stdx.Rng.int rng 3 with
        | 0 -> (Stdx.Rng.choose rng [| -1; n; n + 5 |], "x") :: ps
        | 1 -> List.map (fun (i, f) -> if i = 0 then (i, f ^ "x") else (i, f)) ps
        | _ -> ps
      in
      let data_len = String.length d in
      outcome (fun () -> RS.decode c ~data_len ps)
      = outcome (fun () -> Ref.decode r ~data_len ps))

(* Row [i] of the codeword in the coder's buffer, as a string. *)
let row_string c ~data_len i =
  Bytes.sub_string (RS.row c i) 0 (RS.fragment_length c ~data_len)

(* The in-place rows: after encode, and after reconstructing from at
   least k held fragments (a random mix, or every fragment with the last
   data fragment's padding bytes garbled, as a Byzantine dispersal may
   send them), row i is byte-equal to fragment i of encode and of the
   reference, and the payload copied out is the input. *)
let prop_rows =
  QCheck.Test.make ~name:"in-place rows = encode = reference" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let k, n = shape rng in
      let d = data rng ~k in
      let data_len = String.length d in
      let c = RS.make ~k ~n in
      let frags = RS.encode c d and want = Ref.encode (Ref.make ~k ~n) d in
      let check stage =
        if RS.payload c <> d then
          fail "k=%d n=%d len=%d: %s payload differs" k n data_len stage;
        for i = 0 to n - 1 do
          let row = row_string c ~data_len i in
          if row <> frags.(i) || row <> want.(i) then
            fail "k=%d n=%d len=%d: %s row %d differs" k n data_len stage i
        done
      in
      check "encoded";
      let held = Array.make n "" in
      if Stdx.Rng.bool rng then
        List.iter (fun (i, frag) -> if held.(i) = "" then held.(i) <- frag)
          (pieces rng ~k ~n frags)
      else begin
        Array.blit frags 0 held 0 n;
        let flen = String.length frags.(0) in
        let pad_from = data_len - ((k - 1) * flen) in
        held.(k - 1) <-
          String.mapi
            (fun j ch ->
              if j >= pad_from then Char.chr (Char.code ch lxor 0xa5) else ch)
            frags.(k - 1)
      end;
      RS.reconstruct c ~data_len held;
      check "reconstructed";
      true)

let () =
  Alcotest.run "rs-diff"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_encode; prop_decode; prop_decode_errors; prop_rows ] ) ]
