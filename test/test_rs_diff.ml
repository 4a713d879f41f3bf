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

let () =
  Alcotest.run "rs-diff"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_encode; prop_decode; prop_decode_errors ] ) ]
