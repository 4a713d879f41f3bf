(* Tests for the crypto substrate: SHA-256 against FIPS 180-4 vectors,
   HMAC against RFC 4231, field/Shamir/coin algebra, GF(256), Reed-
   Solomon, Merkle trees, and the modeled signature scheme. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ---- SHA-256 ---- *)

let hex = Crypto.Sha256.to_hex

let test_sha256_empty () =
  checks "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (Crypto.Sha256.digest_string ""))

let test_sha256_abc () =
  checks "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (Crypto.Sha256.digest_string "abc"))

let test_sha256_448bit () =
  checks "two-block FIPS vector"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex
       (Crypto.Sha256.digest_string
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha256_million_a () =
  checks "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Crypto.Sha256.digest_string (String.make 1_000_000 'a')))

let test_sha256_block_boundaries () =
  (* lengths around the 64-byte block and 56-byte padding boundary: the
     one-shot and incremental interfaces must both give the absolute
     digest of the same [i mod 256] input, pinned from coreutils
     sha256sum (comparing the two paths with each other alone would miss
     a padding bug they share) *)
  List.iter
    (fun (len, expected) ->
      let s = String.init len (fun i -> Char.chr (i mod 256)) in
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.feed ctx s;
      checks (Printf.sprintf "len %d" len) expected
        (hex (Crypto.Sha256.digest_string s));
      checks
        (Printf.sprintf "len %d incremental" len)
        expected
        (hex (Crypto.Sha256.finalize ctx)))
    [ (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
      (54, "675f28acc0b90a72d1c3a570fe83ac565555db358cf01826dc8eefb2bf7ca0f3");
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
      (127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976");
      (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
      (1000, "a8af099bf2e878609558dbf69d8f88f4a31040a8cf84b549a0cfa912f12ffc3f")
    ]

let test_sha256_allocation () =
  (* the kernel works on unboxed native-int words in a shared scratch
     state: one digest of a 200-byte string allocates only its result,
     well under 1 KiB of minor heap *)
  let s = String.make 200 'v' in
  ignore (Crypto.Sha256.digest_string s);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Crypto.Sha256.digest_string s));
  let bytes = int_of_float (Gc.minor_words () -. before) * (Sys.word_size / 8) in
  checkb (Printf.sprintf "%d bytes allocated < 1024" bytes) true (bytes < 1024)

(* A slice hashed in place digests as its copy would, prefix and all,
   at every offset and length around the block boundaries; a slice
   outside the buffer is refused. The Merkle leaf of a slice is the
   leaf of its copy. *)
let test_sha256_digest_sub () =
  let b = Bytes.init 200 (fun i -> Char.chr ((i * 31) mod 256)) in
  List.iter
    (fun (prefix, pos, len) ->
      checks
        (Printf.sprintf "prefix %d, pos %d, len %d" (String.length prefix) pos
           len)
        (Crypto.Sha256.to_hex
           (Crypto.Sha256.digest_string (prefix ^ Bytes.sub_string b pos len)))
        (Crypto.Sha256.to_hex (Crypto.Sha256.digest_sub ~prefix b ~pos ~len)))
    [ ("", 0, 0); ("", 0, 200); ("\x00", 3, 55); ("\x00", 1, 63); ("ab", 7, 64);
      (String.make 70 'p', 0, 130); ("", 199, 1); ("x", 200, 0) ];
  checks "leaf of a slice = leaf of its copy"
    (Crypto.Merkle.leaf_digest (Bytes.sub_string b 5 100))
    (Crypto.Merkle.leaf_digest_sub b ~pos:5 ~len:100);
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises "slice outside the buffer"
        (Invalid_argument "Sha256.digest_sub: slice out of bounds") (fun () ->
          ignore (Crypto.Sha256.digest_sub ~prefix:"" b ~pos ~len)))
    [ (-1, 1); (0, -1); (150, 51); (201, 0); (max_int, 1) ]

let test_sha256_incremental_chunks () =
  let s = String.init 500 (fun i -> Char.chr ((i * 7) mod 256)) in
  let ctx = Crypto.Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 3; 64; 100; 332 ] in
  List.iter
    (fun sz ->
      Crypto.Sha256.feed ctx (String.sub s !pos sz);
      pos := !pos + sz)
    sizes;
  checks "chunked = whole"
    (hex (Crypto.Sha256.digest_string s))
    (hex (Crypto.Sha256.finalize ctx))

let test_sha256_finalize_once () =
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx "x";
  ignore (Crypto.Sha256.finalize ctx);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Crypto.Sha256.finalize ctx))

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  checks "rfc4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Crypto.Sha256.hmac ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  checks "rfc4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Crypto.Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_rfc4231_case6_long_key () =
  let key = String.make 131 '\xaa' in
  checks "rfc4231 #6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Crypto.Sha256.hmac ~key
          "Test Using Larger Than Block-Size Key - Hash Key First"))

(* One-shot digests and hmac share a scratch state; contexts from
   [init] own theirs. Random one-shot calls between the feeds of several
   live contexts must leave every context's digest that of exactly what
   it was fed, and every one-shot result that of a fresh context. *)
let prop_sha256_one_shot_between_feeds =
  QCheck.Test.make ~name:"sha256: one-shot digests leave live contexts intact"
    ~count:200 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Stdx.Rng.create seed in
      let chunk () =
        String.init (Stdx.Rng.int rng 150) (fun _ -> Char.chr (Stdx.Rng.int rng 256))
      in
      let fresh parts =
        let ctx = Crypto.Sha256.init () in
        List.iter (Crypto.Sha256.feed ctx) parts;
        Crypto.Sha256.finalize ctx
      in
      let live = Array.init 3 (fun _ -> (Crypto.Sha256.init (), ref [])) in
      for _ = 1 to 30 do
        match Stdx.Rng.int rng 4 with
        | 0 ->
          let ctx, fed = Stdx.Rng.choose rng live in
          let c = chunk () in
          Crypto.Sha256.feed ctx c;
          fed := c :: !fed
        | 1 ->
          let c = chunk () in
          if Crypto.Sha256.digest_string c <> fresh [ c ] then
            failwith "digest_string"
        | 2 ->
          let a = chunk () and b = chunk () and c = chunk () in
          if Crypto.Sha256.digest_concat3 a b c <> fresh [ a; b; c ] then
            failwith "digest_concat3"
        | _ ->
          let key = chunk () and msg = chunk () in
          let key' = if String.length key > 64 then fresh [ key ] else key in
          let pad c =
            String.init 64 (fun i ->
                let k = if i < String.length key' then Char.code key'.[i] else 0 in
                Char.chr (k lxor c))
          in
          let expected = fresh [ pad 0x5c; fresh [ pad 0x36; msg ] ] in
          if Crypto.Sha256.hmac ~key msg <> expected then failwith "hmac"
      done;
      Array.for_all
        (fun (ctx, fed) ->
          Crypto.Sha256.finalize ctx = Crypto.Sha256.digest_string
                                          (String.concat "" (List.rev !fed)))
        live)

let prop_sha256_injective_on_samples =
  QCheck.Test.make ~name:"sha256: distinct short strings hash distinctly"
    ~count:300
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      a = b
      || Crypto.Sha256.digest_string a <> Crypto.Sha256.digest_string b)

(* ---- GF(256) ---- *)

let elem = QCheck.int_range 0 255
let nonzero = QCheck.int_range 1 255

let prop_gf256_add_assoc =
  QCheck.Test.make ~name:"gf256 add associative/commutative" ~count:300
    QCheck.(triple elem elem elem)
    (fun (a, b, c) ->
      Crypto.Gf256.add a (Crypto.Gf256.add b c)
      = Crypto.Gf256.add (Crypto.Gf256.add a b) c
      && Crypto.Gf256.add a b = Crypto.Gf256.add b a)

let prop_gf256_mul_assoc_comm =
  QCheck.Test.make ~name:"gf256 mul associative/commutative" ~count:300
    QCheck.(triple elem elem elem)
    (fun (a, b, c) ->
      Crypto.Gf256.mul a (Crypto.Gf256.mul b c)
      = Crypto.Gf256.mul (Crypto.Gf256.mul a b) c
      && Crypto.Gf256.mul a b = Crypto.Gf256.mul b a)

let prop_gf256_distributive =
  QCheck.Test.make ~name:"gf256 distributivity" ~count:300
    QCheck.(triple elem elem elem)
    (fun (a, b, c) ->
      Crypto.Gf256.mul a (Crypto.Gf256.add b c)
      = Crypto.Gf256.add (Crypto.Gf256.mul a b) (Crypto.Gf256.mul a c))

let prop_gf256_inverse =
  QCheck.Test.make ~name:"gf256 x * inv x = 1" ~count:255 nonzero (fun x ->
      Crypto.Gf256.mul x (Crypto.Gf256.inv x) = 1)

let prop_gf256_div =
  QCheck.Test.make ~name:"gf256 (a*b)/b = a" ~count:300
    QCheck.(pair elem nonzero)
    (fun (a, b) -> Crypto.Gf256.div (Crypto.Gf256.mul a b) b = a)

let test_gf256_identities () =
  for x = 0 to 255 do
    checki "x + x = 0" 0 (Crypto.Gf256.add x x);
    checki "x * 1 = x" x (Crypto.Gf256.mul x 1);
    checki "x * 0 = 0" 0 (Crypto.Gf256.mul x 0)
  done;
  checki "aes sanity: 0x53 * 0xca = 1" 1 (Crypto.Gf256.mul 0x53 0xca)

let test_gf256_pow () =
  checki "x^0" 1 (Crypto.Gf256.pow 7 0);
  checki "0^0" 1 (Crypto.Gf256.pow 0 0);
  checki "0^5" 0 (Crypto.Gf256.pow 0 5);
  checki "x^3 = x*x*x"
    (Crypto.Gf256.mul 9 (Crypto.Gf256.mul 9 9))
    (Crypto.Gf256.pow 9 3);
  (* Fermat: x^255 = 1 for x <> 0 *)
  for x = 1 to 255 do
    checki "x^255 = 1" 1 (Crypto.Gf256.pow x 255)
  done

let test_gf256_range_check () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Gf256: element out of range") (fun () ->
      ignore (Crypto.Gf256.add 256 0))

let test_gf256_eval_poly () =
  (* p(x) = 3 + 2x over GF(256): p(0)=3, p(1)=1 (3 xor 2) *)
  checki "p(0)" 3 (Crypto.Gf256.eval_poly [| 3; 2 |] 0);
  checki "p(1)" 1 (Crypto.Gf256.eval_poly [| 3; 2 |] 1)

(* ---- Reed-Solomon ---- *)

let test_rs_systematic () =
  let c = Crypto.Reed_solomon.make ~k:2 ~n:4 in
  let data = "abcdef" in
  let frags = Crypto.Reed_solomon.encode c data in
  checki "fragment count" 4 (Array.length frags);
  checks "systematic prefix" "abc" frags.(0);
  checks "systematic suffix" "def" frags.(1)

let test_rs_roundtrip_data_fragments () =
  let c = Crypto.Reed_solomon.make ~k:3 ~n:7 in
  let data = "the quick brown fox jumps over" in
  let frags = Crypto.Reed_solomon.encode c data in
  let got =
    Crypto.Reed_solomon.decode c ~data_len:(String.length data)
      [ (0, frags.(0)); (1, frags.(1)); (2, frags.(2)) ]
  in
  checks "identity from data shards" data got

let test_rs_roundtrip_parity_only () =
  let c = Crypto.Reed_solomon.make ~k:3 ~n:7 in
  let data = "the quick brown fox jumps over" in
  let frags = Crypto.Reed_solomon.encode c data in
  let got =
    Crypto.Reed_solomon.decode c ~data_len:(String.length data)
      [ (4, frags.(4)); (5, frags.(5)); (6, frags.(6)) ]
  in
  checks "identity from parity shards" data got

let test_rs_roundtrip_mixed () =
  let c = Crypto.Reed_solomon.make ~k:4 ~n:10 in
  let data = String.init 97 (fun i -> Char.chr ((i * 13) mod 256)) in
  let frags = Crypto.Reed_solomon.encode c data in
  let got =
    Crypto.Reed_solomon.decode c ~data_len:(String.length data)
      [ (9, frags.(9)); (0, frags.(0)); (5, frags.(5)); (7, frags.(7)) ]
  in
  checks "identity from mixed shards" data got

let test_rs_not_enough_fragments () =
  let c = Crypto.Reed_solomon.make ~k:3 ~n:5 in
  let frags = Crypto.Reed_solomon.encode c "hello world" in
  Alcotest.check_raises "too few"
    (Invalid_argument "Reed_solomon.decode: not enough fragments") (fun () ->
      ignore
        (Crypto.Reed_solomon.decode c ~data_len:11
           [ (0, frags.(0)); (1, frags.(1)) ]))

let test_rs_duplicate_indices_dont_count () =
  let c = Crypto.Reed_solomon.make ~k:3 ~n:5 in
  let frags = Crypto.Reed_solomon.encode c "hello world" in
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Reed_solomon.decode: not enough fragments") (fun () ->
      ignore
        (Crypto.Reed_solomon.decode c ~data_len:11
           [ (0, frags.(0)); (0, frags.(0)); (1, frags.(1)) ]))

let test_rs_empty_payload () =
  let c = Crypto.Reed_solomon.make ~k:2 ~n:4 in
  let frags = Crypto.Reed_solomon.encode c "" in
  checki "nonzero fragment size" 1 (String.length frags.(0));
  checks "empty roundtrip" ""
    (Crypto.Reed_solomon.decode c ~data_len:0 [ (2, frags.(2)); (3, frags.(3)) ])

(* The delivery check's working set: once the coder's buffers are large
   enough, reconstructing from parity fragments alone (so every data
   fragment is interpolated) and deriving every row allocates nothing. *)
let test_rs_rows_allocation () =
  let k = 3 and n = 10 in
  let c = Crypto.Reed_solomon.make ~k ~n in
  let data = String.init 1000 (fun i -> Char.chr ((i * 7) mod 256)) in
  let data_len = String.length data in
  let frags = Crypto.Reed_solomon.encode c data in
  let held = Array.mapi (fun i f -> if i < k then "" else f) frags in
  let check_all () =
    Crypto.Reed_solomon.reconstruct c ~data_len held;
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (Crypto.Reed_solomon.row c i))
    done
  in
  check_all ();
  let before = Gc.minor_words () in
  check_all ();
  let words = int_of_float (Gc.minor_words () -. before) in
  checki "reconstruct and rows allocate 0 words" 0 words;
  checks "and still reconstruct" data (Crypto.Reed_solomon.payload c)

let test_rs_bad_params () =
  Alcotest.check_raises "k > n"
    (Invalid_argument "Reed_solomon.make: need 0 < k <= n <= 256") (fun () ->
      ignore (Crypto.Reed_solomon.make ~k:5 ~n:4))

let prop_rs_any_k_subset =
  QCheck.Test.make ~name:"reed-solomon: every k-subset reconstructs" ~count:60
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 1 200)) (QCheck.int_range 0 1000))
    (fun (data, seed) ->
      let k = 3 and n = 8 in
      let c = Crypto.Reed_solomon.make ~k ~n in
      let frags = Crypto.Reed_solomon.encode c data in
      let rng = Stdx.Rng.create seed in
      let subset = Stdx.Rng.sample_without_replacement rng ~k ~n in
      let pieces = List.map (fun i -> (i, frags.(i))) subset in
      Crypto.Reed_solomon.decode c ~data_len:(String.length data) pieces = data)

(* ---- Merkle ---- *)

let leaves n = Array.init n (fun i -> Printf.sprintf "leaf-%d" i)

let test_merkle_single_leaf () =
  let t = Crypto.Merkle.build [| "only" |] in
  checki "leaf count" 1 (Crypto.Merkle.leaf_count t);
  let proof = Crypto.Merkle.prove t 0 in
  checkb "verifies" true
    (Crypto.Merkle.verify ~root:(Crypto.Merkle.root t) ~leaf_count:1
       ~leaf:"only" proof)

let test_merkle_all_proofs_verify () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let t = Crypto.Merkle.build ls in
      let root = Crypto.Merkle.root t in
      for i = 0 to n - 1 do
        let proof = Crypto.Merkle.prove t i in
        checkb
          (Printf.sprintf "n=%d i=%d" n i)
          true
          (Crypto.Merkle.verify ~root ~leaf_count:n ~leaf:ls.(i) proof)
      done)
    [ 2; 3; 4; 5; 7; 8; 13 ]

let test_merkle_wrong_leaf_rejected () =
  let ls = leaves 7 in
  let t = Crypto.Merkle.build ls in
  let proof = Crypto.Merkle.prove t 3 in
  checkb "tampered leaf" false
    (Crypto.Merkle.verify ~root:(Crypto.Merkle.root t) ~leaf_count:7
       ~leaf:"evil" proof)

let test_merkle_wrong_index_rejected () =
  let ls = leaves 8 in
  let t = Crypto.Merkle.build ls in
  let proof = Crypto.Merkle.prove t 2 in
  let moved = { proof with Crypto.Merkle.leaf_index = 3 } in
  checkb "moved proof" false
    (Crypto.Merkle.verify ~root:(Crypto.Merkle.root t) ~leaf_count:8
       ~leaf:ls.(2) moved)

let test_merkle_wrong_root_rejected () =
  let ls = leaves 4 in
  let t = Crypto.Merkle.build ls in
  let proof = Crypto.Merkle.prove t 0 in
  checkb "wrong root" false
    (Crypto.Merkle.verify ~root:(String.make 32 '\x00') ~leaf_count:4
       ~leaf:ls.(0) proof)

let test_merkle_truncated_path_rejected () =
  let ls = leaves 8 in
  let t = Crypto.Merkle.build ls in
  let proof = Crypto.Merkle.prove t 5 in
  let truncated =
    { proof with Crypto.Merkle.path = List.tl proof.Crypto.Merkle.path }
  in
  checkb "truncated path" false
    (Crypto.Merkle.verify ~root:(Crypto.Merkle.root t) ~leaf_count:8
       ~leaf:ls.(5) truncated)

let test_merkle_roots_differ () =
  let a = Crypto.Merkle.build (leaves 4) in
  let b = Crypto.Merkle.build [| "leaf-0"; "leaf-1"; "leaf-2"; "other" |] in
  checkb "roots differ" false
    (String.equal (Crypto.Merkle.root a) (Crypto.Merkle.root b))

let test_merkle_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: no leaves")
    (fun () -> ignore (Crypto.Merkle.build [||]))

(* Digests pinned from an independent SHA-256 (Python's hashlib) over
   "\x00" ^ leaf and "\x01" ^ left ^ right, odd levels duplicating the
   last node. *)
let test_merkle_pinned_digests () =
  let hex = Crypto.Sha256.to_hex in
  checks "leaf digest"
    "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7"
    (hex (Crypto.Merkle.leaf_digest "leaf-0"));
  checks "root of 5 leaves"
    "aaee56ce5e352748dece183c190368682111de3b1b62c410086ee2d21e25b8a6"
    (hex (Crypto.Merkle.root (Crypto.Merkle.build (leaves 5))));
  (* across the SHA-256 block boundary the prefix byte shifts *)
  List.iter
    (fun len ->
      let p = String.init len (fun i -> Char.chr (i land 0xff)) in
      checks
        (Printf.sprintf "leaf of %d bytes" len)
        (hex (Crypto.Sha256.digest_string ("\x00" ^ p)))
        (hex (Crypto.Merkle.leaf_digest p)))
    [ 0; 1; 54; 55; 56; 63; 64; 65; 127; 128; 1000 ]

let test_merkle_root_of_leaf_digests () =
  for n = 1 to 17 do
    let ls = leaves n in
    checks
      (Printf.sprintf "%d leaves" n)
      (Crypto.Merkle.root (Crypto.Merkle.build ls))
      (Crypto.Merkle.root_of_leaf_digests (Array.map Crypto.Merkle.leaf_digest ls))
  done

(* verify_digest agrees with verify on valid proofs, a tampered path, a
   moved index, a truncated path and an out-of-range index *)
let test_merkle_verify_digest_agrees () =
  for n = 1 to 17 do
    let ls = leaves n in
    let t = Crypto.Merkle.build ls in
    let root = Crypto.Merkle.root t in
    for i = 0 to n - 1 do
      let proof = Crypto.Merkle.prove t i in
      let flip d = String.mapi (fun j c -> if j = 0 then Char.chr (Char.code c lxor 1) else c) d in
      let variants =
        [ ("valid", proof, true);
          ("moved", { proof with Crypto.Merkle.leaf_index = (i + 1) mod n }, n = 1);
          ("out of range", { proof with Crypto.Merkle.leaf_index = n }, false) ]
        @
        match proof.Crypto.Merkle.path with
        | [] -> []
        | sib :: rest ->
          [ ("tampered", { proof with Crypto.Merkle.path = flip sib :: rest }, false);
            ("truncated", { proof with Crypto.Merkle.path = rest }, false) ]
      in
      List.iter
        (fun (what, p, expected) ->
          let name = Printf.sprintf "n=%d i=%d %s" n i what in
          let by_leaf = Crypto.Merkle.verify ~root ~leaf_count:n ~leaf:ls.(i) p in
          checkb name expected by_leaf;
          checkb (name ^ " (digest)") by_leaf
            (Crypto.Merkle.verify_digest ~root ~leaf_count:n
               ~digest:(Crypto.Merkle.leaf_digest ls.(i)) p))
        variants
    done
  done

(* A memo changes no result of [verify_digest] or [root_of_leaf_digests].
   Each case runs a long sequence of calls on one memo, at one leaf count
   in 1..70, over two trees of that size: valid proofs, tampered
   siblings, wrong and out-of-range indices, proofs against the other
   root, garbage paths (digests of any length, "" included, that poison
   the memo's slots) and root rebuilds from true and altered leaf
   digests. Every call must answer as it does without a memo. *)
let prop_merkle_memo_differential =
  QCheck.Test.make ~name:"merkle: memo never changes a result" ~count:300
    QCheck.(pair (int_range 1 70) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Stdx.Rng.create seed in
      let bytes len = String.init len (fun _ -> Char.chr (Stdx.Rng.int rng 256)) in
      let tree () =
        let ls = Array.init n (fun _ -> bytes (Stdx.Rng.int rng 20)) in
        (Crypto.Merkle.build ls, Array.map Crypto.Merkle.leaf_digest ls)
      in
      let trees = [| tree (); tree () |] in
      let memo = Crypto.Merkle.memo ~leaf_count:n in
      let flip d =
        if d = "" then "x"
        else
          let j = Stdx.Rng.int rng (String.length d) in
          String.mapi (fun i c -> if i = j then Char.chr (Char.code c lxor 1) else c) d
      in
      let ok = ref true in
      for _ = 1 to 60 do
        let t, digests = Stdx.Rng.choose rng trees in
        let other, _ = Stdx.Rng.choose rng trees in
        let i = Stdx.Rng.int rng n in
        let proof = Crypto.Merkle.prove t i in
        let path = proof.Crypto.Merkle.path in
        let verify ~root ~digest p =
          let plain = Crypto.Merkle.verify_digest ~root ~leaf_count:n ~digest p in
          let memoised =
            Crypto.Merkle.verify_digest ~memo ~root ~leaf_count:n ~digest p
          in
          if plain <> memoised then ok := false
        in
        let root = Crypto.Merkle.root t and digest = digests.(i) in
        match Stdx.Rng.int rng 7 with
        | 0 | 1 -> verify ~root ~digest proof
        | 2 ->
          let k = Stdx.Rng.int rng (max 1 (List.length path)) in
          let path = List.mapi (fun j d -> if j = k then flip d else d) path in
          verify ~root ~digest { proof with Crypto.Merkle.path }
        | 3 ->
          let leaf_index = Stdx.Rng.int_in_range rng ~lo:(-1) ~hi:n in
          verify ~root ~digest { proof with Crypto.Merkle.leaf_index }
        | 4 -> verify ~root:(Crypto.Merkle.root other) ~digest proof
        | 5 ->
          let path = List.map (fun _ -> bytes (Stdx.Rng.choose rng [| 0; 1; 32 |])) path in
          verify ~root ~digest:(bytes (Stdx.Rng.choose rng [| 0; 32 |]))
            { proof with Crypto.Merkle.path }
        | _ ->
          let ds = Array.copy digests in
          if Stdx.Rng.bool rng then begin
            let j = Stdx.Rng.int rng n in
            ds.(j) <- (if Stdx.Rng.bool rng then flip ds.(j) else "")
          end;
          if
            Crypto.Merkle.root_of_leaf_digests ~memo ds
            <> Crypto.Merkle.root_of_leaf_digests ds
          then ok := false
      done;
      !ok)

(* a fresh memo's empty slots are never taken for a stored node: empty
   children are hashed like any others *)
let test_merkle_memo_empty_children () =
  for n = 1 to 9 do
    let empty = Array.make n "" in
    let root = Crypto.Merkle.root_of_leaf_digests empty in
    checks (Printf.sprintf "root of %d empty digests" n) root
      (Crypto.Merkle.root_of_leaf_digests
         ~memo:(Crypto.Merkle.memo ~leaf_count:n) empty);
    let proof = Crypto.Merkle.prove (Crypto.Merkle.build empty) 0 in
    let path = List.map (fun _ -> "") proof.Crypto.Merkle.path in
    let proof = { Crypto.Merkle.leaf_index = 0; path } in
    checkb (Printf.sprintf "empty path, %d leaves" n)
      (Crypto.Merkle.verify_digest ~root ~leaf_count:n ~digest:"" proof)
      (Crypto.Merkle.verify_digest ~memo:(Crypto.Merkle.memo ~leaf_count:n)
         ~root ~leaf_count:n ~digest:"" proof)
  done

let test_merkle_memo_leaf_count () =
  Alcotest.check_raises "memo for another leaf count"
    (Invalid_argument "Merkle.verify_digest: memo made for another leaf count")
    (fun () ->
      let t = Crypto.Merkle.build (leaves 4) in
      ignore
        (Crypto.Merkle.verify_digest
           ~memo:(Crypto.Merkle.memo ~leaf_count:5)
           ~root:(Crypto.Merkle.root t) ~leaf_count:4
           ~digest:(Crypto.Merkle.leaf_digest "leaf-0")
           (Crypto.Merkle.prove t 0)))

(* ---- Field ---- *)

let field_elem = QCheck.int_range 0 (Crypto.Field.p - 1)

let prop_field_add_inverse =
  QCheck.Test.make ~name:"field a + (-a) = 0" ~count:300 field_elem (fun a ->
      Crypto.Field.add a (Crypto.Field.neg a) = 0)

let prop_field_mul_inverse =
  QCheck.Test.make ~name:"field a * a^-1 = 1" ~count:100
    (QCheck.int_range 1 (Crypto.Field.p - 1))
    (fun a -> Crypto.Field.mul a (Crypto.Field.inv a) = 1)

let prop_field_distributive =
  QCheck.Test.make ~name:"field distributivity" ~count:300
    QCheck.(triple field_elem field_elem field_elem)
    (fun (a, b, c) ->
      Crypto.Field.mul a (Crypto.Field.add b c)
      = Crypto.Field.add (Crypto.Field.mul a b) (Crypto.Field.mul a c))

let test_field_of_int_negative () =
  checki "canonical negative" (Crypto.Field.p - 5) (Crypto.Field.of_int (-5));
  checki "wraps modulus" 1 (Crypto.Field.of_int (Crypto.Field.p + 1))

let test_field_pow () =
  checki "x^0" 1 (Crypto.Field.pow 12345 0);
  checki "fermat" 1 (Crypto.Field.pow 2 (Crypto.Field.p - 1));
  checki "x^3" (Crypto.Field.mul 7 (Crypto.Field.mul 7 7)) (Crypto.Field.pow 7 3)

let test_field_lagrange_constant () =
  (* constant polynomial 42 through three points *)
  checki "constant" 42
    (Crypto.Field.lagrange_at_zero [ (1, 42); (2, 42); (3, 42) ])

let test_field_lagrange_linear () =
  (* p(x) = 10 + 3x: p(1)=13, p(2)=16 -> p(0)=10 *)
  checki "linear" 10 (Crypto.Field.lagrange_at_zero [ (1, 13); (2, 16) ])

let test_field_lagrange_rejects_duplicates () =
  Alcotest.check_raises "dup x"
    (Invalid_argument
       "Field.lagrange_at_zero: x-coordinates must be distinct and non-zero")
    (fun () -> ignore (Crypto.Field.lagrange_at_zero [ (1, 2); (1, 3) ]))

let prop_field_interpolate_matches_eval =
  QCheck.Test.make ~name:"field interpolate_at recovers polynomial evaluations"
    ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 0 1000))
    (fun (seed, x) ->
      let rng = Stdx.Rng.create seed in
      let degree = 1 + Stdx.Rng.int rng 4 in
      let coeffs = Array.init (degree + 1) (fun _ -> Stdx.Rng.int rng Crypto.Field.p) in
      (* degree+1 sample points determine the polynomial *)
      let points =
        List.init (degree + 1) (fun i ->
            (i + 1, Crypto.Field.eval_poly coeffs (i + 1)))
      in
      Crypto.Field.interpolate_at points ~x = Crypto.Field.eval_poly coeffs x)

let test_field_interpolate_duplicates_rejected () =
  Alcotest.check_raises "dups"
    (Invalid_argument "Field.interpolate_at: duplicate x-coordinates")
    (fun () -> ignore (Crypto.Field.interpolate_at [ (1, 2); (1, 3) ] ~x:5))

let test_hmac_key_exactly_block_size () =
  (* 64-byte key takes neither the hash-down nor the pad path's zeroes *)
  let key = String.make 64 'k' in
  let a = Crypto.Sha256.hmac ~key "msg" in
  let b = Crypto.Sha256.hmac ~key:(key ^ "") "msg" in
  checkb "deterministic" true (String.equal a b);
  checkb "differs from 63-byte key" false
    (String.equal a (Crypto.Sha256.hmac ~key:(String.make 63 'k') "msg"))

(* ---- Shamir ---- *)

let test_shamir_roundtrip () =
  let rng = Stdx.Rng.create 77 in
  let secret = 123456789 in
  let shares = Crypto.Shamir.deal ~rng ~secret ~threshold:3 ~shares:7 in
  checki "share count" 7 (List.length shares);
  let some = List.filteri (fun i _ -> i mod 2 = 0) shares in
  checki "reconstructed" secret (Crypto.Shamir.reconstruct ~threshold:3 some)

let test_shamir_any_threshold_subset () =
  let rng = Stdx.Rng.create 78 in
  let secret = 42 in
  let shares = Array.of_list (Crypto.Shamir.deal ~rng ~secret ~threshold:2 ~shares:5) in
  for i = 0 to 4 do
    for j = 0 to 4 do
      if i <> j then
        checki "every pair" secret
          (Crypto.Shamir.reconstruct ~threshold:2 [ shares.(i); shares.(j) ])
    done
  done

let test_shamir_below_threshold_random () =
  (* One share of a threshold-2 sharing determines nothing: two dealings
     of different secrets can produce the same single share. Statistical
     smoke check: the share value is not the secret itself. *)
  let rng = Stdx.Rng.create 79 in
  let shares = Crypto.Shamir.deal ~rng ~secret:5 ~threshold:2 ~shares:4 in
  Alcotest.check_raises "not enough shares"
    (Invalid_argument "Shamir.reconstruct: not enough distinct shares")
    (fun () ->
      ignore (Crypto.Shamir.reconstruct ~threshold:2 [ List.hd shares ]))

let test_shamir_duplicate_shares_rejected () =
  let rng = Stdx.Rng.create 80 in
  let shares = Crypto.Shamir.deal ~rng ~secret:5 ~threshold:2 ~shares:4 in
  let s = List.hd shares in
  Alcotest.check_raises "duplicates don't count"
    (Invalid_argument "Shamir.reconstruct: not enough distinct shares")
    (fun () -> ignore (Crypto.Shamir.reconstruct ~threshold:2 [ s; s ]))

let prop_shamir_roundtrip =
  QCheck.Test.make ~name:"shamir: deal then reconstruct = secret" ~count:100
    QCheck.(pair (int_bound (Crypto.Field.p - 1)) (int_range 0 10000))
    (fun (secret, seed) ->
      let rng = Stdx.Rng.create seed in
      let shares = Crypto.Shamir.deal ~rng ~secret ~threshold:4 ~shares:10 in
      let rng2 = Stdx.Rng.create (seed + 1) in
      let idx = Stdx.Rng.sample_without_replacement rng2 ~k:4 ~n:10 in
      let subset = List.map (List.nth shares) idx in
      Crypto.Shamir.reconstruct ~threshold:4 subset = Crypto.Field.of_int secret)

(* ---- Threshold coin ---- *)

let coin_setup ?(seed = 5) ~n ~f () =
  Crypto.Threshold_coin.setup ~rng:(Stdx.Rng.create seed) ~n ~f

let test_coin_agreement_across_subsets () =
  let n = 7 and f = 2 in
  let coin = coin_setup ~n ~f () in
  let shares =
    List.init n (fun holder ->
        Crypto.Threshold_coin.make_share coin ~holder ~instance:3)
  in
  (* every (f+1)-subset must elect the same leader *)
  let expected =
    Crypto.Threshold_coin.combine coin ~instance:3
      (List.filteri (fun i _ -> i < f + 1) shares)
  in
  checkb "some leader" true (expected <> None);
  List.iter
    (fun offset ->
      let subset = List.filteri (fun i _ -> i >= offset && i < offset + f + 1) shares in
      checkb "same leader" true
        (Crypto.Threshold_coin.combine coin ~instance:3 subset = expected))
    [ 1; 2; 3; 4 ]

let test_coin_below_threshold () =
  let coin = coin_setup ~n:7 ~f:2 () in
  let shares =
    List.init 2 (fun holder ->
        Crypto.Threshold_coin.make_share coin ~holder ~instance:1)
  in
  checkb "f shares insufficient" true
    (Crypto.Threshold_coin.combine coin ~instance:1 shares = None)

let test_coin_rejects_forged_share () =
  let coin = coin_setup ~n:4 ~f:1 () in
  let good = Crypto.Threshold_coin.make_share coin ~holder:0 ~instance:9 in
  let forged = { good with Crypto.Threshold_coin.value = good.value + 1 } in
  checkb "verify rejects" false (Crypto.Threshold_coin.verify_share coin forged);
  let other = Crypto.Threshold_coin.make_share coin ~holder:1 ~instance:9 in
  checkb "combine ignores forgeries" true
    (Crypto.Threshold_coin.combine coin ~instance:9 [ forged; other ] = None)

let test_coin_ignores_wrong_instance () =
  let coin = coin_setup ~n:4 ~f:1 () in
  let s0 = Crypto.Threshold_coin.make_share coin ~holder:0 ~instance:1 in
  let s1 = Crypto.Threshold_coin.make_share coin ~holder:1 ~instance:2 in
  checkb "mixed instances insufficient" true
    (Crypto.Threshold_coin.combine coin ~instance:1 [ s0; s1 ] = None)

let test_coin_leader_in_range () =
  let n = 10 and f = 3 in
  let coin = coin_setup ~n ~f () in
  for w = 0 to 50 do
    let shares =
      List.init (f + 1) (fun holder ->
          Crypto.Threshold_coin.make_share coin ~holder ~instance:w)
    in
    match Crypto.Threshold_coin.combine coin ~instance:w shares with
    | Some leader -> checkb "in range" true (leader >= 0 && leader < n)
    | None -> Alcotest.fail "combine failed"
  done

let test_coin_fairness_rough () =
  (* over many instances, every process should be elected sometimes *)
  let n = 4 and f = 1 in
  let coin = coin_setup ~seed:99 ~n ~f () in
  let counts = Array.make n 0 in
  let instances = 400 in
  for w = 0 to instances - 1 do
    let shares =
      List.init (f + 1) (fun holder ->
          Crypto.Threshold_coin.make_share coin ~holder ~instance:w)
    in
    match Crypto.Threshold_coin.combine coin ~instance:w shares with
    | Some leader -> counts.(leader) <- counts.(leader) + 1
    | None -> Alcotest.fail "combine failed"
  done;
  Array.iteri
    (fun i c ->
      checkb
        (Printf.sprintf "p%d elected a fair share (%d)" i c)
        true
        (c > instances / n / 3 && c < instances * 3 / n))
    counts

let test_coin_duplicate_holder_shares_dont_count () =
  let coin = coin_setup ~n:4 ~f:1 () in
  let s = Crypto.Threshold_coin.make_share coin ~holder:2 ~instance:5 in
  checkb "duplicate holder" true
    (Crypto.Threshold_coin.combine coin ~instance:5 [ s; s ] = None)

(* ---- Auth ---- *)

let test_auth_sign_verify () =
  let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.create 1) ~n:4 in
  let s = Crypto.Auth.sign auth ~signer:2 "hello" in
  checkb "verifies" true (Crypto.Auth.verify auth ~msg:"hello" s);
  checkb "wrong msg" false (Crypto.Auth.verify auth ~msg:"hellp" s)

let test_auth_cross_signer_rejected () =
  let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.create 2) ~n:4 in
  let s = Crypto.Auth.sign auth ~signer:0 "m" in
  let forged = { s with Crypto.Auth.signer = 1 } in
  checkb "signer swap rejected" false (Crypto.Auth.verify auth ~msg:"m" forged)

let test_auth_cert_assembly () =
  let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.create 3) ~n:4 in
  let sigs = List.init 3 (fun i -> Crypto.Auth.sign auth ~signer:i "v") in
  (match Crypto.Auth.make_cert auth ~threshold:3 ~msg:"v" sigs with
  | Some cert ->
    checkb "cert verifies" true (Crypto.Auth.verify_cert auth ~threshold:3 cert)
  | None -> Alcotest.fail "cert should assemble");
  checkb "threshold unmet" true
    (Crypto.Auth.make_cert auth ~threshold:4 ~msg:"v" sigs = None)

let test_auth_cert_ignores_bad_sigs () =
  let auth = Crypto.Auth.setup ~rng:(Stdx.Rng.create 4) ~n:4 in
  let good = List.init 2 (fun i -> Crypto.Auth.sign auth ~signer:i "v") in
  let bad = Crypto.Auth.sign auth ~signer:2 "other" in
  checkb "bad sig doesn't count" true
    (Crypto.Auth.make_cert auth ~threshold:3 ~msg:"v" (bad :: good) = None)

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "448-bit vector" `Quick test_sha256_448bit;
          Alcotest.test_case "million a's" `Slow test_sha256_million_a;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "allocation" `Quick test_sha256_allocation;
          Alcotest.test_case "digest_sub = digest of the copy" `Quick
            test_sha256_digest_sub;
          Alcotest.test_case "incremental chunks" `Quick test_sha256_incremental_chunks;
          Alcotest.test_case "finalize once" `Quick test_sha256_finalize_once;
          Alcotest.test_case "hmac rfc4231 #1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "hmac rfc4231 #2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "hmac long key" `Quick test_hmac_rfc4231_case6_long_key;
          QCheck_alcotest.to_alcotest prop_sha256_one_shot_between_feeds;
          QCheck_alcotest.to_alcotest prop_sha256_injective_on_samples ] );
      ( "gf256",
        [ QCheck_alcotest.to_alcotest prop_gf256_add_assoc;
          QCheck_alcotest.to_alcotest prop_gf256_mul_assoc_comm;
          QCheck_alcotest.to_alcotest prop_gf256_distributive;
          QCheck_alcotest.to_alcotest prop_gf256_inverse;
          QCheck_alcotest.to_alcotest prop_gf256_div;
          Alcotest.test_case "identities" `Quick test_gf256_identities;
          Alcotest.test_case "pow" `Quick test_gf256_pow;
          Alcotest.test_case "range check" `Quick test_gf256_range_check;
          Alcotest.test_case "eval_poly" `Quick test_gf256_eval_poly ] );
      ( "reed-solomon",
        [ Alcotest.test_case "systematic" `Quick test_rs_systematic;
          Alcotest.test_case "roundtrip data" `Quick test_rs_roundtrip_data_fragments;
          Alcotest.test_case "roundtrip parity" `Quick test_rs_roundtrip_parity_only;
          Alcotest.test_case "roundtrip mixed" `Quick test_rs_roundtrip_mixed;
          Alcotest.test_case "not enough" `Quick test_rs_not_enough_fragments;
          Alcotest.test_case "duplicates" `Quick test_rs_duplicate_indices_dont_count;
          Alcotest.test_case "empty payload" `Quick test_rs_empty_payload;
          Alcotest.test_case "bad params" `Quick test_rs_bad_params;
          Alcotest.test_case "rows allocation" `Quick test_rs_rows_allocation;
          QCheck_alcotest.to_alcotest prop_rs_any_k_subset ] );
      ( "merkle",
        [ Alcotest.test_case "single leaf" `Quick test_merkle_single_leaf;
          Alcotest.test_case "all proofs verify" `Quick test_merkle_all_proofs_verify;
          Alcotest.test_case "wrong leaf" `Quick test_merkle_wrong_leaf_rejected;
          Alcotest.test_case "wrong index" `Quick test_merkle_wrong_index_rejected;
          Alcotest.test_case "wrong root" `Quick test_merkle_wrong_root_rejected;
          Alcotest.test_case "truncated path" `Quick test_merkle_truncated_path_rejected;
          Alcotest.test_case "roots differ" `Quick test_merkle_roots_differ;
          Alcotest.test_case "empty rejected" `Quick test_merkle_empty_rejected;
          Alcotest.test_case "pinned digests" `Quick test_merkle_pinned_digests;
          Alcotest.test_case "root of leaf digests" `Quick
            test_merkle_root_of_leaf_digests;
          Alcotest.test_case "verify_digest agrees" `Quick
            test_merkle_verify_digest_agrees;
          QCheck_alcotest.to_alcotest prop_merkle_memo_differential;
          Alcotest.test_case "memo hashes empty children" `Quick
            test_merkle_memo_empty_children;
          Alcotest.test_case "memo leaf count checked" `Quick
            test_merkle_memo_leaf_count ] );
      ( "field",
        [ QCheck_alcotest.to_alcotest prop_field_add_inverse;
          QCheck_alcotest.to_alcotest prop_field_mul_inverse;
          QCheck_alcotest.to_alcotest prop_field_distributive;
          Alcotest.test_case "of_int negative" `Quick test_field_of_int_negative;
          Alcotest.test_case "pow" `Quick test_field_pow;
          Alcotest.test_case "lagrange constant" `Quick test_field_lagrange_constant;
          Alcotest.test_case "lagrange linear" `Quick test_field_lagrange_linear;
          Alcotest.test_case "lagrange duplicates" `Quick
            test_field_lagrange_rejects_duplicates;
          QCheck_alcotest.to_alcotest prop_field_interpolate_matches_eval;
          Alcotest.test_case "interpolate duplicates" `Quick
            test_field_interpolate_duplicates_rejected;
          Alcotest.test_case "hmac block-size key" `Quick
            test_hmac_key_exactly_block_size ] );
      ( "shamir",
        [ Alcotest.test_case "roundtrip" `Quick test_shamir_roundtrip;
          Alcotest.test_case "any threshold subset" `Quick
            test_shamir_any_threshold_subset;
          Alcotest.test_case "below threshold" `Quick test_shamir_below_threshold_random;
          Alcotest.test_case "duplicates rejected" `Quick
            test_shamir_duplicate_shares_rejected;
          QCheck_alcotest.to_alcotest prop_shamir_roundtrip ] );
      ( "threshold-coin",
        [ Alcotest.test_case "agreement across subsets" `Quick
            test_coin_agreement_across_subsets;
          Alcotest.test_case "below threshold" `Quick test_coin_below_threshold;
          Alcotest.test_case "rejects forged share" `Quick test_coin_rejects_forged_share;
          Alcotest.test_case "wrong instance" `Quick test_coin_ignores_wrong_instance;
          Alcotest.test_case "leader in range" `Quick test_coin_leader_in_range;
          Alcotest.test_case "rough fairness" `Quick test_coin_fairness_rough;
          Alcotest.test_case "duplicate holders" `Quick
            test_coin_duplicate_holder_shares_dont_count ] );
      ( "auth",
        [ Alcotest.test_case "sign/verify" `Quick test_auth_sign_verify;
          Alcotest.test_case "cross-signer" `Quick test_auth_cross_signer_rejected;
          Alcotest.test_case "cert assembly" `Quick test_auth_cert_assembly;
          Alcotest.test_case "cert ignores bad sigs" `Quick
            test_auth_cert_ignores_bad_sigs ] )
    ]
