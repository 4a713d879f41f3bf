type tree = {
  levels : string array array;
      (* levels.(0) = leaf digests; last level has length 1 = root *)
}

type proof = { leaf_index : int; path : string list }

(* The domain byte and the parts go into one hashing state, so nothing
   is concatenated: the digests are those of "\x00" ^ payload and
   "\x01" ^ l ^ r. *)
let leaf_digest payload =
  let ctx = Sha256.init () in
  Sha256.feed ctx "\x00";
  Sha256.feed ctx payload;
  Sha256.finalize ctx

let hash_node l r =
  let ctx = Sha256.init () in
  Sha256.feed ctx "\x01";
  Sha256.feed ctx l;
  Sha256.feed ctx r;
  Sha256.finalize ctx

let next_level nodes =
  let n = Array.length nodes in
  let m = (n + 1) / 2 in
  Array.init m (fun i ->
      let l = nodes.(2 * i) in
      let r = if (2 * i) + 1 < n then nodes.((2 * i) + 1) else l in
      hash_node l r)

let of_leaf_digests digests =
  let rec go acc nodes =
    if Array.length nodes = 1 then List.rev (nodes :: acc)
    else go (nodes :: acc) (next_level nodes)
  in
  { levels = Array.of_list (go [] digests) }

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let build leaves =
  if Array.length leaves = 0 then invalid_arg "Merkle.build: no leaves";
  of_leaf_digests (Array.map leaf_digest leaves)

let root_of_leaf_digests digests =
  if Array.length digests = 0 then
    invalid_arg "Merkle.root_of_leaf_digests: no leaves";
  root (of_leaf_digests digests)

let leaf_count t = Array.length t.levels.(0)

let prove t index =
  let n = leaf_count t in
  if index < 0 || index >= n then invalid_arg "Merkle.prove: index out of range";
  let rec go level i acc =
    if level >= Array.length t.levels - 1 then List.rev acc
    else begin
      let nodes = t.levels.(level) in
      let sib = if i land 1 = 0 then i + 1 else i - 1 in
      let sib_digest =
        if sib < Array.length nodes then nodes.(sib) else nodes.(i)
      in
      go (level + 1) (i / 2) (sib_digest :: acc)
    end
  in
  { leaf_index = index; path = go 0 index [] }

(* expected path length = tree height *)
let height leaf_count =
  let rec go n acc = if n <= 1 then acc else go ((n + 1) / 2) (acc + 1) in
  go leaf_count 0

let verify_digest ~root:expected ~leaf_count ~digest proof =
  let rec climb i d = function
    | [] -> d
    | sib :: rest ->
      climb (i / 2) (if i land 1 = 0 then hash_node d sib else hash_node sib d) rest
  in
  proof.leaf_index >= 0
  && proof.leaf_index < leaf_count
  && List.compare_length_with proof.path (height leaf_count) = 0
  && String.equal (climb proof.leaf_index digest proof.path) expected

let verify ~root ~leaf_count ~leaf proof =
  verify_digest ~root ~leaf_count ~digest:(leaf_digest leaf) proof
