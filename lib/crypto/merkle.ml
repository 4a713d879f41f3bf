type tree = {
  levels : string array array;
      (* levels.(0) = leaf digests; last level has length 1 = root *)
}

type proof = { leaf_index : int; path : string list }

(* The domain byte and the parts go into one hashing state, so nothing
   is concatenated: the digests are those of "\x00" ^ payload and
   "\x01" ^ l ^ r. *)
let leaf_digest payload = Sha256.digest_concat3 "\x00" payload ""

let hash_node l r = Sha256.digest_concat3 "\x01" l r

(* expected path length = tree height *)
let height leaf_count =
  let rec go n acc = if n <= 1 then acc else go ((n + 1) / 2) (acc + 1) in
  go leaf_count 0

(* The internal nodes of a [leaf_count]-leaf tree, level by level from
   the leaves' parents up: node [i] of level [j >= 1] sits at
   [offsets.(j) + i]. A position's slot holds the children last hashed
   there and their parent; an empty [parent] ("") marks a slot never
   filled, since a real parent is 32 bytes. *)
type memo = {
  m_leaves : int;
  offsets : int array;
  left : string array;
  right : string array;
  parent : string array;
}

let memo ~leaf_count =
  if leaf_count < 1 then invalid_arg "Merkle.memo: no leaves";
  let h = height leaf_count in
  let offsets = Array.make (h + 1) 0 in
  let width = ref leaf_count and total = ref 0 in
  for j = 1 to h do
    width := (!width + 1) / 2;
    offsets.(j) <- !total;
    total := !total + !width
  done;
  { m_leaves = leaf_count;
    offsets;
    left = Array.make !total "";
    right = Array.make !total "";
    parent = Array.make !total "" }

(* [hash_node l r] for the node at index [i] of [level], through the
   memo when there is one *)
let node memo ~level i l r =
  match memo with
  | None -> hash_node l r
  | Some m ->
    let p = m.offsets.(level) + i in
    let cached = m.parent.(p) in
    if
      String.length cached > 0
      && String.equal m.left.(p) l
      && String.equal m.right.(p) r
    then cached
    else begin
      let h = hash_node l r in
      m.left.(p) <- l;
      m.right.(p) <- r;
      m.parent.(p) <- h;
      h
    end

let check_memo fn memo leaf_count =
  match memo with
  | Some m when m.m_leaves <> leaf_count ->
    invalid_arg (fn ^ ": memo made for another leaf count")
  | _ -> ()

let next_level memo ~level nodes =
  let n = Array.length nodes in
  let m = (n + 1) / 2 in
  Array.init m (fun i ->
      let l = nodes.(2 * i) in
      let r = if (2 * i) + 1 < n then nodes.((2 * i) + 1) else l in
      node memo ~level i l r)

let of_leaf_digests ?memo digests =
  let rec go acc level nodes =
    if Array.length nodes = 1 then List.rev (nodes :: acc)
    else go (nodes :: acc) (level + 1) (next_level memo ~level:(level + 1) nodes)
  in
  { levels = Array.of_list (go [] 0 digests) }

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let build leaves =
  if Array.length leaves = 0 then invalid_arg "Merkle.build: no leaves";
  of_leaf_digests (Array.map leaf_digest leaves)

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

let root_of_leaf_digests ?memo digests =
  let n = Array.length digests in
  if n = 0 then invalid_arg "Merkle.root_of_leaf_digests: no leaves";
  check_memo "Merkle.root_of_leaf_digests" memo n;
  root (of_leaf_digests ?memo digests)

let verify_digest ?memo ~root:expected ~leaf_count ~digest proof =
  check_memo "Merkle.verify_digest" memo leaf_count;
  let rec climb level i d = function
    | [] -> d
    | sib :: rest ->
      let parent =
        if i land 1 = 0 then node memo ~level (i / 2) d sib
        else node memo ~level (i / 2) sib d
      in
      climb (level + 1) (i / 2) parent rest
  in
  proof.leaf_index >= 0
  && proof.leaf_index < leaf_count
  && List.compare_length_with proof.path (height leaf_count) = 0
  && String.equal (climb 1 proof.leaf_index digest proof.path) expected

let verify ~root ~leaf_count ~leaf proof =
  verify_digest ~root ~leaf_count ~digest:(leaf_digest leaf) proof
