(** Merkle trees over SHA-256 with inclusion proofs.

    AVID commits to the vector of Reed–Solomon fragments with a Merkle
    root; each fragment travels with its authentication path so receivers
    can verify fragments from Byzantine relayers without seeing the whole
    vector. Leaves are domain-separated from inner nodes (prefix bytes
    [\x00] / [\x01]) to prevent second-preimage splicing attacks; the
    prefix byte and the parts are fed to one SHA-256 state, so hashing
    copies nothing.

    A verifier that keeps the leaf digests of fragments it has already
    checked can reuse them: {!verify_digest} then hashes only the
    authentication path, and {!root_of_leaf_digests} only the internal
    nodes. *)

type tree

type proof = {
  leaf_index : int;
  path : string list;
      (** Sibling digests from the leaf's level up to (excluding) the root. *)
}

val build : string array -> tree
(** Build a tree over the given leaves (payload bytes, hashed internally).
    Odd levels duplicate the last node, so any positive arity works.
    @raise Invalid_argument on an empty array. *)

val root : tree -> string
(** 32-byte root digest. *)

val leaf_count : tree -> int

val prove : tree -> int -> proof
(** Inclusion proof for the leaf at the given index.
    @raise Invalid_argument if the index is out of range. *)

val verify : root:string -> leaf_count:int -> leaf:string -> proof -> bool
(** [verify ~root ~leaf_count ~leaf proof] checks that [leaf]'s payload
    sits at [proof.leaf_index] in a tree with the given root and size. *)

val leaf_digest : string -> string
(** The digest a leaf payload occupies in the tree:
    SHA-256 of [\x00] followed by the payload. *)

val verify_digest :
  root:string -> leaf_count:int -> digest:string -> proof -> bool
(** [verify] for a leaf given by its {!leaf_digest}:
    [verify ~leaf = verify_digest ~digest:(leaf_digest leaf)]. *)

val root_of_leaf_digests : string array -> string
(** [root_of_leaf_digests (Array.map leaf_digest leaves) =
    root (build leaves)], hashing only the internal nodes.
    @raise Invalid_argument on an empty array. *)
