(** Asynchronous verifiable information dispersal used as reliable
    broadcast (Cachin–Tessaro 2005) — the O(n^2 log n + n |m|)
    instantiation behind Table 1's optimal row "DAG-Rider + [14]".

    Per instance [(origin, round)]:
    - the sender Reed–Solomon-encodes the payload into [n] fragments
      ([k = f+1] suffice to reconstruct), builds a Merkle tree over them,
      and sends process [i] its fragment with an inclusion proof
      ([Disperse]);
    - a process receiving its valid fragment relays it to everyone
      ([Echo]) — so each process transmits [O(|m|/n + log n)] bits
      instead of [O(|m|)];
    - on [2f+1] valid echoed fragments under one root it broadcasts the
      constant-size [Ready root]; [f+1] [Ready]s amplify;
    - on [2f+1] [Ready]s and [f+1] stored fragments it reconstructs,
      {e re-encodes} and recomputes the Merkle root. If the root matches,
      it delivers; otherwise the committed vector was not a codeword (a
      Byzantine dispersal) and the instance is deterministically
      discarded by every correct process — agreement holds either way.

    The re-encoding check is what makes reconstruction independent of
    which [f+1] fragments a process happens to hold: a committed vector
    either is a codeword (all subsets give the same polynomial) or no
    subset's reconstruction can re-produce the committed root.

    Each held fragment's Merkle leaf digest is computed once, when the
    fragment is verified, and reused by the re-encoding check and by
    byte-equal echoes of it; echoes that can no longer change the
    instance's outcome are dropped unverified (DESIGN §16). Each commit
    under which a fragment verified keeps a {!Crypto.Merkle.memo} of
    internal node hashes, so a later proof hashes only the nodes no
    earlier proof produced and the re-encoding check reads the rest
    back (DESIGN §18). Echoers, readies and the held fragments with
    their memo are all per commit [(root, data_len)], in one
    {!Rbc_intf.Tally} per instance whose first commit is inline
    (DESIGN §16).

    The re-encoding check runs in the endpoint's coder buffers
    ({!Crypto.Reed_solomon.reconstruct}): each row of the re-encoded
    codeword is derived in place and compared word by word with the
    held fragment at its index, only a row that differs or is not held
    is hashed, and the payload is copied out once, when the root
    matches. No buffer is live across the [deliver] upcall, which may
    re-enter {!bcast}. *)

type msg =
  | Disperse of {
      round : int;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }
  | Echo of {
      origin : int;
      round : int;
      root : string;
      data_len : int;
      frag_index : int;
      frag : string;
      proof : Crypto.Merkle.proof;
    }
  | Ready of { origin : int; round : int; root : string; data_len : int }

val encode_msg : msg -> string
(** Canonical wire encoding (fragments, Merkle proofs and all); senders
    charge exactly its size. *)

val decode_msg : string -> msg option

val msg_bits : msg -> int
(** Wire size in bits, [8 * String.length (encode_msg msg)], computed
    from the field sizes without encoding. *)

type t

val create_port :
  port:msg Net.Port.t -> me:int -> f:int -> deliver:Rbc_intf.deliver -> t
(** Transport-agnostic constructor (see {!Net.Port}); a network is
    [Net.Port.of_network net]. *)

val set_trace : t -> Trace.t -> unit
(** Emit {!Trace.Rbc_phase} events ("disperse", "echo", "ready",
    "deliver", "discard") for every instance transition at this process
    from now on. *)

val bcast : t -> payload:string -> round:int -> unit

val prune_below : t -> round:int -> unit
(** Raise the horizon to [round] and drop every instance below it
    ({!Rbc_intf.Rows}); a later message for such a round is dropped.
    Lowering it is a no-op. *)

val open_instances : t -> int
(** Number of instances this process holds now: every
    [(origin, round)] at or above the horizon that some accepted message
    named. A message whose origin is outside [[0, n)] or whose round is
    below the horizon opens none. *)

val dropped_below_horizon : t -> int
(** Messages dropped unopened: their origin is out of range or their
    round is below the horizon. *)

val bcast_inconsistent : t -> payload:string -> round:int -> unit
(** Byzantine dispersal helper for tests: commits to a fragment vector
    that is {e not} a codeword (one fragment corrupted before building
    the tree). Correct processes must all discard the instance. *)

val inject_disperse : t -> dsts:int list -> round:int -> payload:string -> unit
(** Byzantine-attacker capability: run the real dispersal (RS encoding,
    Merkle commitment, per-fragment proofs) for [payload] but send only
    the fragments belonging to [dsts] — equivocation sends two such
    dispersals with different payloads to disjoint sets, withholding
    sends one to a strict subset. Out-of-range destinations are
    ignored. Attack harness only. *)
