(** Global perfect coin via (f+1)-of-n threshold secret sharing (paper
    §2, after Cachin–Kursawe–Shoup).

    Setup: a trusted dealer samples a master polynomial [P] of degree [f]
    over Z_(2^31-1); process [i]'s key is [P(i + 1)]. The share of coin
    instance [w] from process [i] is [P(i + 1) * H(w)], where [H] hashes
    the instance number to a field element. Because [x -> P(x) * H(w)] is
    again a degree-[f] polynomial with constant term [P(0) * H(w)], any
    [f + 1] valid shares Lagrange-interpolate to the same group element,
    which is hashed to a process index in [\[0, n)].

    Guarantees, matching the paper's abstraction:
    - {b Agreement}: interpolation is deterministic in the share set's
      defining polynomial, so all combiners obtain the same leader.
    - {b Termination}: any [f + 1] shares suffice.
    - {b Unpredictability}: with [<= f] shares the secret is
      information-theoretically undetermined. (The adversary in our
      simulation is code we write; it never queries the dealer oracle.)
    - {b Fairness}: the leader is a hash of [P(0) * H(w)], uniform over
      the [n] processes up to negligible hash bias.

    Substitution note (DESIGN.md §2): share {e verification} is modeled —
    [verify_share] recomputes the expected share from dealer state rather
    than checking a pairing equation. This changes no protocol-visible
    behaviour: forged shares are rejected either way. *)

type t
(** Public coin context (held by every process in the simulation). *)

type share = { holder : int; instance : int; value : int }

val setup : rng:Stdx.Rng.t -> n:int -> f:int -> t
(** Trusted-dealer setup for [n] processes tolerating [f] faults; the
    combining threshold is [f + 1].
    @raise Invalid_argument unless [0 <= f] and [n >= f + 1]. *)

val of_keys : n:int -> f:int -> keys:int array -> t
(** Assemble a coin context from per-process keys produced by a
    distributed key generation ({!Adkg}) instead of a trusted dealer.
    [keys.(i)] must be the evaluation at [i + 1] of one degree-[f]
    polynomial (the ADKG guarantees this); the caller is the simulation
    harness playing the PKI oracle (DESIGN.md §2).
    @raise Invalid_argument on a size mismatch. *)

val key_of : t -> holder:int -> int
(** The holder's secret key (used by {!Adkg} tests to cross-check the
    aggregated sharing; a real deployment never exposes this). *)

val n : t -> int
val threshold : t -> int
(** [f + 1]. *)

val make_share : t -> holder:int -> instance:int -> share
(** The share process [holder] (0-indexed) broadcasts for instance
    [instance]. *)

val verify_share : t -> share -> bool
(** Reject shares a Byzantine process forged or mutated. *)

val hash_instance : t -> int -> int
(** [H(instance)], the field element every share of the instance is a
    multiple of. *)

val valid_share : t -> h:int -> share -> bool
(** {!verify_share} against [h = hash_instance t share.instance],
    computed once by a caller that checks many shares of one
    instance. *)

val combine : t -> instance:int -> share list -> int option
(** [combine t ~instance shares] returns [Some leader] (a process index
    in [\[0, n)]) once the list contains at least [f + 1] valid shares
    for [instance] from distinct holders, [None] otherwise. Invalid or
    duplicate shares are ignored rather than raising, since they come
    from the network. *)

val combines : t -> int
(** How many times {!combine} ran on this context. *)

val instance_digest : t -> int -> Sha256.digest
(** [Sha256.digest_string (Printf.sprintf "coin-instance:%d" instance)],
    the hash behind [H], formatted without [Printf] in a buffer the
    context owns. Exposed as the test oracle's subject. *)

val output_digest : t -> secret:int -> instance:int -> Sha256.digest
(** [Sha256.digest_string (Printf.sprintf "coin-out:%d:%d" secret
    instance)], the hash {!combine} reduces to a leader, formatted the
    same way. *)

val share_size_bits : int
(** Wire size charged per share by the communication accounting. *)
