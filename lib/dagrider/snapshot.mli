(** DAG persistence: serialize a process's local DAG (and its delivered
    frontier) so a restarting process can resume from disk instead of
    replaying every reliable broadcast from round 1.

    The format is a framed sequence of vertex records in round order,
    each framed as [u32 round][u32 source][u32 len][Vertex.encode bytes],
    preceded by a magic header with [n], the garbage-collection horizon
    ({!Dag.pruned_below}) and the vertex count, and followed by a
    SHA-256 checksum over everything before it. Restoring prunes a
    fresh store to the horizon and replays [Dag.add] in round order, so
    the store's "causal history present" invariant (Claim 1) is
    re-established, with edges into pruned rounds counting as present as
    they did in the saved store — a corrupted or truncated file can
    never produce a DAG that violates it. *)

val dag_to_string : Dag.t -> string
(** Serialize the horizon and every retained non-genesis vertex. *)

val dag_of_string : string -> (Dag.t, string) result
(** Rebuild a DAG. Fails with a reason on a bad magic, size mismatch,
    checksum mismatch, undecodable vertex, or a vertex set that is not
    causally closed. *)

val delivered_to_string : Vertex.vref list -> string
(** Persist the delivered frontier (the ordering layer's progress). *)

val delivered_of_string : string -> (Vertex.vref list, string) result
