(** The partition of nodes into clusters, with O(1) membership updates and
    continuous Byzantine-fraction monitoring.

    This is the state the NOW engine mutates on every join, leave, split,
    merge and exchange.  All operations the hot path needs — uniform member
    sampling, size-proportional cluster sampling (the distribution [randCl]
    realises), swap of two nodes — are O(1) expected, which is what makes
    polynomial-length Theorem-3 runs feasible.

    Representation: a flat struct-of-arrays arena.  Every cluster's member
    list is an index range into one shared int slab; per-cluster
    descriptors (offset, length, capacity, Byzantine count) and the
    node→(cluster, slot) map are flat int arrays.  This removes the
    per-cluster records and hashtables from the hot loop and is what makes
    the 10^5–10^6-node E15 runs feasible.  Observable behaviour — member
    order, RNG draw sequence, violation accounting — is byte-identical to
    {!Cluster_table_reference}, the original representation kept as the
    oracle (qcheck equivalence suite).

    The table also maintains, incrementally, the number of clusters
    currently violating the >2/3-honest invariant and the cumulative count
    of violation events — the quantities Theorem 3 bounds.

    The operations are declared once, in {!Table_intf.S}.  Here
    [check_consistency] also verifies the arena accounting (live +
    garbage = bump pointer). *)

include Table_intf.S

val arena_words : t -> int * int
(** [(live, capacity)] arena words — live member-segment words (garbage
    excluded) and the slab's allocated size.  Introspection only; never
    part of a gated byte. *)
