(** The oracle engine: the same protocol logic as {!Engine} — the shared
    {!Engine_impl} functor body — instantiated on
    {!Cluster_table_reference}, the original record/hashtable cluster
    table kept as the correctness oracle for the flat-arena refactor.

    The qcheck equivalence suite drives this engine and {!Engine}
    through identical operation sequences (churn, exchanges, sharded
    epochs) and requires identical snapshot bytes, cluster stats and
    audit digests.  Both engines declare their API as {!Engine_impl.S},
    which documents each item. *)

include Engine_impl.S with type table := Cluster_table_reference.t
