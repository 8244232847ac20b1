(** The original record/hashtable cluster table — the oracle.

    Same interface and observable behaviour as the flat-arena
    {!Cluster_table} that replaced it on the hot path: identical member
    ordering (push / swap-into-hole), identical RNG draw sequences, and
    identical violation accounting, so engines built over either
    representation produce byte-identical snapshots, stats and audit
    digests (the qcheck equivalence suite enforces this — the repo's
    cached-path convention of keeping the un-cached oracle in the
    tree).  The operations are declared once, in {!Table_intf.S}. *)

include Table_intf.S
