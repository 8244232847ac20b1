(** The NOW protocol engine (Sections 3 and 4) — state level.

    Maintains the full protocol state — node roster, cluster partition,
    OVER overlay — and executes the paper's operations:

    - {!create} runs the initialisation phase (network discovery over a
      physical bootstrap graph, Byzantine agreement, random clusterisation,
      initial Erdős–Rényi overlay — Section 3.2, Fig. 1);
    - {!join} / {!leave} are the maintenance operations of Section 3.3
      (Algorithms 1 and 2), with Split and Merge triggered internally by
      the [l k log N] size bounds, node shuffling by [exchange], and
      destination selection by the biased CTRW [randCl].

    Every operation charges its communication cost to the engine ledger
    using {!Cost_model} and reports messages plus critical-path rounds
    (member exchanges of one cluster proceed in parallel, as the paper's
    O(log^4 N) round bound requires, so rounds are max-combined across
    parallel walks and summed across sequential phases).

    Depending on [Params.walk_mode], [randCl] either runs the exact biased
    CTRW on the overlay ([Exact_walk]) or samples the target distribution
    [|C|/n] directly while charging the analytic walk cost
    ([Direct_sample] — for polynomial-length Theorem 3 runs; experiment E9
    justifies the equivalence, E5 cross-checks the costs). *)

include Engine_impl.S with type table := Cluster_table.t
