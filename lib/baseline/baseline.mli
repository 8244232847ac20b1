(** Baselines the paper argues against (Sections 1, 3.3, 5, 6).

    The unclustered primitives: flat flooding broadcast (O(n^2)
    messages), full-network agreement and linear-cost sampling, the costs
    Section 6 contrasts with the clustered Õ(n) / polylog versions (E8).

    The two structural baselines are parameter flags, not functions here:
    NOW without the [exchange] shuffling is
    [Params.make ~shuffle_on_churn:false] (Section 3.3's attack: "the
    adversary chooses a specific cluster and keeps adding and removing the
    Byzantine nodes until they fall into that cluster"; E3 runs it against
    both variants), and a fixed number of clusters is
    [~allow_split_merge:false] (the prior work of Awerbuch–Scheideler et
    al.; under polynomial growth the per-cluster size blows up, E10). *)

val unclustered_broadcast_messages : n:int -> int
(** Every node relays the payload to every other node once: n(n-1). *)

val unclustered_sample_messages : n:int -> int
(** Uniform sampling without structure requires collecting the membership
    (or an O(n) token circulation): n messages. *)

val flat_phase_king_messages : n:int -> int
(** Whole-network Byzantine agreement with the same machinery the
    clustered system uses (Phase-King): (t+1) phases of all-to-all plus a
    king broadcast, ~n^3/4 messages — the "seminal agreement ... very
    expensive" baseline of the paper's introduction that clustering's
    load-sharing beats by a factor |C|. *)
