(* The NOW protocol engine, parameterised over its cluster-table
   representation.

   [Make (Cluster_table)] is the production engine (flat struct-of-arrays
   arena); [Make (Cluster_table_reference)] is {!Engine_reference}, the
   oracle over the original record/hashtable table.  Everything
   observable — snapshots, stats, digests, ledgers, RNG streams — is
   identical across instantiations by construction: the functor body is
   the single copy of the protocol logic, and all external reads go
   through the {!View} built by [view]. *)

(** The state-level engine's API, declared once: {!Engine} is this
    signature over {!Cluster_table}, {!Engine_reference} over
    {!Cluster_table_reference}. *)
module type S = sig
  type t

  (** Cost report of the initialisation phase (an equation with
      {!View.init_report}, so view consumers share the type). *)
  type init_report = View.init_report = {
    n0 : int;  (** nodes at initialisation *)
    bootstrap_edges : int;  (** edges of the physical discovery graph *)
    discovery_messages : int;
    discovery_rounds : int;  (** bounded by the honest-adjacent diameter *)
    agreement_messages : int;  (** modeled King–Saia cost, Õ(n sqrt n) *)
    agreement_rounds : int;
    partition_messages : int;
    initial_clusters : int;
  }

  type op_report = {
    messages : int;
    rounds : int;  (** critical-path round count for the operation *)
    splits : int;  (** split operations this operation triggered *)
    merges : int;  (** merge operations this operation triggered *)
    walks : int;  (** randCl invocations *)
    walk_hops : int;  (** total CTRW hops across them *)
    rejoins : int;  (** pending re-joins flushed (Rejoin_self merges) *)
  }

  val create : ?seed:int64 -> Params.t -> initial:Node.honesty list -> t
  (** Run the initialisation phase on the given population (the adversary
      chooses which initial nodes are Byzantine — Section 2 allows
      corruption from the very beginning).  Raises [Invalid_argument] if
      [initial] is empty. *)

  val create_scaled : ?seed:int64 -> Params.t -> initial:Node.honesty list -> t
  (** {!create} for 10^5–10^6-node populations (experiment E15): identical
      partition and overlay construction, but the Θ(n log n)-edge physical
      bootstrap graph is charged analytically (expected Erdős–Rényi edge
      count, log-diameter flooding bound) instead of materialised.  The RNG
      stream therefore differs from {!create} — the two constructors are
      distinct seeding conventions, not interchangeable on the same seed. *)

  val params : t -> Params.t
  val ledger : t -> Metrics.Ledger.t

  val roster : t -> Node.Roster.t
  (** The identity allocator (never reuses an id). *)

  type table
  (** The cluster-table representation the engine runs on. *)

  val table : t -> table
  (** Direct access to the membership table — tests and oracles only;
      external readers should go through {!view}. *)

  val overlay : t -> Over.t
  (** The OVER expander over live cluster ids. *)

  val init_report : t -> init_report
  (** Cost report of the initialisation phase. *)

  val time_step : t -> int
  (** Number of join/leave operations executed so far. *)

  val join : t -> Node.honesty -> Node.id * op_report
  (** A new node joins; the adversary decided its honesty.  Runs Algorithm 1
      (insert into a [randCl]-chosen cluster, full exchange, split if
      oversized). *)

  val exchange_cluster : t -> int -> op_report
  (** Run the [exchange] primitive on every member of the given cluster —
      the operation Lemma 1 analyses (also usable as a proactive shuffle).
      Raises [Not_found] for unknown clusters. *)

  val exchange_epoch : t -> op_report
  (** One proactive shuffle of the whole system: every member of every
      cluster runs one exchange.  The per-cluster walk plans are computed
      in parallel across the {!Exec} pool (randomness split per cluster
      index off the engine stream) and applied sequentially in
      cluster-index order, so the result is bit-identical for any [-j]
      (CI-gated).  Costs are charged analytically from the
      [Direct_sample] formulas; rounds are max-combined across clusters
      (they shuffle in parallel).  The scale path E15 exercises. *)

  val leave : t -> Node.id -> op_report
  (** The node leaves (voluntarily or killed by the adversary); its former
      cluster detects the departure and runs Algorithm 2 (full exchange,
      one-level exchange cascade to the clusters it swapped with, merge if
      undersized). *)

  (** Lifetime operation counters (an equation with {!View.totals}, so view
      consumers share the type). *)
  type totals = View.totals = {
    total_joins : int;
    total_leaves : int;
    total_splits : int;
    total_merges : int;
    total_rejoins : int;
    total_walks : int;
  }

  val totals : t -> totals
  (** Lifetime operation counters (survive {!save}/{!load}). *)

  val n_nodes : t -> int
  (** Nodes currently in the system (including any awaiting re-join). *)

  val n_clusters : t -> int

  val random_node : t -> Node.id
  (** Uniformly random present node (adversary/workload helper; free of
      charge — the adversary has full knowledge). *)

  val random_node_where : t -> (Node.id -> bool) -> Node.id option
  (** Uniform over nodes satisfying the predicate; rejection-sampled, [None]
      if none found within a large budget. *)

  val uniform_member : t -> int -> Node.id
  (** Uniform member of the given cluster, drawn from the engine's
      generator (the [randNum] step of node sampling). *)

  val rand_cl : t -> ?start:int -> unit -> int * op_report
  (** Expose the biased cluster selection (used by OVER call-backs, the
      sampling application and E9).  [start] defaults to a uniform cluster. *)

  val min_honest_fraction : t -> float
  val violations_now : t -> int

  val violation_events : t -> int
  (** Lifetime count of safety-bound breaches (each logged once). *)

  val cluster_sizes : t -> int list
  (** Per-cluster sizes in ascending cluster-id order. *)

  val byz_fractions : t -> float list
  (** Per-cluster Byzantine fractions in ascending cluster-id order. *)

  val cluster_stats : t -> (int * int * int) list
  (** [(cluster id, size, Byzantine member count)] per live cluster, sorted
      by id — the per-cluster probe the invariant monitor samples (integer
      counts so bound checks avoid float rounding at exactly 2/3). *)

  val overlay_health : ?spectral_iterations:int -> t -> Over.health

  val view : t -> View.t
  (** The narrow read-only window external readers (monitor probes, audit
      digests, scenario drivers, the snapshot writer) consume — see
      {!View}.  Building it allocates only closures; every access is a
      pure read of live state. *)

  type batch_op = Batch_join of Node.honesty | Batch_leave of Node.id

  val batch : t -> batch_op list -> Node.id list * op_report
  (** Several joins and leaves in one time step — the footnote of Section 2
      notes the analysis generalises to parallel operations.  State effects
      are applied sequentially (deterministically); the report sums messages
      but max-combines rounds, modelling the operations proceeding in
      parallel.  Returns the ids of the joined nodes, in order. *)

  val save : t -> string
  (** Serialise the complete engine state — parameters, generator state,
      roster, partition, overlay, ledger, pending re-joins — into a
      line-oriented text snapshot.  {!load} resumes an identical engine:
      the continuation of a loaded run is bit-for-bit the continuation of
      the original (determinism). *)

  val load : string -> t
  (** Inverse of {!save}.  Raises [Failure] on a malformed snapshot. *)

  val check_invariants : t -> unit
  (** Test hook: verifies table consistency, roster/table agreement,
      overlay/partition agreement and the cluster-size discipline
      ([size <= max]; [size >= min] whenever more than one cluster exists
      and no merge was skipped).  Raises [Failure] on violation. *)
end

module Rng = Prng.Rng
module Ledger = Metrics.Ledger
module Graph = Dsgraph.Graph

let src = Logs.Src.create "now.engine" ~doc:"NOW protocol engine events"

module Log = (val Logs.src_log src : Logs.LOG)

module Make (Tbl : Table_intf.S) : S with type table := Tbl.t = struct
  type init_report = View.init_report = {
    n0 : int;
    bootstrap_edges : int;
    discovery_messages : int;
    discovery_rounds : int;
    agreement_messages : int;
    agreement_rounds : int;
    partition_messages : int;
    initial_clusters : int;
  }

  type op_report = {
    messages : int;
    rounds : int;
    splits : int;
    merges : int;
    walks : int;
    walk_hops : int;
    rejoins : int;
  }

  (* Mutable accumulator threaded through one maintenance operation. *)
  type acc = {
    mutable a_rounds : int;
    mutable a_splits : int;
    mutable a_merges : int;
    mutable a_walks : int;
    mutable a_hops : int;
    mutable a_rejoins : int;
  }

  let fresh_acc () =
    { a_rounds = 0; a_splits = 0; a_merges = 0; a_walks = 0; a_hops = 0; a_rejoins = 0 }

  type totals = View.totals = {
    total_joins : int;
    total_leaves : int;
    total_splits : int;
    total_merges : int;
    total_rejoins : int;
    total_walks : int;
  }

  let zero_totals =
    {
      total_joins = 0;
      total_leaves = 0;
      total_splits = 0;
      total_merges = 0;
      total_rejoins = 0;
      total_walks = 0;
    }

  type t = {
    params : Params.t;
    rng : Rng.t;
    roster : Node.Roster.t;
    tbl : Tbl.t;
    over : Over.t;
    ledger : Ledger.t;
    mutable time : int;
    mutable pending_rejoin : Node.id list;
    mutable merge_skips : int;
    mutable totals : totals;
    init_rep : init_report;
    (* Pre-resolved ledger labels for the per-walk / per-swap charge sites
       (skips a string hash per charge on the exchange hot path). *)
    h_randcl : Ledger.handle;
    h_swap : Ledger.handle;
    h_view_update : Ledger.handle;
    h_join_insert : Ledger.handle;
    h_leave_notify : Ledger.handle;
    (* Memoised [Cost_model.direct_hop_estimate] (pure in [n_clusters] for
       fixed params); [hps_nc = -1] means empty. *)
    mutable hps_nc : int;
    mutable hps : int;
    (* [2 * Params.max_cluster_size params], hoisted out of the per-walk
       rejection loop (it is float math on immutable params). *)
    split_bound : int;
  }

  let handles_of ledger =
    ( Ledger.handle ledger "randcl",
      Ledger.handle ledger "exchange.swap",
      Ledger.handle ledger "exchange.view_update",
      Ledger.handle ledger "join.insert",
      Ledger.handle ledger "leave.notify" )

  let totals t = t.totals

  let params t = t.params
  let ledger t = t.ledger
  let roster t = t.roster
  let table t = t.tbl
  let overlay t = t.over
  let init_report t = t.init_rep
  let time_step t = t.time

  let rng_cursors t =
    [ ("engine", Rng.save t.rng); ("over", Over.rng_state t.over) ]

  let n_clusters t = Tbl.n_clusters t.tbl
  let n_nodes t = Node.Roster.count t.roster

  let charge t ~label ~messages ~rounds =
    Ledger.charge t.ledger ~label ~messages ~rounds

  let size t cid = Tbl.size t.tbl cid

  (* Upper bound on any cluster size used as the rejection denominator of
     randCl.  Sizes can exceed the split threshold transiently (between an
     insertion/absorption and the split it triggers), hence the slack.  When
     splits are disabled (static-#clusters baseline) sizes are unbounded and
     the live maximum is consulted instead. *)
  let size_bound t =
    let bound = t.split_bound in
    if t.params.Params.allow_split_merge then bound
    else max bound (Tbl.max_size t.tbl + 1)

  let sum_neighbor_view_cost t cid =
    let g = Over.graph t.over in
    let s = size t cid in
    let total = ref 0 in
    Graph.iter_neighbors g cid (fun nb -> total := !total + (s * size t nb));
    !total

  (* ------------------------------------------------------------------ *)
  (* randCl                                                              *)
  (* ------------------------------------------------------------------ *)

  type walk_result = { wr_cluster : int; wr_hops : int; wr_restarts : int; wr_rounds : int }

  let rand_cl_exact t ~start =
    let g = Over.graph t.over in
    let n_c = n_clusters t in
    let duration =
      Cost_model.walk_duration ~walk_c:t.params.Params.walk_duration_c ~n_clusters:n_c
        ~mean_degree:(Graph.mean_degree g)
    in
    let messages = ref 0 and hops = ref 0 and restarts = ref 0 in
    (* Consecutive hops share a vertex (this hop's destination is the next
       hop's source), so one size lookup per hop suffices. *)
    let last_v = ref (-1) and last_size = ref 0 in
    let size_cached c =
      if c <> !last_v then begin
        last_v := c;
        last_size := size t c
      end;
      !last_size
    in
    let on_hop u v =
      incr hops;
      if Trace.net_detail () then
        Trace.point ~attrs:[ ("dst", v); ("src", u) ] ~time:t.time Trace.State
          "randcl.hop";
      let src = size_cached u in
      last_v := v;
      last_size := size t v;
      messages := !messages + Cost_model.hop_messages ~src ~dst:!last_size
    in
    let on_restart v =
      incr restarts;
      messages := !messages + Cost_model.randnum_messages ~size:(size t v)
    in
    let weight c = float_of_int (size t c) in
    let selected =
      Randwalk.Ctrw.biased_select g t.rng ~start ~duration ~weight
        ~max_weight:(float_of_int (size_bound t)) ~on_hop ~on_restart ()
    in
    (* Final acceptance coin. *)
    messages := !messages + Cost_model.randnum_messages ~size:(size t selected);
    let rounds =
      (!hops * Cost_model.hop_rounds) + ((!restarts + 1) * Cost_model.randnum_rounds)
    in
    Ledger.charge_handle t.h_randcl ~messages:!messages ~rounds;
    { wr_cluster = selected; wr_hops = !hops; wr_restarts = !restarts; wr_rounds = rounds }

  let rand_cl_direct t =
    let n_c = n_clusters t in
    let bound = size_bound t in
    let avg = max 1 (Tbl.n_nodes t.tbl / max 1 n_c) in
    let hops_per_segment =
      if t.hps_nc = n_c then t.hps
      else begin
        let h =
          Cost_model.direct_hop_estimate ~walk_c:t.params.Params.walk_duration_c
            ~n_clusters:n_c
        in
        t.hps_nc <- n_c;
        t.hps <- h;
        h
      end
    in
    let messages = ref 0 and hops = ref 0 and restarts = ref 0 in
    let rec attempt budget =
      if budget = 0 then failwith "Engine.rand_cl: rejection budget exhausted";
      let c = Tbl.uniform_cluster t.tbl t.rng in
      let s = size t c in
      hops := !hops + hops_per_segment;
      messages :=
        !messages
        + (hops_per_segment * Cost_model.hop_messages ~src:avg ~dst:avg)
        + Cost_model.randnum_messages ~size:s;
      if Rng.int t.rng bound < s then c
      else begin
        incr restarts;
        attempt (budget - 1)
      end
    in
    let selected = attempt 1_000_000 in
    let rounds =
      (!restarts + 1)
      * ((hops_per_segment * Cost_model.hop_rounds) + Cost_model.randnum_rounds)
    in
    Ledger.charge_handle t.h_randcl ~messages:!messages ~rounds;
    { wr_cluster = selected; wr_hops = !hops; wr_restarts = !restarts; wr_rounds = rounds }

  (* State-level spans stamp the engine's own clock ([t.time]) and charge
     deltas off the engine ledger, so E5-style cross checks can line trace
     output up against {!Cluster}'s message-level spans. *)
  let state_span t name attrs f =
    Trace.with_span ~attrs ~ledger:t.ledger ~time:t.time Trace.State name f

  let rand_cl_internal t acc ~start =
    if n_clusters t <= 1 then
      { wr_cluster = start; wr_hops = 0; wr_restarts = 0; wr_rounds = 0 }
    else begin
      let run () =
        let wr =
          match t.params.Params.walk_mode with
          | Params.Exact_walk -> rand_cl_exact t ~start
          | Params.Direct_sample -> rand_cl_direct t
        in
        acc.a_walks <- acc.a_walks + 1;
        acc.a_hops <- acc.a_hops + wr.wr_hops;
        wr
      in
      (* With no collector installed [with_span] is exactly [run ()]; the
         explicit guard just skips allocating the attrs list on the
         millions-of-walks hot path. *)
      if Trace.active () then state_span t "randcl" [ ("start", start) ] run
      else run ()
    end

  (* ------------------------------------------------------------------ *)
  (* exchange                                                            *)
  (* ------------------------------------------------------------------ *)

  (* Exchange one node out of its cluster; returns (destination, rounds). *)
  let exchange_node t acc node =
    let home = Tbl.cluster_of t.tbl node in
    let wr = rand_cl_internal t acc ~start:home in
    let dest = wr.wr_cluster in
    if dest = home then (home, wr.wr_rounds)
    else begin
      let s_home, s_dest = Tbl.exchange_swap t.tbl t.rng ~node ~dest in
      Ledger.charge_handle t.h_swap
        ~messages:
          (Cost_model.valchan_messages ~src:s_home ~dst:s_dest
          + Cost_model.randnum_messages ~size:s_dest
          + Cost_model.transfer_messages ~src:s_home ~dst:s_dest)
        ~rounds:0;
      ( dest,
        wr.wr_rounds + Cost_model.valchan_rounds + Cost_model.randnum_rounds + 1 )
    end

  (* Exchange every member of [cid] (Section 3.1).  The member walks run in
     parallel, so the critical path is the slowest one.  Returns the
     distinct clusters that swapped a node with [cid]. *)
  let exchange_all t acc cid =
    let snapshot = Tbl.members t.tbl cid in
    let touched = Hashtbl.create 16 in
    let max_rounds = ref 0 in
    List.iter
      (fun node ->
        let dest, rounds = exchange_node t acc node in
        if dest <> cid then Hashtbl.replace touched dest ();
        if rounds > !max_rounds then max_rounds := rounds)
      snapshot;
    let touched = Hashtbl.fold (fun c () l -> c :: l) touched [] in
    (* Composition updates to the neighbourhoods of every affected cluster. *)
    let view_messages =
      List.fold_left
        (fun sum c -> sum + sum_neighbor_view_cost t c)
        0 (cid :: touched)
    in
    Ledger.charge_handle t.h_view_update ~messages:view_messages ~rounds:1;
    acc.a_rounds <- acc.a_rounds + !max_rounds + 1;
    touched

  (* ------------------------------------------------------------------ *)
  (* Split / Merge / Join / Leave                                        *)
  (* ------------------------------------------------------------------ *)

  (* A pick function for OVER's edge drawing, built on randCl. *)
  let over_pick t acc () =
    let start = Tbl.uniform_cluster t.tbl t.rng in
    (rand_cl_internal t acc ~start).wr_cluster

  let rec split t acc cid =
    state_span t "split" [ ("cluster", cid) ] (fun () -> split_run t acc cid)

  and split_run t acc cid =
    let s = size t cid in
    let members = Array.of_list (Tbl.members t.tbl cid) in
    (* Random partition computed with randNum (collaborative ordering). *)
    charge t ~label:"split.partition"
      ~messages:(s * Cost_model.randnum_messages ~size:s)
      ~rounds:(2 * Cost_model.randnum_rounds);
    Rng.shuffle_in_place t.rng members;
    let half = Array.length members / 2 in
    let moving = Array.to_list (Array.sub members 0 half) in
    Tbl.remove_members t.tbl ~cluster:cid ~nodes:moving;
    let fresh = Tbl.new_cluster t.tbl ~members:moving in
    Log.debug (fun m ->
        m "t=%d split: cluster %d (%d members) spawned cluster %d (%d members)"
          t.time cid (size t cid) fresh (size t fresh));
    (* The old cluster keeps its overlay vertex and neighbours; the new one
       is added with Add (edges drawn via randCl). *)
    Over.add_vertex t.over fresh ~pick:(over_pick t acc);
    let view_messages = sum_neighbor_view_cost t cid + sum_neighbor_view_cost t fresh in
    charge t ~label:"split.view_update" ~messages:view_messages ~rounds:1;
    acc.a_rounds <- acc.a_rounds + (2 * Cost_model.randnum_rounds) + 1;
    acc.a_splits <- acc.a_splits + 1

  and maybe_split t acc cid =
    if
      t.params.Params.allow_split_merge
      && size t cid > Params.max_cluster_size t.params
    then split t acc cid

  (* View cost of announcing a disappeared cluster: we can no longer read its
     size from the table, so approximate with the target size. *)
  let sum_neighbor_view_cost_absent t cid =
    ignore cid;
    Params.target_cluster_size t.params * Params.target_cluster_size t.params

  let rec merge t acc cid =
    state_span t "merge" [ ("cluster", cid) ] (fun () -> merge_run t acc cid)

  and merge_run t acc cid =
    if n_clusters t <= 1 then t.merge_skips <- t.merge_skips + 1
    else begin
      acc.a_merges <- acc.a_merges + 1;
      match t.params.Params.merge_policy with
      | Params.Rejoin_self ->
        (* Algorithm 2: drop the cluster; its nodes re-join later. *)
        Log.debug (fun m ->
            m "t=%d merge(rejoin): cluster %d dissolves, %d members queued" t.time
              cid (size t cid));
        let members = Tbl.dissolve t.tbl cid in
        Over.remove_vertex t.over cid ~pick:(over_pick t acc);
        charge t ~label:"merge.dissolve"
          ~messages:(List.length members + sum_neighbor_view_cost_absent t cid)
          ~rounds:1;
        t.pending_rejoin <- t.pending_rejoin @ members
      | Params.Absorb_random_victim ->
        (* Section 3.3: a randCl-chosen victim is removed from the overlay
           (a random removal, as OVER assumes) and absorbed. *)
        let rec pick_victim budget =
          if budget = 0 then None
          else begin
            let start = Tbl.uniform_cluster t.tbl t.rng in
            let v = (rand_cl_internal t acc ~start).wr_cluster in
            if v <> cid then Some v else pick_victim (budget - 1)
          end
        in
        (match pick_victim 1000 with
        | None -> t.merge_skips <- t.merge_skips + 1
        | Some victim ->
          Log.debug (fun m ->
              m "t=%d merge(absorb): cluster %d (%d members) absorbs victim %d \
                 (%d members)"
                t.time cid (size t cid) victim (size t victim));
          let absorbed = Tbl.dissolve t.tbl victim in
          Over.remove_vertex t.over victim ~pick:(over_pick t acc);
          Tbl.add_members t.tbl ~cluster:cid ~nodes:absorbed;
          charge t ~label:"merge.absorb"
            ~messages:(List.length absorbed * size t cid)
            ~rounds:1;
          ignore (exchange_all t acc cid);
          maybe_split t acc cid)
    end

  let join_existing t acc node =
    let contact = Tbl.uniform_cluster t.tbl t.rng in
    let wr = rand_cl_internal t acc ~start:contact in
    let dest = wr.wr_cluster in
    Tbl.add_member t.tbl ~cluster:dest ~node;
    (* Neighbour clusters learn the new composition; the joiner receives its
       neighbourhood along the randCl path. *)
    let g = Over.graph t.over in
    let neighborhood_size = ref (size t dest) in
    Graph.iter_neighbors g dest (fun nb -> neighborhood_size := !neighborhood_size + size t nb);
    Ledger.charge_handle t.h_join_insert
      ~messages:(sum_neighbor_view_cost t dest + !neighborhood_size)
      ~rounds:2;
    acc.a_rounds <- acc.a_rounds + wr.wr_rounds + 2;
    if t.params.Params.shuffle_on_churn then ignore (exchange_all t acc dest);
    maybe_split t acc dest

  let flush_rejoins t acc =
    let rec go () =
      match t.pending_rejoin with
      | [] -> ()
      | node :: rest ->
        t.pending_rejoin <- rest;
        acc.a_rejoins <- acc.a_rejoins + 1;
        join_existing t acc node;
        go ()
    in
    go ()

  let finish t acc snapshot =
    t.totals <-
      {
        t.totals with
        total_splits = t.totals.total_splits + acc.a_splits;
        total_merges = t.totals.total_merges + acc.a_merges;
        total_rejoins = t.totals.total_rejoins + acc.a_rejoins;
        total_walks = t.totals.total_walks + acc.a_walks;
      };
    let diff = Ledger.since t.ledger snapshot in
    {
      messages = diff.Ledger.messages;
      rounds = acc.a_rounds;
      splits = acc.a_splits;
      merges = acc.a_merges;
      walks = acc.a_walks;
      walk_hops = acc.a_hops;
      rejoins = acc.a_rejoins;
    }

  (* Emit a warning the moment the safety invariant is (transiently)
     violated — Theorem 3 predicts this stays rare and self-healing. *)
  let warn_on_violation t =
    if Tbl.violations_now t.tbl > 0 then
      Log.warn (fun m ->
          m "t=%d %d cluster(s) currently at or below 2/3 honest (event #%d)"
            t.time
            (Tbl.violations_now t.tbl)
            (Tbl.violation_events t.tbl))

  let join t honesty =
    state_span t "join"
      [ ("byz", if Node.is_byzantine honesty then 1 else 0) ]
      (fun () ->
        let acc = fresh_acc () in
        let snapshot = Ledger.snapshot t.ledger in
        flush_rejoins t acc;
        let node = Node.Roster.fresh t.roster honesty in
        join_existing t acc node;
        t.time <- t.time + 1;
        t.totals <- { t.totals with total_joins = t.totals.total_joins + 1 };
        warn_on_violation t;
        (node, finish t acc snapshot))

  let exchange_cluster t cid =
    if not (Tbl.exists t.tbl cid) then raise Not_found;
    state_span t "exchange"
      [ ("cluster", cid) ]
      (fun () ->
        let acc = fresh_acc () in
        let snapshot = Ledger.snapshot t.ledger in
        ignore (exchange_all t acc cid);
        finish t acc snapshot)

  (* ------------------------------------------------------------------ *)
  (* Sharded exchange epoch                                              *)
  (* ------------------------------------------------------------------ *)

  (* One proactive shuffle of the whole system: every member of every
     cluster runs one exchange, planned per cluster across the Exec pool
     and applied sequentially in cluster-index order.

     Determinism for any [-j] (the CI-gated invariant) is by construction:

     - the walk plan for cluster index [i] draws only from a generator
       split off the engine stream exactly [i+1] times before the fan-out
       (randomness split by cluster index, per the repo convention);
     - the plan phase is a pure read of frozen state (sorted cluster ids,
       their sizes — invariant under swaps — and member slots); nothing
       mutates and no shared stream is touched, so scheduling cannot
       reorder observable effects;
     - swaps and ledger charges are applied by the caller, in submission
       (cluster-index) order, resolving each planned slot against the
       table at apply time.

     Destinations realise the randCl target distribution |C|/n by
     rejection against the frozen size bound, exactly like
     [Direct_sample]; the walk cost is charged analytically from the same
     formulas as {!rand_cl_direct} (with the mean cluster size standing
     in for the per-attempt candidate size — the plan does not retain the
     rejected candidates).

     Swaps keep every cluster's size and nothing in the epoch edits the
     overlay, so each cluster's view-update cost
     ([sum_neighbor_view_cost]) and every size are constant from the
     plan to the last apply: one table of view costs per epoch, read at
     apply time, is exact, at one neighbourhood scan per cluster. *)
  let exchange_epoch_run t acc =
    let ids = Array.of_list (Tbl.cluster_ids t.tbl) in
    let n_c = Array.length ids in
    if n_c > 1 then begin
      let sizes = Array.map (fun cid -> Tbl.size t.tbl cid) ids in
      let member_snap = Array.map (fun cid -> Array.of_list (Tbl.members t.tbl cid)) ids in
      let bound = size_bound t in
      let avg = max 1 (Tbl.n_nodes t.tbl / n_c) in
      let hops_per_segment =
        Cost_model.direct_hop_estimate ~walk_c:t.params.Params.walk_duration_c
          ~n_clusters:n_c
      in
      let master = Rng.split t.rng in
      let shard_rng = Array.make n_c master in
      for i = 0 to n_c - 1 do
        shard_rng.(i) <- Rng.split master
      done;
      (* Plan: per member, (destination index, replacement slot, restarts),
         flattened 3-per-member. *)
      let plan i =
        let rng = shard_rng.(i) in
        let m = sizes.(i) in
        let out = Array.make (3 * m) 0 in
        for j = 0 to m - 1 do
          let restarts = ref 0 in
          let rec attempt budget =
            if budget = 0 then
              failwith "Engine.exchange_epoch: rejection budget exhausted";
            let c = Rng.int rng n_c in
            if Rng.int rng bound < sizes.(c) then c
            else begin
              incr restarts;
              attempt (budget - 1)
            end
          in
          let dest_idx = attempt 1_000_000 in
          out.(3 * j) <- dest_idx;
          out.((3 * j) + 1) <- Rng.int rng sizes.(dest_idx);
          out.((3 * j) + 2) <- !restarts
        done;
        out
      in
      let plans = Exec.par_map plan (List.init n_c (fun i -> i)) in
      let view_cost = Array.map (fun cid -> sum_neighbor_view_cost t cid) ids in
      (* [stamp.(d) = i + 1] once cluster index [i]'s apply has charged
         destination [d]: the distinct touched clusters, without a table. *)
      let stamp = Array.make n_c 0 in
      (* Apply + charge, sequentially in cluster-index order. *)
      let walk_rounds = (hops_per_segment * Cost_model.hop_rounds) + Cost_model.randnum_rounds in
      let epoch_max = ref 0 in
      List.iteri
        (fun i plan ->
          (* The cluster's own cost once, plus each distinct destination
             once.  [i] is not pre-marked: a member planned from [i] may
             already have been swapped out by an earlier cluster's apply,
             and if its walk lands back in [i] that counts [i] again. *)
          let view_messages = ref view_cost.(i) in
          let max_rounds = ref 0 in
          for j = 0 to sizes.(i) - 1 do
            let d = plan.(3 * j) in
            let dest = ids.(d) in
            let slot = plan.((3 * j) + 1) in
            let attempts = plan.((3 * j) + 2) + 1 in
            Ledger.charge_handle t.h_randcl
              ~messages:
                (attempts
                * ((hops_per_segment * Cost_model.hop_messages ~src:avg ~dst:avg)
                  + Cost_model.randnum_messages ~size:avg))
              ~rounds:(attempts * walk_rounds);
            acc.a_walks <- acc.a_walks + 1;
            acc.a_hops <- acc.a_hops + (attempts * hops_per_segment);
            let node = member_snap.(i).(j) in
            let home = Tbl.cluster_of t.tbl node in
            let rounds = ref (attempts * walk_rounds) in
            if dest <> home then begin
              let b = Tbl.member_at t.tbl dest slot in
              Tbl.swap t.tbl node b;
              let s_dest = sizes.(d) in
              Ledger.charge_handle t.h_swap
                ~messages:
                  (Cost_model.valchan_messages ~src:sizes.(i) ~dst:s_dest
                  + Cost_model.randnum_messages ~size:s_dest
                  + Cost_model.transfer_messages ~src:sizes.(i) ~dst:s_dest)
                ~rounds:0;
              rounds :=
                !rounds + Cost_model.valchan_rounds + Cost_model.randnum_rounds + 1;
              if stamp.(d) <> i + 1 then begin
                stamp.(d) <- i + 1;
                view_messages := !view_messages + view_cost.(d)
              end
            end;
            if !rounds > !max_rounds then max_rounds := !rounds
          done;
          Ledger.charge_handle t.h_view_update ~messages:!view_messages ~rounds:1;
          if !max_rounds + 1 > !epoch_max then epoch_max := !max_rounds + 1)
        plans;
      (* Clusters shuffle in parallel: the epoch's critical path is the
         slowest cluster. *)
      acc.a_rounds <- acc.a_rounds + !epoch_max
    end

  let exchange_epoch t =
    state_span t "exchange_epoch" [] (fun () ->
        let acc = fresh_acc () in
        let snapshot = Ledger.snapshot t.ledger in
        exchange_epoch_run t acc;
        finish t acc snapshot)

  let leave_run t node =
    let acc = fresh_acc () in
    let snapshot = Ledger.snapshot t.ledger in
    flush_rejoins t acc;
    let cid = Tbl.cluster_of t.tbl node in
    Node.Roster.remove t.roster node;
    Tbl.remove_member t.tbl ~node;
    (* Members of C drop x from their views and tell the neighbours. *)
    Ledger.charge_handle t.h_leave_notify
      ~messages:(size t cid + sum_neighbor_view_cost t cid)
      ~rounds:1;
    acc.a_rounds <- acc.a_rounds + 1;
    if t.params.Params.shuffle_on_churn then begin
      let touched = exchange_all t acc cid in
      (* One-level cascade (Theorem 3's proof): every cluster that swapped a
         node with C re-randomises its own membership.  The cascade exchanges
         run in parallel; account rounds as the slowest branch. *)
      let before_cascade = acc.a_rounds in
      let max_branch = ref 0 in
      List.iter
        (fun c ->
          acc.a_rounds <- before_cascade;
          ignore (exchange_all t acc c);
          if acc.a_rounds - before_cascade > !max_branch then
            max_branch := acc.a_rounds - before_cascade)
        touched;
      acc.a_rounds <- before_cascade + !max_branch
    end;
    if
      t.params.Params.allow_split_merge
      && size t cid < Params.min_cluster_size t.params
    then merge t acc cid;
    t.time <- t.time + 1;
    t.totals <- { t.totals with total_leaves = t.totals.total_leaves + 1 };
    warn_on_violation t;
    finish t acc snapshot

  let leave t node =
    if not (Node.Roster.is_present t.roster node) then
      invalid_arg "Engine.leave: node is not present";
    state_span t "leave" [ ("node", node) ] (fun () -> leave_run t node)

  (* ------------------------------------------------------------------ *)
  (* Initialisation phase (Section 3.2)                                  *)
  (* ------------------------------------------------------------------ *)

  (* Shared tail of the two constructors: random partition into ~k log N
     groups, initial ER overlay, representative-cluster announcements. *)
  let finish_create ~params ~rng ~roster ~tbl ~ledger ~ids ~n0 ~bootstrap_edges
      ~discovery_messages ~discovery_rounds =
    let agreement_messages = Cost_model.king_saia_messages ~n:n0 in
    let agreement_rounds = Cost_model.king_saia_rounds ~n:n0 in
    Ledger.charge ledger ~label:"init.agreement" ~messages:agreement_messages
      ~rounds:agreement_rounds;
    (* --- Random partition into clusters of ~ k log N nodes. --- *)
    let target = Params.target_cluster_size params in
    let shuffled = Rng.shuffle rng (Array.of_list ids) in
    let n_groups =
      max 1 (int_of_float (Float.round (float_of_int n0 /. float_of_int target)))
    in
    let base = n0 / n_groups and extra = n0 mod n_groups in
    let groups = ref [] in
    let pos = ref 0 in
    for g = 0 to n_groups - 1 do
      let s = base + (if g < extra then 1 else 0) in
      groups := Array.to_list (Array.sub shuffled !pos s) :: !groups;
      pos := !pos + s
    done;
    let cluster_ids =
      List.map (fun members -> Tbl.new_cluster tbl ~members) !groups
    in
    let over =
      Over.create ~rng:(Rng.split rng)
        ~target_degree:(fun ~n_vertices ->
          Params.overlay_target_degree params ~n_clusters:n_vertices)
    in
    Over.init_erdos_renyi over ~vertices:cluster_ids;
    (* The representative cluster tells each node its cluster, the members,
       and the neighbouring clusters' compositions. *)
    let mean_degree = Graph.mean_degree (Over.graph over) in
    let partition_messages =
      n0 * (1 + target + int_of_float (mean_degree *. float_of_int target))
    in
    Ledger.charge ledger ~label:"init.partition" ~messages:partition_messages ~rounds:2;
    let init_rep =
      {
        n0;
        bootstrap_edges;
        discovery_messages;
        discovery_rounds;
        agreement_messages;
        agreement_rounds;
        partition_messages;
        initial_clusters = List.length cluster_ids;
      }
    in
    let h_randcl, h_swap, h_view_update, h_join_insert, h_leave_notify =
      handles_of ledger
    in
    {
      params;
      rng;
      roster;
      tbl;
      over;
      ledger;
      time = 0;
      pending_rejoin = [];
      merge_skips = 0;
      totals = zero_totals;
      init_rep;
      h_randcl;
      h_swap;
      h_view_update;
      h_join_insert;
      h_leave_notify;
      hps_nc = -1;
      hps = 0;
      split_bound = 2 * Params.max_cluster_size params;
    }

  let start_create name ~seed ~initial =
    let n0 = List.length initial in
    if n0 = 0 then invalid_arg (name ^ ": empty initial population");
    let rng = Rng.create seed in
    let roster = Node.Roster.create () in
    let ids = List.map (fun h -> Node.Roster.fresh roster h) initial in
    let is_byzantine node = Node.is_byzantine (Node.Roster.honesty roster node) in
    let tbl = Tbl.create ~is_byzantine in
    let ledger = Ledger.create () in
    (n0, rng, roster, ids, tbl, ledger)

  let bootstrap_p n0 =
    Float.min 1.0 (3.0 *. log (float_of_int (max 2 n0)) /. float_of_int (max 2 n0))

  let create ?(seed = 0x5EEDL) params ~initial =
    let n0, rng, roster, ids, tbl, ledger =
      start_create "Engine.create" ~seed ~initial
    in
    (* --- Network discovery over a physical bootstrap graph. --- *)
    let bootstrap = Dsgraph.Gen.erdos_renyi rng ~n:n0 ~p:(bootstrap_p n0) in
    (match Dsgraph.Traversal.connected_components bootstrap with
    | [] | [ _ ] -> ()
    | main :: rest ->
      let anchor = List.hd main in
      List.iter
        (fun comp -> ignore (Graph.add_edge bootstrap anchor (List.hd comp)))
        rest);
    let bootstrap_edges = Graph.n_edges bootstrap in
    let discovery_messages = n0 * bootstrap_edges in
    (* Flooding terminates within the diameter of the graph restricted to
       edges adjacent to an honest node; we report the eccentricity of a
       sample vertex (the graphs here are ER, whose eccentricities are
       within one or two of the diameter). *)
    let discovery_rounds =
      if n0 = 1 then 0 else Dsgraph.Traversal.eccentricity bootstrap (Rng.int rng n0)
    in
    Ledger.charge ledger ~label:"init.discovery" ~messages:discovery_messages
      ~rounds:discovery_rounds;
    finish_create ~params ~rng ~roster ~tbl ~ledger ~ids ~n0 ~bootstrap_edges
      ~discovery_messages ~discovery_rounds

  (* The 10^5–10^6-node constructor: identical partition and overlay, but
     the Θ(n log n)-edge physical bootstrap graph is charged analytically
     (expected ER edge count, log-diameter flooding bound) instead of
     materialised — building it at n = 10^6 would dominate the whole run
     while contributing nothing beyond its two ledger numbers.  The RNG
     stream therefore differs from {!create} (no per-edge draws): the two
     constructors are distinct seeding conventions, not interchangeable. *)
  let create_scaled ?(seed = 0x5EEDL) params ~initial =
    let n0, rng, roster, ids, tbl, ledger =
      start_create "Engine.create_scaled" ~seed ~initial
    in
    let nf = float_of_int (max 2 n0) in
    let p = bootstrap_p n0 in
    let bootstrap_edges =
      int_of_float (Float.round (p *. nf *. (nf -. 1.0) /. 2.0))
    in
    let discovery_messages = n0 * bootstrap_edges in
    let discovery_rounds =
      if n0 = 1 then 0
      else begin
        (* ER diameter concentrates on ln n / ln (np); +1 for the slack the
           eccentricity sample carries in [create]. *)
        let mean_deg = Float.max 2.0 (p *. nf) in
        1 + int_of_float (Float.ceil (log nf /. log mean_deg))
      end
    in
    Ledger.charge ledger ~label:"init.discovery" ~messages:discovery_messages
      ~rounds:discovery_rounds;
    finish_create ~params ~rng ~roster ~tbl ~ledger ~ids ~n0 ~bootstrap_edges
      ~discovery_messages ~discovery_rounds

  (* ------------------------------------------------------------------ *)
  (* Observation                                                         *)
  (* ------------------------------------------------------------------ *)

  let random_node t =
    let bound = size_bound t in
    let cid = Tbl.sample_cluster_by_size t.tbl t.rng ~size_bound:bound in
    Tbl.uniform_member t.tbl t.rng cid

  let random_node_where t pred =
    let rec attempt budget =
      if budget = 0 then None
      else begin
        let node = random_node t in
        if pred node then Some node else attempt (budget - 1)
      end
    in
    attempt 100_000

  let uniform_member t cid = Tbl.uniform_member t.tbl t.rng cid

  let rand_cl t ?start () =
    let acc = fresh_acc () in
    let snapshot = Ledger.snapshot t.ledger in
    let start =
      match start with
      | Some s -> s
      | None -> Tbl.uniform_cluster t.tbl t.rng
    in
    let wr = rand_cl_internal t acc ~start in
    acc.a_rounds <- wr.wr_rounds;
    (wr.wr_cluster, finish t acc snapshot)

  let min_honest_fraction t = Tbl.min_honest_fraction t.tbl

  let violations_now t = Tbl.violations_now t.tbl

  let violation_events t = Tbl.violation_events t.tbl

  let cluster_sizes t =
    List.map (fun cid -> size t cid) (Tbl.cluster_ids t.tbl)

  let byz_fractions t =
    List.map
      (fun cid -> Tbl.byz_fraction t.tbl cid)
      (Tbl.cluster_ids t.tbl)

  let cluster_stats t =
    List.map
      (fun cid -> (cid, size t cid, Tbl.byz_count t.tbl cid))
      (Tbl.cluster_ids t.tbl)

  let overlay_health ?spectral_iterations t = Over.health ?spectral_iterations t.over

  (* ------------------------------------------------------------------ *)
  (* The read-only view                                                  *)
  (* ------------------------------------------------------------------ *)

  let view t =
    {
      View.params = t.params;
      init_report = t.init_rep;
      time = (fun () -> t.time);
      merge_skips = (fun () -> t.merge_skips);
      pending_rejoin = (fun () -> t.pending_rejoin);
      rng_cursors = (fun () -> rng_cursors t);
      totals = (fun () -> t.totals);
      n_nodes = (fun () -> n_nodes t);
      n_clusters = (fun () -> n_clusters t);
      cluster_ids = (fun () -> Tbl.cluster_ids t.tbl);
      members = (fun cid -> Tbl.members t.tbl cid);
      cluster_of =
        (fun id ->
          match Tbl.cluster_of t.tbl id with
          | cid -> cid
          | exception Not_found -> -1);
      cluster_stats = (fun () -> cluster_stats t);
      min_honest_fraction = (fun () -> min_honest_fraction t);
      violations_now = (fun () -> violations_now t);
      violation_events = (fun () -> violation_events t);
      total_allocated = (fun () -> Node.Roster.total_allocated t.roster);
      honesty = (fun id -> Node.Roster.honesty t.roster id);
      is_present = (fun id -> Node.Roster.is_present t.roster id);
      graph = (fun () -> Over.graph t.over);
      overlay_health =
        (fun ?spectral_iterations () -> overlay_health ?spectral_iterations t);
      ledger = (fun () -> t.ledger);
    }

  type batch_op = Batch_join of Node.honesty | Batch_leave of Node.id

  let batch t ops =
    let joined = ref [] in
    let combined = ref None in
    List.iter
      (fun op ->
        let report =
          match op with
          | Batch_join honesty ->
            let node, r = join t honesty in
            joined := node :: !joined;
            r
          | Batch_leave node -> leave t node
        in
        combined :=
          Some
            (match !combined with
            | None -> report
            | Some acc ->
              {
                messages = acc.messages + report.messages;
                rounds = max acc.rounds report.rounds;
                splits = acc.splits + report.splits;
                merges = acc.merges + report.merges;
                walks = acc.walks + report.walks;
                walk_hops = acc.walk_hops + report.walk_hops;
                rejoins = acc.rejoins + report.rejoins;
              }))
      ops;
    let report =
      match !combined with
      | Some r -> r
      | None ->
        { messages = 0; rounds = 0; splits = 0; merges = 0; walks = 0; walk_hops = 0; rejoins = 0 }
    in
    (List.rev !joined, report)

  (* ------------------------------------------------------------------ *)
  (* Snapshots                                                           *)
  (* ------------------------------------------------------------------ *)

  let save t = View.save (view t)

  let load data =
    let fail fmt = Printf.ksprintf failwith ("Engine.load: " ^^ fmt) in
    let lines =
      match String.split_on_char '\n' data with
      | "NOW-SNAPSHOT v1" :: rest -> rest
      | _ -> fail "bad header (expected NOW-SNAPSHOT v1)"
    in
    let params = ref None in
    let rng_state = ref 0L in
    let over_rng_state = ref 0L in
    let time = ref 0 in
    let merge_skips = ref 0 in
    let events = ref 0 in
    let totals = ref zero_totals in
    let init_rep = ref None in
    let honesty : (int, Node.honesty) Hashtbl.t = Hashtbl.create 1024 in
    let present : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
    let total_nodes = ref 0 in
    let clusters = ref [] in
    let edges = ref [] in
    let pending = ref [] in
    let ledger_entries = ref [] in
    let ints s = List.filter_map int_of_string_opt (String.split_on_char ' ' s) in
    List.iter
      (fun line ->
        match String.index_opt line ' ' with
        | None -> ()
        | Some i ->
          let key = String.sub line 0 i in
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          (match key with
          | "params" ->
            Scanf.sscanf rest "%d %d %f %f %f %f %f %f %d %d %d %d"
              (fun n_max k l tau epsilon overlay_c overlay_alpha walk_c wm mp sh sm ->
                params :=
                  Some
                    (Params.make ~k ~l ~tau ~epsilon ~overlay_c ~overlay_alpha
                       ~walk_duration_c:walk_c
                       ~walk_mode:(if wm = 0 then Params.Exact_walk else Params.Direct_sample)
                       ~merge_policy:
                         (if mp = 0 then Params.Absorb_random_victim else Params.Rejoin_self)
                       ~shuffle_on_churn:(sh = 1) ~allow_split_merge:(sm = 1) ~n_max ()))
          | "rng" ->
            Scanf.sscanf rest "%Ld %Ld" (fun s os ->
                rng_state := s;
                over_rng_state := os)
          | "time" -> time := int_of_string rest
          | "merge_skips" -> merge_skips := int_of_string rest
          | "events" -> events := int_of_string rest
          | "totals" ->
            Scanf.sscanf rest "%d %d %d %d %d %d" (fun j l sp m r w ->
                totals :=
                  {
                    total_joins = j;
                    total_leaves = l;
                    total_splits = sp;
                    total_merges = m;
                    total_rejoins = r;
                    total_walks = w;
                  })
          | "init" ->
            Scanf.sscanf rest "%d %d %d %d %d %d %d %d"
              (fun n0 be dm dr am ar pm ic ->
                init_rep :=
                  Some
                    {
                      n0;
                      bootstrap_edges = be;
                      discovery_messages = dm;
                      discovery_rounds = dr;
                      agreement_messages = am;
                      agreement_rounds = ar;
                      partition_messages = pm;
                      initial_clusters = ic;
                    })
          | "nodes" -> total_nodes := int_of_string rest
          | "n" ->
            Scanf.sscanf rest "%d %c%c" (fun id h pr ->
                Hashtbl.replace honesty id
                  (if h = 'b' then Node.Byzantine else Node.Honest);
                if pr = 'p' then Hashtbl.replace present id ())
          | "cluster" ->
            (match ints rest with
            | cid :: members -> clusters := (cid, members) :: !clusters
            | [] -> fail "empty cluster line")
          | "edge" -> Scanf.sscanf rest "%d %d" (fun u v -> edges := (u, v) :: !edges)
          | "pending" -> pending := ints rest
          | "ledger" ->
            Scanf.sscanf rest "%s %d %d" (fun label m r ->
                ledger_entries := (label, m, r) :: !ledger_entries)
          | _ -> fail "unknown record %S" key))
      lines;
    let params = match !params with Some p -> p | None -> fail "missing params" in
    let init_rep = match !init_rep with Some r -> r | None -> fail "missing init" in
    (* Rebuild the roster: ids are allocated sequentially, so re-playing the
       allocations in order reproduces them. *)
    let roster = Node.Roster.create () in
    for id = 0 to !total_nodes - 1 do
      let h =
        match Hashtbl.find_opt honesty id with
        | Some h -> h
        | None -> fail "missing node %d" id
      in
      let id' = Node.Roster.fresh roster h in
      if id' <> id then fail "non-sequential node ids"
    done;
    for id = 0 to !total_nodes - 1 do
      if not (Hashtbl.mem present id) then Node.Roster.remove roster id
    done;
    let is_byzantine node = Node.is_byzantine (Node.Roster.honesty roster node) in
    let tbl = Tbl.create ~is_byzantine in
    List.iter
      (fun (cid, members) -> Tbl.new_cluster_with_id tbl ~cid ~members)
      (List.sort compare !clusters);
    (* The saved cumulative counter supersedes any events counted while
       re-installing the clusters. *)
    Tbl.restore_violation_events tbl !events;
    let rng = Rng.restore !rng_state in
    let over =
      Over.restore ~rng:(Rng.restore !over_rng_state)
        ~target_degree:(fun ~n_vertices ->
          Params.overlay_target_degree params ~n_clusters:n_vertices)
        ~vertices:(List.map fst !clusters) ~edges:!edges
    in
    let ledger = Metrics.Ledger.create () in
    List.iter
      (fun (label, messages, rounds) -> Metrics.Ledger.charge ledger ~label ~messages ~rounds)
      !ledger_entries;
    let h_randcl, h_swap, h_view_update, h_join_insert, h_leave_notify =
      handles_of ledger
    in
    {
      params;
      rng;
      roster;
      tbl;
      over;
      ledger;
      time = !time;
      pending_rejoin = !pending;
      merge_skips = !merge_skips;
      totals = !totals;
      init_rep;
      h_randcl;
      h_swap;
      h_view_update;
      h_join_insert;
      h_leave_notify;
      hps_nc = -1;
      hps = 0;
      split_bound = 2 * Params.max_cluster_size params;
    }

  let check_invariants t =
    Tbl.check_consistency t.tbl;
    let cids = Tbl.cluster_ids t.tbl in
    let g = Over.graph t.over in
    if Graph.n_vertices g <> List.length cids then
      failwith "Engine: overlay vertex count differs from cluster count";
    List.iter
      (fun cid ->
        if not (Graph.has_vertex g cid) then
          failwith "Engine: cluster missing from overlay")
      cids;
    if n_nodes t <> Tbl.n_nodes t.tbl + List.length t.pending_rejoin then
      failwith "Engine: roster and table disagree on the population";
    let maxs = Params.max_cluster_size t.params in
    let mins = Params.min_cluster_size t.params in
    if t.params.Params.allow_split_merge then
      List.iter
        (fun cid ->
          let s = size t cid in
          if s > maxs then failwith "Engine: cluster above the split threshold";
          if s < mins && List.length cids > 1 && t.merge_skips = 0 && t.time > 0 then
            failwith "Engine: cluster below the merge threshold")
        cids
end
