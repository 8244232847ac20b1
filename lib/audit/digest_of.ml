(* Canonical per-subsystem digests of both engines' state.

   Everything is digested in an explicitly *sorted* order — cluster ids,
   member lists, overlay edges, ledger labels, RNG stream names — so the
   digest is a pure function of the state, never of hashtable iteration
   or insertion order.  The orders come from ascending walks (node ids,
   the overlay's ascending edge walk) or int/string comparisons, never
   from polymorphic [compare], so a state-level frame costs time linear
   in the nodes and edges it folds.  Every read below is a plain
   accessor: no random stream is touched and nothing is mutated (the
   zero-perturbation contract the monitor's probes already obey). *)

module Engine = Now_core.Engine
module Node = Now_core.Node
module View = Now_core.View
module Config = Cluster.Config
module Graph = Dsgraph.Graph

let subsystems = [ "honesty"; "ledger"; "overlay"; "rng"; "table" ]

(* Shared folds ---------------------------------------------------- *)

let overlay_of_graph g =
  let h = ref (Fnv.int (Fnv.int Fnv.init (Graph.version g)) (Graph.n_vertices g)) in
  Graph.iter_sorted_edges g (fun u v -> h := Fnv.int (Fnv.int !h u) v);
  !h

let rng_of_cursors cursors =
  List.fold_left
    (fun h (name, state) -> Fnv.int64 (Fnv.string h name) state)
    Fnv.init
    (List.sort (fun (a, _) (b, _) -> String.compare a b) cursors)

(* [Ledger.labels] lists each label once, sorted by label. *)
let ledger_of ledger =
  List.fold_left
    (fun h (label, messages, rounds) ->
      Fnv.int (Fnv.int (Fnv.string h label) messages) rounds)
    Fnv.init (Metrics.Ledger.labels ledger)

(* State-level engine ---------------------------------------------- *)

(* The partition, folded as cid, its members ascending, then -1, for
   every cluster in ascending cid order.  One pass over the node ids
   drops each clustered id into its cluster's bucket (a counting sort
   sized by [cluster_stats]), so every bucket comes out ascending with no
   comparison at all.  Plain loops keep the running digest unboxed. *)
let table_of_view (v : View.t) =
  let stats = Array.of_list (v.View.cluster_stats ()) in
  let n_cids = Array.fold_left (fun m (cid, _, _) -> max m (cid + 1)) 0 stats in
  let next = Array.make n_cids 0 in
  let n = ref 0 in
  for i = 0 to Array.length stats - 1 do
    let cid, size, _ = stats.(i) in
    next.(cid) <- !n;
    n := !n + size
  done;
  let bucket = Array.make !n 0 in
  for id = 0 to v.View.total_allocated () - 1 do
    let cid = v.View.cluster_of id in
    if cid >= 0 then begin
      bucket.(next.(cid)) <- id;
      next.(cid) <- next.(cid) + 1
    end
  done;
  let h = ref Fnv.init and off = ref 0 in
  for i = 0 to Array.length stats - 1 do
    let cid, size, _ = stats.(i) in
    h := Fnv.int !h cid;
    for k = !off to !off + size - 1 do
      h := Fnv.int !h bucket.(k)
    done;
    h := Fnv.int !h (-1);
    off := !off + size
  done;
  !h

let view (v : View.t) =
  let table = table_of_view v in
  let honesty =
    let h = ref Fnv.init in
    for id = 0 to v.View.total_allocated () - 1 do
      let mark =
        match v.View.honesty id with
        | Node.Honest -> 0
        | Node.Byzantine -> 1
      in
      let present = if v.View.is_present id then 2 else 0 in
      h := Fnv.int !h (mark lor present)
    done;
    !h
  in
  let overlay = overlay_of_graph (v.View.graph ()) in
  let rng = rng_of_cursors (v.View.rng_cursors ()) in
  let ledger = ledger_of (v.View.ledger ()) in
  [
    ("honesty", honesty);
    ("ledger", ledger);
    ("overlay", overlay);
    ("rng", rng);
    ("table", table);
  ]

let engine e = view (Engine.view e)

(* Message-level configuration ------------------------------------- *)

let config ?(extra_rng = []) c =
  (* Each cluster's members sorted once, for both folds. *)
  let clusters =
    List.map
      (fun cid -> (cid, List.sort Int.compare (Config.members c cid)))
      (List.sort Int.compare (Config.cluster_ids c))
  in
  let table =
    List.fold_left
      (fun h (cid, members) ->
        Fnv.int (List.fold_left Fnv.int (Fnv.int h cid) members) (-1))
      Fnv.init clusters
  in
  let honesty =
    List.fold_left
      (fun h (cid, members) ->
        List.fold_left
          (fun h node ->
            Fnv.int (Fnv.int h node) (if Config.is_byzantine c node then 1 else 0))
          (Fnv.int h cid) members)
      Fnv.init clusters
  in
  let overlay = overlay_of_graph (Config.overlay c) in
  let rng = rng_of_cursors (Config.rng_cursors c @ extra_rng) in
  let ledger = ledger_of (Config.ledger c) in
  [
    ("honesty", honesty);
    ("ledger", ledger);
    ("overlay", overlay);
    ("rng", rng);
    ("table", table);
  ]
