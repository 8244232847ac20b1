(* Narrow read-only window onto an engine's state.

   Every external reader — monitor probes, audit digests, scenario driver
   stats, the snapshot writer — consumes this record instead of the
   engine's representation, so the flat-arena refactor (or any future
   representation change) cannot leak: as long as both engines build the
   same view, everything downstream is byte-identical by construction.

   All fields are read-only accessors.  Zero-perturbation contract: none
   of them draws from a random stream or mutates anything (the closures
   close over the engine but only ever read it). *)

type totals = {
  total_joins : int;
  total_leaves : int;
  total_splits : int;
  total_merges : int;
  total_rejoins : int;
  total_walks : int;
}

type init_report = {
  n0 : int;
  bootstrap_edges : int;
  discovery_messages : int;
  discovery_rounds : int;
  agreement_messages : int;
  agreement_rounds : int;
  partition_messages : int;
  initial_clusters : int;
}

type t = {
  params : Params.t;
  init_report : init_report;
  time : unit -> int;
  merge_skips : unit -> int;
  pending_rejoin : unit -> int list;
  rng_cursors : unit -> (string * int64) list;
  totals : unit -> totals;
  n_nodes : unit -> int;
  n_clusters : unit -> int;
  cluster_ids : unit -> int list;
  members : int -> int list;
  cluster_of : int -> int;
  cluster_stats : unit -> (int * int * int) list;
  min_honest_fraction : unit -> float;
  violations_now : unit -> int;
  violation_events : unit -> int;
  total_allocated : unit -> int;
  honesty : int -> Node.honesty;
  is_present : int -> bool;
  graph : unit -> Dsgraph.Graph.t;
  overlay_health : ?spectral_iterations:int -> unit -> Over.health;
  ledger : unit -> Metrics.Ledger.t;
}

(* The engine snapshot writer, shared by both engine representations (it
   reads exclusively through the view, so arena and reference engines
   serialise byte-identically by construction). *)
let save v =
  let buf = Buffer.create 4096 in
  let p = v.params in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  addf "NOW-SNAPSHOT v1";
  addf "params %d %d %.17g %.17g %.17g %.17g %.17g %.17g %d %d %d %d" p.Params.n_max
    p.Params.k p.Params.l p.Params.tau p.Params.epsilon p.Params.overlay_c
    p.Params.overlay_alpha p.Params.walk_duration_c
    (match p.Params.walk_mode with Params.Exact_walk -> 0 | Params.Direct_sample -> 1)
    (match p.Params.merge_policy with
    | Params.Absorb_random_victim -> 0
    | Params.Rejoin_self -> 1)
    (if p.Params.shuffle_on_churn then 1 else 0)
    (if p.Params.allow_split_merge then 1 else 0);
  let cursors = v.rng_cursors () in
  let cursor name =
    match List.assoc_opt name cursors with
    | Some s -> s
    | None -> failwith ("View.save: missing rng cursor " ^ name)
  in
  addf "rng %Ld %Ld" (cursor "engine") (cursor "over");
  addf "time %d" (v.time ());
  addf "merge_skips %d" (v.merge_skips ());
  addf "events %d" (v.violation_events ());
  let tot = v.totals () in
  addf "totals %d %d %d %d %d %d" tot.total_joins tot.total_leaves
    tot.total_splits tot.total_merges tot.total_rejoins tot.total_walks;
  let r = v.init_report in
  addf "init %d %d %d %d %d %d %d %d" r.n0 r.bootstrap_edges r.discovery_messages
    r.discovery_rounds r.agreement_messages r.agreement_rounds r.partition_messages
    r.initial_clusters;
  (* Roster: honesty of every allocated id, presence flag. *)
  addf "nodes %d" (v.total_allocated ());
  for id = 0 to v.total_allocated () - 1 do
    let h = match v.honesty id with Node.Honest -> 'h' | Node.Byzantine -> 'b' in
    let present = if v.is_present id then 'p' else 'a' in
    addf "n %d %c%c" id h present
  done;
  (* Partition. *)
  List.iter
    (fun cid ->
      addf "cluster %d %s" cid
        (String.concat " " (List.map string_of_int (v.members cid))))
    (v.cluster_ids ());
  (* Overlay edges, canonically ordered so snapshots are stable. *)
  Dsgraph.Graph.iter_sorted_edges (v.graph ()) (fun u vx -> addf "edge %d %d" u vx);
  (* Pending re-joins (ordered). *)
  addf "pending %s" (String.concat " " (List.map string_of_int (v.pending_rejoin ())));
  (* Ledger. *)
  List.iter
    (fun (label, messages, rounds) -> addf "ledger %s %d %d" label messages rounds)
    (Metrics.Ledger.labels (v.ledger ()));
  Buffer.contents buf
