(* The original record/hashtable cluster table, kept verbatim as the
   oracle for the flat-arena {!Cluster_table}: the qcheck equivalence
   suite drives both implementations with identical churn + exchange
   sequences and compares snapshots, stats and audit digests (the
   cached-path convention — see "Hot paths and caching" in DESIGN.md). *)

module Rng = Prng.Rng

type cluster = { cid : int; members_vec : Vec.t; mutable byz : int }

(* node_pos values pack (cluster id, member index) into one immediate int
   (cid lsl pos_bits | index): the exchange loop hits this table hardest
   and a packed value spares the pair allocation on every update. *)
let pos_bits = 24

let pos_mask = (1 lsl pos_bits) - 1

type t = {
  is_byzantine : int -> bool;
  by_id : (int, cluster) Hashtbl.t;
  ids : Vec.t;  (* cluster ids, dense, for O(1) uniform sampling *)
  id_pos : (int, int) Hashtbl.t;  (* cluster id -> index in ids *)
  node_pos : (int, int) Hashtbl.t;  (* node -> packed (cluster id, index) *)
  mutable next_cid : int;
  mutable total_nodes : int;
  mutable violating : int;
  mutable violation_events : int;
}

let create ~is_byzantine =
  {
    is_byzantine;
    by_id = Hashtbl.create 256;
    ids = Vec.create ();
    id_pos = Hashtbl.create 256;
    node_pos = Hashtbl.create 4096;
    next_cid = 0;
    total_nodes = 0;
    violating = 0;
    violation_events = 0;
  }

let violates c = Vec.length c.members_vec <= 3 * c.byz && Vec.length c.members_vec > 0

(* Wrap any mutation of a cluster so the violation counters stay exact. *)
let with_violation_tracking t c mutate =
  let before = violates c in
  mutate ();
  let after = violates c in
  if before && not after then t.violating <- t.violating - 1
  else if (not before) && after then begin
    t.violating <- t.violating + 1;
    t.violation_events <- t.violation_events + 1
  end

let find t cid =
  match Hashtbl.find_opt t.by_id cid with
  | Some c -> c
  | None -> raise Not_found

let exists t cid = Hashtbl.mem t.by_id cid

let add_member_raw t c node =
  if Hashtbl.mem t.node_pos node then
    invalid_arg "Cluster_table: node already has a cluster";
  Vec.push c.members_vec node;
  let idx = Vec.length c.members_vec - 1 in
  if idx > pos_mask then invalid_arg "Cluster_table: cluster too large";
  Hashtbl.replace t.node_pos node ((c.cid lsl pos_bits) lor idx);
  if t.is_byzantine node then c.byz <- c.byz + 1;
  t.total_nodes <- t.total_nodes + 1

let install_cluster t cid members =
  let c = { cid; members_vec = Vec.create (); byz = 0 } in
  Hashtbl.replace t.by_id cid c;
  Hashtbl.replace t.id_pos cid (Vec.length t.ids);
  Vec.push t.ids cid;
  with_violation_tracking t c (fun () -> List.iter (add_member_raw t c) members)

let new_cluster t ~members =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  install_cluster t cid members;
  cid

let new_cluster_with_id t ~cid ~members =
  if Hashtbl.mem t.by_id cid then
    invalid_arg "Cluster_table.new_cluster_with_id: id in use";
  if cid >= t.next_cid then t.next_cid <- cid + 1;
  install_cluster t cid members

let remove_member_raw t c node =
  let idx = Hashtbl.find t.node_pos node land pos_mask in
  let removed = Vec.swap_remove c.members_vec idx in
  assert (removed = node);
  (* The former last element now lives at idx. *)
  if idx < Vec.length c.members_vec then begin
    let moved = Vec.get c.members_vec idx in
    Hashtbl.replace t.node_pos moved ((c.cid lsl pos_bits) lor idx)
  end;
  Hashtbl.remove t.node_pos node;
  if t.is_byzantine node then c.byz <- c.byz - 1;
  t.total_nodes <- t.total_nodes - 1

let dissolve t cid =
  let c = find t cid in
  let members = Vec.to_list c.members_vec in
  with_violation_tracking t c (fun () ->
      List.iter (remove_member_raw t c) members);
  (* Drop the (now empty, non-violating) cluster from the id structures. *)
  Hashtbl.remove t.by_id cid;
  let pos = Hashtbl.find t.id_pos cid in
  ignore (Vec.swap_remove t.ids pos);
  if pos < Vec.length t.ids then Hashtbl.replace t.id_pos (Vec.get t.ids pos) pos;
  Hashtbl.remove t.id_pos cid;
  members

let add_member t ~cluster ~node =
  let c = find t cluster in
  with_violation_tracking t c (fun () -> add_member_raw t c node)

let remove_member t ~node =
  let cid = Hashtbl.find t.node_pos node lsr pos_bits in
  let c = find t cid in
  with_violation_tracking t c (fun () -> remove_member_raw t c node)

let cluster_of t node = Hashtbl.find t.node_pos node lsr pos_bits

let add_members t ~cluster ~nodes =
  let c = find t cluster in
  with_violation_tracking t c (fun () -> List.iter (add_member_raw t c) nodes)

let remove_members t ~cluster ~nodes =
  let c = find t cluster in
  with_violation_tracking t c (fun () -> List.iter (remove_member_raw t c) nodes)

(* The swap is one logical step: violation accounting brackets the whole
   exchange so no transient single-node state is counted as an event.

   The core writes the exact final layout of
   [remove a; remove b; add a -> cb; add b -> ca] directly — each
   swap_remove moves the then-last element into the hole and the push
   lands on the freed last slot, so per cluster the hole gets the old
   last element and the last slot gets the incoming node.  Overwriting
   node_pos in place skips the remove/re-add churn of the raw ops (the
   exchange loop's hottest table traffic). *)
let swap_core t a ia cca b ib ccb =
  let ca = cca.cid and cb = ccb.cid in
  let va = violates cca and vb = violates ccb in
  let la = Vec.length cca.members_vec - 1 in
  if ia < la then begin
    let moved = Vec.get cca.members_vec la in
    Vec.set cca.members_vec ia moved;
    Hashtbl.replace t.node_pos moved ((ca lsl pos_bits) lor ia)
  end;
  Vec.set cca.members_vec la b;
  Hashtbl.replace t.node_pos b ((ca lsl pos_bits) lor la);
  let lb = Vec.length ccb.members_vec - 1 in
  if ib < lb then begin
    let moved = Vec.get ccb.members_vec lb in
    Vec.set ccb.members_vec ib moved;
    Hashtbl.replace t.node_pos moved ((cb lsl pos_bits) lor ib)
  end;
  Vec.set ccb.members_vec lb a;
  Hashtbl.replace t.node_pos a ((cb lsl pos_bits) lor lb);
  let ba = t.is_byzantine a and bb = t.is_byzantine b in
  if ba <> bb then begin
    let d = if bb then 1 else -1 in
    cca.byz <- cca.byz + d;
    ccb.byz <- ccb.byz - d
  end;
  let track before after =
    if before && not after then t.violating <- t.violating - 1
    else if (not before) && after then begin
      t.violating <- t.violating + 1;
      t.violation_events <- t.violation_events + 1
    end
  in
  track vb (violates ccb);
  track va (violates cca)

let swap t a b =
  let pa = Hashtbl.find t.node_pos a and pb = Hashtbl.find t.node_pos b in
  let ca = pa lsr pos_bits and cb = pb lsr pos_bits in
  if ca <> cb then
    swap_core t a (pa land pos_mask) (find t ca) b (pb land pos_mask) (find t cb)

(* One member-exchange step: draw a uniform replacement from [dest] and
   swap it with [node].  Byte-identical to [uniform_member] followed by
   [swap] (same single [Rng.int] draw, same final layout) with one table
   lookup per cluster instead of seven.  Returns the sizes of [node]'s
   cluster and of [dest] before the swap — the exchange cost inputs. *)
let exchange_swap t rng ~node ~dest =
  let pa = Hashtbl.find t.node_pos node in
  let ca = pa lsr pos_bits in
  let cca = find t ca and ccb = find t dest in
  let nb = Vec.length ccb.members_vec in
  if nb = 0 then invalid_arg "Cluster_table: empty cluster";
  let j = Rng.int rng nb in
  let b = Vec.get ccb.members_vec j in
  let sa = Vec.length cca.members_vec in
  if ca <> dest then swap_core t node (pa land pos_mask) cca b j ccb;
  (sa, nb)

let size t cid = Vec.length (find t cid).members_vec

let byz_count t cid = (find t cid).byz

let byz_fraction t cid =
  let c = find t cid in
  let n = Vec.length c.members_vec in
  if n = 0 then 0.0 else float_of_int c.byz /. float_of_int n

let members t cid = Vec.to_list (find t cid).members_vec

let member_at t cid i = Vec.get (find t cid).members_vec i

let n_clusters t = Vec.length t.ids

let n_nodes t = t.total_nodes

let cluster_ids t = List.sort Int.compare (Vec.to_list t.ids)

let max_size t =
  let best = ref 0 in
  Vec.iter (fun cid -> best := max !best (size t cid)) t.ids;
  !best

let uniform_cluster t rng =
  if Vec.length t.ids = 0 then invalid_arg "Cluster_table: no clusters";
  Vec.get t.ids (Rng.int rng (Vec.length t.ids))

let sample_cluster_by_size t rng ~size_bound =
  if size_bound <= 0 then invalid_arg "Cluster_table: size_bound must be positive";
  let rec draw budget =
    if budget = 0 then
      failwith "Cluster_table.sample_cluster_by_size: rejection budget exhausted"
    else begin
      let cid = uniform_cluster t rng in
      let s = size t cid in
      if s > size_bound then
        invalid_arg "Cluster_table: size_bound below an actual cluster size";
      if Rng.int rng size_bound < s then cid else draw (budget - 1)
    end
  in
  draw 1_000_000

let uniform_member t rng cid =
  let c = find t cid in
  let n = Vec.length c.members_vec in
  if n = 0 then invalid_arg "Cluster_table: empty cluster";
  Vec.get c.members_vec (Rng.int rng n)

let iter_clusters t f = Vec.iter f t.ids

let violations_now t = t.violating

let violation_events t = t.violation_events

let restore_violation_events t n = t.violation_events <- n

let min_honest_fraction t =
  let best = ref 1.0 in
  Vec.iter
    (fun cid ->
      let c = find t cid in
      let n = Vec.length c.members_vec in
      if n > 0 then begin
        let honest = float_of_int (n - c.byz) /. float_of_int n in
        if honest < !best then best := honest
      end)
    t.ids;
  !best

let check_consistency t =
  let seen_nodes = ref 0 in
  let violating = ref 0 in
  Vec.iteri
    (fun pos cid ->
      (match Hashtbl.find_opt t.id_pos cid with
      | Some p when p = pos -> ()
      | _ -> failwith "Cluster_table: id_pos out of sync");
      let c = find t cid in
      let byz = ref 0 in
      Vec.iteri
        (fun idx node ->
          (match Hashtbl.find_opt t.node_pos node with
          | Some p when p lsr pos_bits = cid && p land pos_mask = idx -> ()
          | _ -> failwith "Cluster_table: node_pos out of sync");
          if t.is_byzantine node then incr byz;
          incr seen_nodes)
        c.members_vec;
      if !byz <> c.byz then failwith "Cluster_table: byz counter out of sync";
      if violates c then incr violating)
    t.ids;
  if !seen_nodes <> t.total_nodes then failwith "Cluster_table: total_nodes out of sync";
  if !violating <> t.violating then failwith "Cluster_table: violating counter out of sync";
  if Hashtbl.length t.node_pos <> t.total_nodes then
    failwith "Cluster_table: node_pos size out of sync"
