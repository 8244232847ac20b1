(* Flat struct-of-arrays cluster table.

   Same observable behaviour as {!Cluster_table_reference} (the original
   record/hashtable representation, kept as the oracle), with every
   per-cluster list replaced by an index range into one shared int arena
   and every hashtable replaced by a flat array:

     slab     : int array        all member segments, bump-allocated
     off/len/cap/byz : int array per-cluster segment descriptors, by cid
     id_pos   : int array        cid -> slot in the dense [ids] vector
     node_pos : int array        node -> packed (cid, member index)

   A cluster's members live at slab.[off .. off+len).  Segments grow by
   copying to a fresh bump allocation (doubling capacity, like Vec); the
   abandoned range is garbage until a compaction slides all live segments
   down in cid order.  Both policies depend only on the logical operation
   history, so layout — and everything downstream of it — stays
   deterministic.

   Byte-identity with the reference is a gated invariant: member order
   (push appends, swap_remove moves the then-last element into the hole,
   swap writes the exact final layout) and RNG draw sequences (one
   [Rng.int] per exchange_swap, rejection draws in sample_cluster_by_size)
   are replicated operation for operation, so engines built over either
   table produce identical snapshots, stats and audit digests (qcheck
   equivalence suite). *)

module Rng = Prng.Rng

(* node_pos values pack (cluster id, member index) into one immediate int
   (cid lsl pos_bits | index): the exchange loop hits this table hardest
   and a packed value spares the pair allocation on every update. *)
let pos_bits = 24

let pos_mask = (1 lsl pos_bits) - 1

type t = {
  is_byzantine : int -> bool;
  mutable slab : int array;  (* arena backing every member segment *)
  mutable top : int;  (* bump pointer *)
  mutable garbage : int;  (* words stranded by grows and dissolves *)
  mutable off : int array;  (* by cid; -1 = not a live cluster *)
  mutable len : int array;
  mutable cap : int array;
  mutable byz : int array;
  mutable id_pos : int array;  (* cid -> index in ids; -1 = dead *)
  ids : Vec.t;  (* cluster ids, dense, for O(1) uniform sampling *)
  mutable node_pos : int array;  (* node -> packed (cid, index); -1 = none *)
  mutable next_cid : int;
  mutable total_nodes : int;
  mutable violating : int;
  mutable violation_events : int;
}

let create ~is_byzantine =
  {
    is_byzantine;
    slab = Array.make 4096 0;
    top = 0;
    garbage = 0;
    off = Array.make 256 (-1);
    len = Array.make 256 0;
    cap = Array.make 256 0;
    byz = Array.make 256 0;
    id_pos = Array.make 256 (-1);
    ids = Vec.create ();
    node_pos = Array.make 4096 (-1);
    next_cid = 0;
    total_nodes = 0;
    violating = 0;
    violation_events = 0;
  }

(* ---- growable flat arrays ---------------------------------------- *)

let grow_int_array a n fill =
  let have = Array.length a in
  if n <= have then a
  else begin
    let bigger = Array.make (max n (2 * have)) fill in
    Array.blit a 0 bigger 0 have;
    bigger
  end

let ensure_cid t cid =
  if cid >= Array.length t.off then begin
    let n = cid + 1 in
    t.off <- grow_int_array t.off n (-1);
    t.len <- grow_int_array t.len n 0;
    t.cap <- grow_int_array t.cap n 0;
    t.byz <- grow_int_array t.byz n 0;
    t.id_pos <- grow_int_array t.id_pos n (-1)
  end

let ensure_node t node =
  if node >= Array.length t.node_pos then
    t.node_pos <- grow_int_array t.node_pos (node + 1) (-1)

(* ---- arena ------------------------------------------------------- *)

(* Slide every live segment down in cid order.  Purely a layout move —
   per-segment member order is preserved — and the trigger below depends
   only on the operation history, so compaction never perturbs any
   observable byte. *)
let compact t =
  let live = ref 0 in
  for cid = 0 to t.next_cid - 1 do
    if t.off.(cid) >= 0 then live := !live + t.cap.(cid)
  done;
  let fresh = Array.make (max 4096 (2 * !live)) 0 in
  let p = ref 0 in
  for cid = 0 to t.next_cid - 1 do
    if t.off.(cid) >= 0 then begin
      Array.blit t.slab t.off.(cid) fresh !p t.len.(cid);
      t.off.(cid) <- !p;
      p := !p + t.cap.(cid)
    end
  done;
  t.slab <- fresh;
  t.top <- !live;
  t.garbage <- 0

(* Bump-allocate [n] arena words, compacting first once stranded words
   outnumber live ones. *)
let arena_alloc t n =
  if t.top + n > Array.length t.slab then begin
    if 2 * t.garbage > t.top then compact t;
    if t.top + n > Array.length t.slab then
      t.slab <- grow_int_array t.slab (t.top + n) 0
  end;
  let off = t.top in
  t.top <- t.top + n;
  off

(* Double a full segment's capacity (fresh allocation + copy, like a Vec
   grow); the old range becomes garbage. *)
let grow_segment t cid =
  let old_cap = t.cap.(cid) in
  let new_cap = max 8 (2 * old_cap) in
  let new_off = arena_alloc t new_cap in
  (* Read the offset only after the allocation: arena_alloc may have
     compacted, relocating this very segment (and replacing the slab). *)
  let old_off = t.off.(cid) in
  Array.blit t.slab old_off t.slab new_off t.len.(cid);
  t.off.(cid) <- new_off;
  t.cap.(cid) <- new_cap;
  t.garbage <- t.garbage + old_cap

let arena_words t = (t.top - t.garbage, Array.length t.slab)

(* ---- violation accounting ---------------------------------------- *)

let violates t cid = t.len.(cid) <= 3 * t.byz.(cid) && t.len.(cid) > 0

(* Wrap any mutation of a cluster so the violation counters stay exact. *)
let with_violation_tracking t cid mutate =
  let before = violates t cid in
  mutate ();
  let after = violates t cid in
  if before && not after then t.violating <- t.violating - 1
  else if (not before) && after then begin
    t.violating <- t.violating + 1;
    t.violation_events <- t.violation_events + 1
  end

let live t cid = cid >= 0 && cid < Array.length t.off && t.off.(cid) >= 0

let find t cid = if live t cid then cid else raise Not_found

let exists t cid = live t cid

(* ---- membership -------------------------------------------------- *)

let add_member_raw t cid node =
  ensure_node t node;
  if t.node_pos.(node) >= 0 then
    invalid_arg "Cluster_table: node already has a cluster";
  if t.len.(cid) = t.cap.(cid) then grow_segment t cid;
  let idx = t.len.(cid) in
  t.slab.(t.off.(cid) + idx) <- node;
  t.len.(cid) <- idx + 1;
  if idx > pos_mask then invalid_arg "Cluster_table: cluster too large";
  t.node_pos.(node) <- (cid lsl pos_bits) lor idx;
  if t.is_byzantine node then t.byz.(cid) <- t.byz.(cid) + 1;
  t.total_nodes <- t.total_nodes + 1

let install_cluster t cid members =
  ensure_cid t cid;
  t.off.(cid) <- arena_alloc t (max 8 (List.length members));
  t.cap.(cid) <- max 8 (List.length members);
  t.len.(cid) <- 0;
  t.byz.(cid) <- 0;
  t.id_pos.(cid) <- Vec.length t.ids;
  Vec.push t.ids cid;
  with_violation_tracking t cid (fun () ->
      List.iter (add_member_raw t cid) members)

let new_cluster t ~members =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  install_cluster t cid members;
  cid

let new_cluster_with_id t ~cid ~members =
  if live t cid then invalid_arg "Cluster_table.new_cluster_with_id: id in use";
  if cid >= t.next_cid then t.next_cid <- cid + 1;
  install_cluster t cid members

let remove_member_raw t cid node =
  let idx = t.node_pos.(node) land pos_mask in
  let off = t.off.(cid) in
  let last = t.len.(cid) - 1 in
  let removed = t.slab.(off + idx) in
  assert (removed = node);
  t.slab.(off + idx) <- t.slab.(off + last);
  t.len.(cid) <- last;
  (* The former last element now lives at idx. *)
  if idx < last then begin
    let moved = t.slab.(off + idx) in
    t.node_pos.(moved) <- (cid lsl pos_bits) lor idx
  end;
  t.node_pos.(node) <- -1;
  if t.is_byzantine node then t.byz.(cid) <- t.byz.(cid) - 1;
  t.total_nodes <- t.total_nodes - 1

let members t cid =
  let cid = find t cid in
  let off = t.off.(cid) in
  let acc = ref [] in
  for i = t.len.(cid) - 1 downto 0 do
    acc := t.slab.(off + i) :: !acc
  done;
  !acc

let member_at t cid i =
  let cid = find t cid in
  if i < 0 || i >= t.len.(cid) then invalid_arg "Cluster_table: index out of bounds";
  t.slab.(t.off.(cid) + i)

let dissolve t cid =
  let cid = find t cid in
  let ms = members t cid in
  with_violation_tracking t cid (fun () ->
      List.iter (remove_member_raw t cid) ms);
  (* Drop the (now empty, non-violating) cluster from the id structures
     and strand its segment. *)
  t.garbage <- t.garbage + t.cap.(cid);
  t.off.(cid) <- -1;
  t.cap.(cid) <- 0;
  let pos = t.id_pos.(cid) in
  ignore (Vec.swap_remove t.ids pos);
  if pos < Vec.length t.ids then t.id_pos.(Vec.get t.ids pos) <- pos;
  t.id_pos.(cid) <- -1;
  ms

let add_member t ~cluster ~node =
  let cid = find t cluster in
  with_violation_tracking t cid (fun () -> add_member_raw t cid node)

let remove_member t ~node =
  if node < 0 || node >= Array.length t.node_pos || t.node_pos.(node) < 0 then
    raise Not_found;
  let cid = t.node_pos.(node) lsr pos_bits in
  with_violation_tracking t cid (fun () -> remove_member_raw t cid node)

let cluster_of t node =
  if node < 0 || node >= Array.length t.node_pos || t.node_pos.(node) < 0 then
    raise Not_found;
  t.node_pos.(node) lsr pos_bits

let add_members t ~cluster ~nodes =
  let cid = find t cluster in
  with_violation_tracking t cid (fun () -> List.iter (add_member_raw t cid) nodes)

let remove_members t ~cluster ~nodes =
  let cid = find t cluster in
  with_violation_tracking t cid (fun () ->
      List.iter (remove_member_raw t cid) nodes)

(* The swap is one logical step: violation accounting brackets the whole
   exchange so no transient single-node state is counted as an event.

   The core writes the exact final layout of
   [remove a; remove b; add a -> cb; add b -> ca] directly — each
   swap_remove moves the then-last element into the hole and the push
   lands on the freed last slot, so per cluster the hole gets the old
   last element and the last slot gets the incoming node. *)
let swap_core t a ia ca b ib cb =
  let va = violates t ca and vb = violates t cb in
  let offa = t.off.(ca) in
  let la = t.len.(ca) - 1 in
  if ia < la then begin
    let moved = t.slab.(offa + la) in
    t.slab.(offa + ia) <- moved;
    t.node_pos.(moved) <- (ca lsl pos_bits) lor ia
  end;
  t.slab.(offa + la) <- b;
  t.node_pos.(b) <- (ca lsl pos_bits) lor la;
  let offb = t.off.(cb) in
  let lb = t.len.(cb) - 1 in
  if ib < lb then begin
    let moved = t.slab.(offb + lb) in
    t.slab.(offb + ib) <- moved;
    t.node_pos.(moved) <- (cb lsl pos_bits) lor ib
  end;
  t.slab.(offb + lb) <- a;
  t.node_pos.(a) <- (cb lsl pos_bits) lor lb;
  let ba = t.is_byzantine a and bb = t.is_byzantine b in
  if ba <> bb then begin
    let d = if bb then 1 else -1 in
    t.byz.(ca) <- t.byz.(ca) + d;
    t.byz.(cb) <- t.byz.(cb) - d
  end;
  let track before after =
    if before && not after then t.violating <- t.violating - 1
    else if (not before) && after then begin
      t.violating <- t.violating + 1;
      t.violation_events <- t.violation_events + 1
    end
  in
  track vb (violates t cb);
  track va (violates t ca)

let swap t a b =
  let pa = t.node_pos.(a) and pb = t.node_pos.(b) in
  if pa < 0 || pb < 0 then raise Not_found;
  let ca = pa lsr pos_bits and cb = pb lsr pos_bits in
  if ca <> cb then swap_core t a (pa land pos_mask) ca b (pb land pos_mask) cb

(* One member-exchange step: draw a uniform replacement from [dest] and
   swap it with [node].  Byte-identical to [uniform_member] followed by
   [swap] (same single [Rng.int] draw, same final layout).  Returns the
   sizes of [node]'s cluster and of [dest] before the swap — the exchange
   cost inputs. *)
let exchange_swap t rng ~node ~dest =
  if node < 0 || node >= Array.length t.node_pos || t.node_pos.(node) < 0 then
    raise Not_found;
  let pa = t.node_pos.(node) in
  let ca = pa lsr pos_bits in
  let dest = find t dest in
  let nb = t.len.(dest) in
  if nb = 0 then invalid_arg "Cluster_table: empty cluster";
  let j = Rng.int rng nb in
  let b = t.slab.(t.off.(dest) + j) in
  let sa = t.len.(ca) in
  if ca <> dest then swap_core t node (pa land pos_mask) ca b j dest;
  (sa, nb)

let size t cid = t.len.(find t cid)

let byz_count t cid = t.byz.(find t cid)

let byz_fraction t cid =
  let cid = find t cid in
  let n = t.len.(cid) in
  if n = 0 then 0.0 else float_of_int t.byz.(cid) /. float_of_int n

let n_clusters t = Vec.length t.ids

let n_nodes t = t.total_nodes

let cluster_ids t = List.sort Int.compare (Vec.to_list t.ids)

let max_size t =
  let best = ref 0 in
  Vec.iter (fun cid -> if t.len.(cid) > !best then best := t.len.(cid)) t.ids;
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
      let s = t.len.(cid) in
      if s > size_bound then
        invalid_arg "Cluster_table: size_bound below an actual cluster size";
      if Rng.int rng size_bound < s then cid else draw (budget - 1)
    end
  in
  draw 1_000_000

let uniform_member t rng cid =
  let cid = find t cid in
  let n = t.len.(cid) in
  if n = 0 then invalid_arg "Cluster_table: empty cluster";
  t.slab.(t.off.(cid) + Rng.int rng n)

let iter_clusters t f = Vec.iter f t.ids

let violations_now t = t.violating

let violation_events t = t.violation_events

let restore_violation_events t n = t.violation_events <- n

let min_honest_fraction t =
  let best = ref 1.0 in
  Vec.iter
    (fun cid ->
      let n = t.len.(cid) in
      if n > 0 then begin
        let honest = float_of_int (n - t.byz.(cid)) /. float_of_int n in
        if honest < !best then best := honest
      end)
    t.ids;
  !best

let check_consistency t =
  let seen_nodes = ref 0 in
  let violating = ref 0 in
  Vec.iteri
    (fun pos cid ->
      if not (live t cid) then failwith "Cluster_table: dead cluster in ids";
      if t.id_pos.(cid) <> pos then failwith "Cluster_table: id_pos out of sync";
      if t.len.(cid) > t.cap.(cid) || t.off.(cid) + t.cap.(cid) > t.top then
        failwith "Cluster_table: segment outside the arena";
      let byz = ref 0 in
      for idx = 0 to t.len.(cid) - 1 do
        let node = t.slab.(t.off.(cid) + idx) in
        if t.node_pos.(node) <> (cid lsl pos_bits) lor idx then
          failwith "Cluster_table: node_pos out of sync";
        if t.is_byzantine node then incr byz;
        incr seen_nodes
      done;
      if !byz <> t.byz.(cid) then failwith "Cluster_table: byz counter out of sync";
      if violates t cid then incr violating)
    t.ids;
  if !seen_nodes <> t.total_nodes then
    failwith "Cluster_table: total_nodes out of sync";
  if !violating <> t.violating then
    failwith "Cluster_table: violating counter out of sync";
  let homed = ref 0 in
  Array.iter (fun p -> if p >= 0 then incr homed) t.node_pos;
  if !homed <> t.total_nodes then
    failwith "Cluster_table: node_pos size out of sync";
  let live_words = ref 0 in
  for cid = 0 to t.next_cid - 1 do
    if t.off.(cid) >= 0 then live_words := !live_words + t.cap.(cid)
  done;
  if !live_words + t.garbage <> t.top then
    failwith "Cluster_table: arena accounting out of sync"
