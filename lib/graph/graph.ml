(* Adjacency entries memoise two read-only views of the neighbour set: the
   hash-table iteration order (what [random_neighbor] scans) and the sorted
   order (what the walk's neighbour indexing uses).  Both caches are pure
   functions of the neighbour set, rebuilt on demand after any mutation of
   that vertex's edges, so cached and uncached runs are bit-identical. *)
type entry = {
  nbrs : (int, unit) Hashtbl.t;
  mutable iter_cache : int array option;  (* Hashtbl iteration order *)
  mutable sorted_cache : int array option;  (* ascending *)
}

type t = {
  adj : (int, entry) Hashtbl.t;
  mutable n_edges : int;
  mutable version : int;  (* bumped by every effective mutation *)
}

let create () = { adj = Hashtbl.create 64; n_edges = 0; version = 0 }

let version g = g.version

let fresh_entry () = { nbrs = Hashtbl.create 8; iter_cache = None; sorted_cache = None }

let invalidate e =
  e.iter_cache <- None;
  e.sorted_cache <- None

let add_vertex g v =
  if not (Hashtbl.mem g.adj v) then begin
    Hashtbl.add g.adj v (fresh_entry ());
    g.version <- g.version + 1
  end

let has_vertex g v = Hashtbl.mem g.adj v

let entry_opt g v = Hashtbl.find_opt g.adj v

let has_edge g u v =
  match entry_opt g u with None -> false | Some e -> Hashtbl.mem e.nbrs v

let add_edge g u v =
  if u = v then false
  else begin
    add_vertex g u;
    add_vertex g v;
    if has_edge g u v then false
    else begin
      let eu = Hashtbl.find g.adj u and ev = Hashtbl.find g.adj v in
      Hashtbl.add eu.nbrs v ();
      Hashtbl.add ev.nbrs u ();
      invalidate eu;
      invalidate ev;
      g.n_edges <- g.n_edges + 1;
      g.version <- g.version + 1;
      true
    end
  end

let remove_edge g u v =
  if has_edge g u v then begin
    let eu = Hashtbl.find g.adj u and ev = Hashtbl.find g.adj v in
    Hashtbl.remove eu.nbrs v;
    Hashtbl.remove ev.nbrs u;
    invalidate eu;
    invalidate ev;
    g.n_edges <- g.n_edges - 1;
    g.version <- g.version + 1;
    true
  end
  else false

let remove_vertex g v =
  match entry_opt g v with
  | None -> ()
  | Some e ->
    let to_remove = Hashtbl.fold (fun u () acc -> u :: acc) e.nbrs [] in
    List.iter (fun u -> ignore (remove_edge g u v)) to_remove;
    Hashtbl.remove g.adj v;
    g.version <- g.version + 1

let degree g v =
  match entry_opt g v with None -> 0 | Some e -> Hashtbl.length e.nbrs

(* Neighbours in hash-table iteration order; the array is shared, callers
   must not mutate it. *)
let iter_array e =
  match e.iter_cache with
  | Some arr -> arr
  | None ->
    let arr = Array.make (Hashtbl.length e.nbrs) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun u () ->
        arr.(!i) <- u;
        incr i)
      e.nbrs;
    e.iter_cache <- Some arr;
    arr

let neighbor_array g v =
  match entry_opt g v with None -> [||] | Some e -> iter_array e

let neighbors g v =
  match entry_opt g v with
  | None -> []
  | Some e ->
    (* Reversed iteration order: identical to the historical
       [Hashtbl.fold (fun u () acc -> u :: acc)] list. *)
    Array.fold_left (fun acc u -> u :: acc) [] (iter_array e)

let sorted_neighbors g v =
  match entry_opt g v with
  | None -> [||]
  | Some e -> (
    match e.sorted_cache with
    | Some arr -> arr
    | None ->
      let arr = Array.copy (iter_array e) in
      Array.sort Int.compare arr;
      e.sorted_cache <- Some arr;
      arr)

let iter_neighbors g v f =
  match entry_opt g v with None -> () | Some e -> Hashtbl.iter (fun u () -> f u) e.nbrs

let random_neighbor g rng v =
  match entry_opt g v with
  | None -> None
  | Some e ->
    let d = Hashtbl.length e.nbrs in
    if d = 0 then None
    else begin
      (* Same draw, same pick: the cache records hash-table iteration
         order, which is what the pre-cache implementation scanned. *)
      let target = Prng.Rng.int rng d in
      Some (iter_array e).(target)
    end

let vertices g = Hashtbl.fold (fun v _ acc -> v :: acc) g.adj []

let iter_vertices g f = Hashtbl.iter (fun v _ -> f v) g.adj

let n_vertices g = Hashtbl.length g.adj

let n_edges g = g.n_edges

let fold_degrees g f init =
  Hashtbl.fold (fun _ e acc -> f acc (Hashtbl.length e.nbrs)) g.adj init

let max_degree g = fold_degrees g max 0

let min_degree g = if n_vertices g = 0 then 0 else fold_degrees g min max_int

let mean_degree g =
  let n = n_vertices g in
  if n = 0 then 0.0 else 2.0 *. float_of_int g.n_edges /. float_of_int n

let copy g =
  let g' = create () in
  iter_vertices g (fun v -> add_vertex g' v);
  Hashtbl.iter
    (fun v e ->
      Hashtbl.iter (fun u () -> if v < u then ignore (add_edge g' v u)) e.nbrs)
    g.adj;
  g'

(* Ascending vertices, each through its memoised ascending neighbour
   array, keeping the upper half of every adjacency: the sequence
   [List.sort compare (edges g)] gives, without building or sorting a
   list of pairs. *)
let iter_sorted_edges g f =
  let vs = Array.make (Hashtbl.length g.adj) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun v _ ->
      vs.(!i) <- v;
      incr i)
    g.adj;
  Array.sort Int.compare vs;
  Array.iter
    (fun u -> Array.iter (fun v -> if u < v then f u v) (sorted_neighbors g u))
    vs

let edges g =
  Hashtbl.fold
    (fun v e acc ->
      Hashtbl.fold (fun u () acc -> if v < u then (v, u) :: acc else acc) e.nbrs acc)
    g.adj []
