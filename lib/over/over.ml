module Graph = Dsgraph.Graph
module Rng = Prng.Rng

type t = {
  rng : Rng.t;
  target_degree : n_vertices:int -> int;
  g : Graph.t;
  health_cache : Overlay_health.Cache.t;
}

let create ~rng ~target_degree =
  {
    rng;
    target_degree;
    g = Graph.create ();
    health_cache = Overlay_health.Cache.create ();
  }

let rng_state t = Rng.save t.rng

let restore ~rng ~target_degree ~vertices ~edges =
  let t = create ~rng ~target_degree in
  List.iter (fun v -> Graph.add_vertex t.g v) vertices;
  List.iter (fun (u, v) -> ignore (Graph.add_edge t.g u v)) edges;
  t

let graph t = t.g

let n_vertices t = Graph.n_vertices t.g

let mem t v = Graph.has_vertex t.g v

let target_degree_now t = t.target_degree ~n_vertices:(n_vertices t)

let max_degree_cap t = 2 * target_degree_now t

(* Draw edges from [v] to vertices returned by [pick] until [v] has [want]
   edges or the attempt budget is exhausted (the budget guards against a
   sampler that keeps returning v itself, e.g. in a 2-vertex overlay).
   Returns the new neighbours in the order they were connected. *)
let fill_edges t v ~want ~pick =
  let budget = ref (20 * (want + 1)) and added = ref [] in
  while Graph.degree t.g v < want && !budget > 0 do
    decr budget;
    let u = pick () in
    if u <> v && Graph.has_vertex t.g u then
      if Graph.add_edge t.g v u then begin
        added := u :: !added;
        Trace.point ~attrs:[ ("dst", u); ("src", v) ] Trace.State "over.edge_add"
      end
  done;
  List.rev !added

(* Shed uniformly random excess edges of an over-full vertex. *)
let shed_excess t v =
  let cap = max_degree_cap t in
  while Graph.degree t.g v > cap do
    match Graph.random_neighbor t.g t.rng v with
    | None -> ()
    | Some u ->
      if Graph.remove_edge t.g v u then
        Trace.point ~attrs:[ ("dst", u); ("src", v) ] Trace.State
          "over.edge_remove"
  done

(* Top [v] up to the current target; returns its new neighbours. *)
let refill_edges t v ~pick =
  let want = min (target_degree_now t) (n_vertices t - 1) in
  if Graph.degree t.g v < want then fill_edges t v ~want ~pick else []

let add_vertex t v ~pick =
  if Graph.has_vertex t.g v then invalid_arg "Over.add_vertex: vertex already present";
  Trace.with_span
    ~attrs:[ ("vertex", v) ]
    Trace.State "over.add_vertex"
    (fun () ->
      Graph.add_vertex t.g v;
      let want = min (target_degree_now t) (n_vertices t - 1) in
      ignore (fill_edges t v ~want ~pick);
      (* Receiving clusters may now exceed the cap. *)
      Graph.iter_neighbors t.g v (fun u -> shed_excess t u))

let remove_vertex t v ~pick =
  if Graph.has_vertex t.g v then
    Trace.with_span
      ~attrs:[ ("vertex", v) ]
      Trace.State "over.remove_vertex"
      (fun () ->
        let neighbors = Graph.neighbors t.g v in
        Graph.remove_vertex t.g v;
        let low = (target_degree_now t + 1) / 2 in
        List.iter
          (fun u ->
            if Graph.has_vertex t.g u && Graph.degree t.g u < low then
              (* The refill's new endpoints may now exceed the cap. *)
              List.iter (shed_excess t) (refill_edges t u ~pick))
          neighbors)

let init_erdos_renyi t ~vertices =
  if n_vertices t <> 0 then invalid_arg "Over.init_erdos_renyi: overlay not empty";
  List.iter (fun v -> Graph.add_vertex t.g v) vertices;
  let n = n_vertices t in
  if n > 1 then begin
    let d = min (target_degree_now t) (n - 1) in
    let p = float_of_int d /. float_of_int (n - 1) in
    let vs = Array.of_list vertices in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Rng.bernoulli t.rng p then ignore (Graph.add_edge t.g vs.(i) vs.(j))
      done
    done;
    (* Connect stray components: link a random vertex of every other
       component to the first one. *)
    (match Dsgraph.Traversal.connected_components t.g with
    | [] | [ _ ] -> ()
    | main :: rest ->
      let main = Array.of_list main in
      List.iter
        (fun comp ->
          let v = Rng.pick t.rng (Array.of_list comp) in
          let u = Rng.pick t.rng main in
          ignore (Graph.add_edge t.g v u))
        rest);
    (* Refill under-full vertices with uniform targets (initialisation runs
       with global knowledge, so a direct uniform pick is legitimate). *)
    let uniform_pick () = vs.(Rng.int t.rng n) in
    List.iter (fun v -> ignore (refill_edges t v ~pick:uniform_pick)) vertices
  end

type health = Overlay_health.health = {
  n_vertices : int;
  n_edges : int;
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  connected : bool;
  spectral_expansion_lower : float;
  sweep_expansion_upper : float;
}

let graph_health = Overlay_health.graph_health

let health ?spectral_iterations t =
  Overlay_health.Cache.health t.health_cache ?spectral_iterations t.g

let health_metrics = Overlay_health.health_metrics
let pp_health = Overlay_health.pp_health

module Health_cache = Overlay_health.Cache

(* Re-export the alternative overlay construction (this file is the
   library's root module, so siblings must be surfaced explicitly). *)
module Cycles = Cycles
