module Graph = Dsgraph.Graph
module Rng = Prng.Rng

let walk g rng ~start ~duration ?(on_hop = fun _ _ -> ()) () =
  let rec go v remaining hops =
    (* One adjacency lookup serves the degree and the pick; the array is
       in hash-table iteration order, so indexing it draws the same
       neighbour as [Graph.random_neighbor] for the same [Rng.int]. *)
    let nbrs = Graph.neighbor_array g v in
    let d = Array.length nbrs in
    if d = 0 then (v, hops)
    else begin
      (* Each adjacent edge fires at rate 1 => holding time Exp(deg v). *)
      let hold = Rng.exponential rng (float_of_int d) in
      if hold >= remaining then (v, hops)
      else begin
        let u = nbrs.(Rng.int rng d) in
        on_hop v u;
        go u (remaining -. hold) (hops + 1)
      end
    end
  in
  go start duration 0

let biased_select g rng ~start ~duration ~weight ~max_weight
    ?(on_hop = fun _ _ -> ()) ?(on_restart = fun _ -> ()) ?(max_restarts = 10_000) () =
  if max_weight <= 0.0 then invalid_arg "Ctrw.biased_select: max_weight must be positive";
  let rec attempt from restarts =
    if restarts > max_restarts then
      failwith "Ctrw.biased_select: too many rejections (is max_weight too large?)";
    let v, _hops = walk g rng ~start:from ~duration ~on_hop () in
    let p = weight v /. max_weight in
    if Rng.bernoulli rng p then v
    else begin
      on_restart v;
      attempt v (restarts + 1)
    end
  in
  attempt start 0

let endpoint_counts g rng ~start ~duration ~trials =
  let counts = Hashtbl.create 64 in
  for _ = 1 to trials do
    let v, _ = walk g rng ~start ~duration () in
    let c = match Hashtbl.find_opt counts v with Some c -> c | None -> 0 in
    Hashtbl.replace counts v (c + 1)
  done;
  counts

let tv_distance_to ~counts ~target ~vertices =
  let total =
    Hashtbl.fold (fun _ c acc -> acc + c) counts 0 |> float_of_int
  in
  if total = 0.0 then invalid_arg "Ctrw.tv_distance_to: empty counts";
  let diff =
    List.fold_left
      (fun acc v ->
        let empirical =
          match Hashtbl.find_opt counts v with
          | Some c -> float_of_int c /. total
          | None -> 0.0
        in
        acc +. abs_float (empirical -. target v))
      0.0 vertices
  in
  diff /. 2.0
