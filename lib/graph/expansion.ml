let exact g =
  let n = Graph.n_vertices g in
  if n < 2 then infinity
  else if n > 24 then invalid_arg "Expansion.exact: too many vertices (max 24)"
  else begin
    let vs = Array.of_list (Graph.vertices g) in
    let index = Hashtbl.create n in
    Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
    (* Adjacency bitmasks for O(1) boundary updates over subsets. *)
    let adj = Array.make n 0 in
    Array.iteri
      (fun i v ->
        Graph.iter_neighbors g v (fun u ->
            adj.(i) <- adj.(i) lor (1 lsl Hashtbl.find index u)))
      vs;
    let best = ref infinity in
    let half = n / 2 in
    (* Enumerate subsets by bitmask; popcount and cut computed per mask. *)
    for mask = 1 to (1 lsl n) - 1 do
      let size = ref 0 and cut = ref 0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then begin
          incr size;
          (* Edges from i leaving the set. *)
          let outside = adj.(i) land lnot mask in
          let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1) in
          cut := !cut + popcount outside 0
        end
      done;
      if !size <= half then begin
        let ratio = float_of_int !cut /. float_of_int !size in
        if ratio < !best then best := ratio
      end
    done;
    !best
  end

(* Dense view of the graph for spectral computations. *)
let dense_view g =
  let vs = Array.of_list (Graph.vertices g) in
  let n = Array.length vs in
  let index = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
  let nbrs =
    Array.map
      (fun v -> List.map (Hashtbl.find index) (Graph.neighbors g v) |> Array.of_list)
      vs
  in
  (vs, nbrs)

let fiedler ?(iterations = 2000) g =
  let vs, nbrs = dense_view g in
  let n = Array.length vs in
  if n < 2 then (0.0, [| 0.0 |], vs)
  else begin
    let deg = Array.map Array.length nbrs in
    let c = float_of_int (2 * Array.fold_left max 1 deg) in
    (* Power iteration on M = c.I - L, deflating the constant eigenvector
       (eigenvalue c).  The dominant remaining eigenvalue is c - mu2. *)
    let x = Array.init n (fun i -> sin (float_of_int (i + 1))) in
    let deflate x =
      let m = Array.fold_left ( +. ) 0.0 x /. float_of_int n in
      Array.iteri (fun i xi -> x.(i) <- xi -. m) x
    in
    let normalize x =
      let norm = sqrt (Array.fold_left (fun acc xi -> acc +. (xi *. xi)) 0.0 x) in
      if norm > 0.0 then Array.iteri (fun i xi -> x.(i) <- xi /. norm) x
    in
    let apply x =
      Array.init n (fun i ->
          let s = Array.fold_left (fun acc j -> acc +. x.(j)) 0.0 nbrs.(i) in
          ((c -. float_of_int deg.(i)) *. x.(i)) +. s)
    in
    deflate x;
    normalize x;
    let x = ref x in
    let lambda = ref 0.0 in
    for _ = 1 to iterations do
      let y = apply !x in
      deflate y;
      let norm = sqrt (Array.fold_left (fun acc yi -> acc +. (yi *. yi)) 0.0 y) in
      lambda := norm;
      normalize y;
      x := y
    done;
    let mu2 = c -. !lambda in
    let mu2 = if mu2 < 0.0 then 0.0 else mu2 in
    (mu2, !x, vs)
  end

let spectral_lower ?iterations g =
  let mu2, _, _ = fiedler ?iterations g in
  mu2 /. 2.0

let sweep_upper ?iterations g =
  let n = Graph.n_vertices g in
  if n < 2 then infinity
  else begin
    let _, vec, vs = fiedler ?iterations g in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare vec.(a) vec.(b)) order;
    (* Prefix cuts along the Fiedler order; track the boundary incrementally. *)
    let set = Hashtbl.create n in
    let cut = ref 0 in
    let best = ref infinity in
    let half = n / 2 in
    Array.iteri
      (fun pos idx ->
        let v = vs.(idx) in
        (* Adding v: edges to outside increase the cut, edges to inside
           decrease it. *)
        Graph.iter_neighbors g v (fun u ->
            if Hashtbl.mem set u then decr cut else incr cut);
        Hashtbl.replace set v ();
        let size = pos + 1 in
        if size <= half then begin
          let ratio = float_of_int !cut /. float_of_int size in
          if ratio < !best then best := ratio
        end)
      order;
    !best
  end
