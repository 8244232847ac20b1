module Engine = Now_core.Engine
module Node = Now_core.Node
module Params = Now_core.Params
module Ct = Now_core.Cluster_table
module Rng = Prng.Rng

(* Re-export: [adversary.ml] is this library's root module, so siblings
   must be surfaced explicitly. *)
module Workload = Workload
module Behavior = Agreement.Byz_behavior

type strategy =
  | Random_churn of float
  | Target_cluster
  | Dos_honest
  | Grow_shrink of int
  | Ambient of Workload.t

let strategy_name = function
  | Random_churn p -> Printf.sprintf "random-churn(%.2f)" p
  | Target_cluster -> "target-cluster"
  | Dos_honest -> "dos-honest"
  | Grow_shrink p -> Printf.sprintf "grow-shrink(%d)" p
  | Ambient w -> "ambient/" ^ Workload.name w

let strategy_catalogue =
  [
    ("random", "neutral background churn: coin-flip joins and leaves [p=JOIN-PROB]");
    ("target", "Section 3.3 attack: re-join until landing in the most corrupted cluster");
    ("dos", "force honest members of the adversary's best cluster out");
    ("grow-shrink", "oscillate the population between the model's size bounds [period=STEPS]");
    ("poisson", "ambient memoryless churn (stationary) [ratio=JOIN-PROB]");
    ("flash-crowd", "ambient arrival burst followed by a mass exodus [size=N,at=STEP,depart=STEP]");
    ("diurnal", "ambient day/night population sinusoid [period=STEPS,amp=FRACTION]");
  ]

let strategy_names = List.map fst strategy_catalogue

(* "name" or "name:key=value,key=value".  Parameter parsing is shared by
   every strategy: unknown names and unknown/malformed parameters both get
   an error that lists what is accepted, matching the byz --list
   convention. *)
let catalogue_hint =
  Printf.sprintf "available: %s" (String.concat ", " strategy_names)

let split_spec s =
  match String.index_opt s ':' with
  | None -> (s, "")
  | Some i ->
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_params ~strategy ~accepted body =
  if body = "" then Ok []
  else
    let parse_one acc part =
      match acc with
      | Error _ as e -> e
      | Ok acc -> (
        match String.index_opt part '=' with
        | None ->
          Error
            (Printf.sprintf
               "%s: malformed parameter %S (expected key=value; accepted: %s)"
               strategy part (String.concat ", " accepted))
        | Some i ->
          let key = String.sub part 0 i in
          let v = String.sub part (i + 1) (String.length part - i - 1) in
          if not (List.mem key accepted) then
            Error
              (if accepted = [] then
                 Printf.sprintf "%s: takes no parameters (got %S)" strategy part
               else
                 Printf.sprintf "%s: unknown parameter %S (accepted: %s)"
                   strategy key
                   (String.concat ", " accepted))
          else if List.mem_assoc key acc then
            Error (Printf.sprintf "%s: duplicate parameter %S" strategy key)
          else Ok ((key, v) :: acc))
    in
    List.fold_left parse_one (Ok []) (String.split_on_char ',' body)

let param_int ~strategy params key ~default =
  match List.assoc_opt key params with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> Ok i
    | None ->
      Error
        (Printf.sprintf "%s: parameter %s expects an integer, got %S" strategy
           key v))

let param_float ~strategy params key ~default =
  match List.assoc_opt key params with
  | None -> Ok default
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> Ok f
    | None ->
      Error
        (Printf.sprintf "%s: parameter %s expects a number, got %S" strategy key
           v))

let strategy_of_name ?(steps = 2000) s =
  let ( let* ) = Result.bind in
  let name, body = split_spec (String.lowercase_ascii s) in
  let with_params accepted build =
    let* params = parse_params ~strategy:name ~accepted body in
    build params
  in
  match name with
  | "random" ->
    with_params [ "p" ] (fun params ->
        let* p = param_float ~strategy:name params "p" ~default:0.5 in
        if p < 0.0 || p > 1.0 then
          Error "random: parameter p must be within [0, 1]"
        else Ok (Random_churn p))
  | "target" -> with_params [] (fun _ -> Ok Target_cluster)
  | "dos" -> with_params [] (fun _ -> Ok Dos_honest)
  | "grow-shrink" ->
    with_params [ "period" ] (fun params ->
        let* period =
          param_int ~strategy:name params "period" ~default:(max 1 (steps / 4))
        in
        if period < 1 then Error "grow-shrink: parameter period must be >= 1"
        else Ok (Grow_shrink period))
  | "poisson" ->
    with_params [ "ratio" ] (fun params ->
        let* join_ratio = param_float ~strategy:name params "ratio" ~default:0.5 in
        if join_ratio < 0.0 || join_ratio > 1.0 then
          Error "poisson: parameter ratio must be within [0, 1]"
        else Ok (Ambient (Workload.Poisson { join_ratio })))
  | "flash-crowd" ->
    with_params [ "size"; "at"; "depart" ] (fun params ->
        let* size =
          param_int ~strategy:name params "size" ~default:(max 1 (steps / 8))
        in
        let* arrive_at = param_int ~strategy:name params "at" ~default:(steps / 4) in
        let* depart_at =
          param_int ~strategy:name params "depart" ~default:(3 * steps / 4)
        in
        if size < 1 then Error "flash-crowd: parameter size must be >= 1"
        else if arrive_at < 0 then Error "flash-crowd: parameter at must be >= 0"
        else if depart_at <= arrive_at then
          Error "flash-crowd: depart must come after at"
        else Ok (Ambient (Workload.Flash_crowd { arrive_at; size; depart_at })))
  | "diurnal" ->
    with_params [ "period"; "amp" ] (fun params ->
        let* period =
          param_int ~strategy:name params "period" ~default:(max 2 (steps / 2))
        in
        let* amplitude = param_float ~strategy:name params "amp" ~default:0.3 in
        if period < 2 then Error "diurnal: parameter period must be >= 2"
        else if amplitude < 0.0 || amplitude >= 1.0 then
          Error "diurnal: parameter amp must be within [0, 1)"
        else Ok (Ambient (Workload.Diurnal { period; amplitude })))
  | other ->
    Error (Printf.sprintf "unknown strategy %S; %s" other catalogue_hint)

type t = {
  engine : Engine.t;
  rng : Rng.t;
  tau : float;
  strategy : strategy;
  n0 : int;  (* population at driver creation, workloads' reference point *)
  mutable steps : int;
  mutable joins : int;
  mutable leaves : int;
  mutable min_honest_seen : float;
  mutable target : int option;
}

let create ?(seed = 0xADF0L) ~tau ~strategy engine =
  {
    engine;
    rng = Rng.create seed;
    tau;
    strategy;
    n0 = Engine.n_nodes engine;
    steps = 0;
    joins = 0;
    leaves = 0;
    min_honest_seen = Engine.min_honest_fraction engine;
    target = None;
  }

let steps_done t = t.steps
let joins t = t.joins
let leaves t = t.leaves

let byz_fraction t = Node.Roster.byzantine_fraction (Engine.roster t.engine)

let min_honest_fraction_seen t = t.min_honest_seen

let is_byz t node =
  Node.is_byzantine (Node.Roster.honesty (Engine.roster t.engine) node)

(* Greedy static corruption: corrupt every joiner while the global budget
   allows it (the strongest placement a tau-bounded static adversary can
   achieve on arrivals). *)
let joiner_honesty t =
  let roster = Engine.roster t.engine in
  let n = Node.Roster.count roster in
  let byz = Node.Roster.byzantine_count roster in
  if float_of_int (byz + 1) <= t.tau *. float_of_int (n + 1) then Node.Byzantine
  else Node.Honest

let do_join t =
  ignore (Engine.join t.engine (joiner_honesty t));
  t.joins <- t.joins + 1

let do_leave t node =
  ignore (Engine.leave t.engine node);
  t.leaves <- t.leaves + 1

(* The cluster where the adversary currently owns the largest fraction. *)
let best_cluster_for_adversary t =
  let tbl = Engine.table t.engine in
  let best = ref None in
  Ct.iter_clusters tbl (fun cid ->
      let f = Ct.byz_fraction tbl cid in
      match !best with
      | Some (_, bf) when bf >= f -> ()
      | _ -> best := Some (cid, f));
  Option.map fst !best

let target_byz_fraction t =
  let tbl = Engine.table t.engine in
  match t.target with
  | Some cid when Ct.exists tbl cid -> Ct.byz_fraction tbl cid
  | _ -> 0.0

let refresh_target t =
  let tbl = Engine.table t.engine in
  (match t.target with
  | Some cid when Ct.exists tbl cid -> ()
  | _ -> t.target <- best_cluster_for_adversary t);
  t.target

let n_now t = Engine.n_nodes t.engine

let at_min t = n_now t <= Params.min_network_size (Engine.params t.engine)

let at_max t = n_now t >= (Engine.params t.engine).Params.n_max

let strategy_step t =
  match t.strategy with
  | Random_churn p_join ->
    if (Rng.bernoulli t.rng p_join || at_min t) && not (at_max t) then do_join t
    else do_leave t (Engine.random_node t.engine)
  | Target_cluster -> begin
    match refresh_target t with
    | None -> do_join t
    | Some target ->
      let outside_byz node =
        is_byz t node && Ct.cluster_of (Engine.table t.engine) node <> target
      in
      (* Alternate: pull one of our nodes out, push a corrupted one in. *)
      if t.steps mod 2 = 0 && not (at_min t) then begin
        match Engine.random_node_where t.engine outside_byz with
        | Some node -> do_leave t node
        | None -> if not (at_max t) then do_join t
      end
      else if not (at_max t) then do_join t
      else do_leave t (Engine.random_node t.engine)
  end
  | Dos_honest -> begin
    match refresh_target t with
    | None -> do_join t
    | Some target ->
      if t.steps mod 2 = 0 && not (at_min t) then begin
        let tbl = Engine.table t.engine in
        let honest_members =
          List.filter (fun node -> not (is_byz t node)) (Ct.members tbl target)
        in
        match honest_members with
        | [] -> do_leave t (Engine.random_node t.engine)
        | _ :: _ -> do_leave t (Rng.pick t.rng (Array.of_list honest_members))
      end
      else if not (at_max t) then do_join t
      else do_leave t (Engine.random_node t.engine)
  end
  | Grow_shrink period ->
    let phase = t.steps / max 1 period mod 2 in
    if (phase = 0 || at_min t) && not (at_max t) then do_join t
    else do_leave t (Engine.random_node t.engine)
  | Ambient workload -> begin
    let op =
      Workload.plan workload t.rng ~step:t.steps ~n:(n_now t) ~n0:t.n0
    in
    match op with
    | Workload.Join ->
      if at_max t then do_leave t (Engine.random_node t.engine) else do_join t
    | Workload.Leave ->
      if at_min t then do_join t else do_leave t (Engine.random_node t.engine)
  end

let step t =
  strategy_step t;
  t.steps <- t.steps + 1;
  let f = Engine.min_honest_fraction t.engine in
  if f < t.min_honest_seen then t.min_honest_seen <- f

let run ?(steps_per_sample = 100) t ~steps ~on_sample =
  for i = 1 to steps do
    step t;
    if i mod steps_per_sample = 0 then on_sample t
  done;
  if steps mod steps_per_sample <> 0 then on_sample t
