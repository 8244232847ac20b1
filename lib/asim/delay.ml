module Rng = Prng.Rng

type t =
  | Zero
  | Uniform of { mean : float }
  | Exponential of { mean : float }
  | Straggler of { mean : float; every : int; factor : float }
  | Partition of { mean : float; groups : int; penalty : float }

let mean = function
  | Zero -> 0.0
  | Uniform { mean } | Exponential { mean } -> mean
  | Straggler { mean; _ } | Partition { mean; _ } -> mean

let name = function
  | Zero -> "zero"
  | Uniform { mean } -> Printf.sprintf "uniform:mean=%g" mean
  | Exponential { mean } -> Printf.sprintf "exp:mean=%g" mean
  | Straggler { mean; every; factor } ->
    Printf.sprintf "straggler:mean=%g,every=%d,factor=%g" mean every factor
  | Partition { mean; groups; penalty } ->
    Printf.sprintf "partition:mean=%g,groups=%d,penalty=%g" mean groups penalty

(* Structural (delay-independent) link classification: sender-based
   stragglers, id-residue partition sides.  Being a pure function of the
   ids keeps the slow set identical across reruns and lets experiments
   compute quorum arithmetic exactly. *)
let[@inline] is_slow t ~src ~dst =
  match t with
  | Zero | Uniform _ | Exponential _ -> false
  | Straggler { every; _ } -> src mod every = 0
  | Partition { groups; _ } -> src mod groups <> dst mod groups

(* The bounded base draw: uniform on [m/2, 3m/2).  Bounded support is what
   gives the straggler/partition models their crisp breakage thresholds
   (see the DESIGN.md substitution note); the exponential model keeps the
   cpr-style heavy tail.  Exactly one [rng] draw per sample for every
   non-zero model, so stream consumption never depends on link structure. *)
let[@inline] uniform_base rng m = (0.5 *. m) +. Rng.float rng m

let[@inline] sample t rng ~src ~dst =
  match t with
  | Zero -> 0.0
  | Uniform { mean } -> uniform_base rng mean
  | Exponential { mean } -> Rng.exponential rng (1.0 /. mean)
  | Straggler { mean; factor; _ } ->
    let base = uniform_base rng mean in
    if is_slow t ~src ~dst then base *. factor else base
  | Partition { mean; penalty; _ } ->
    let base = uniform_base rng mean in
    if is_slow t ~src ~dst then base +. penalty else base

let catalogue =
  [
    ("zero", "instant delivery: the synchronous baseline every model is validated against");
    ("uniform", "uniform on [mean/2, 3*mean/2): bounded jitter (param: mean)");
    ("exp", "exponential with the given mean: cpr-style heavy tail (param: mean)");
    ( "straggler",
      "every k-th node is slow on all its outgoing links: bounded base delay \
       times factor (params: mean, every, factor)" );
    ( "partition",
      "id-residue groups; crossing links pay a flat penalty on top of the \
       bounded base delay (params: mean, groups, penalty)" );
  ]

let names = List.map fst catalogue

let parse_params s =
  String.split_on_char ',' s
  |> List.fold_left
       (fun acc kv ->
         match acc with
         | Error _ -> acc
         | Ok params -> (
           match String.index_opt kv '=' with
           | None -> Error (Printf.sprintf "malformed delay parameter %S (want k=v)" kv)
           | Some i ->
             let k = String.sub kv 0 i in
             let v = String.sub kv (i + 1) (String.length kv - i - 1) in
             (* Infinite or NaN parameters would parse here and only fail
                (or sample nonsense) once the model draws a delay. *)
             (match float_of_string_opt v with
             | Some f when Float.is_finite f -> Ok ((k, f) :: params)
             | Some _ | None ->
               Error (Printf.sprintf "delay parameter %s: bad number %S" k v))))
       (Ok [])

let of_name name =
  let lower = String.lowercase_ascii name in
  let base, params_res =
    match String.index_opt lower ':' with
    | None -> (lower, Ok [])
    | Some i ->
      ( String.sub lower 0 i,
        parse_params (String.sub lower (i + 1) (String.length lower - i - 1)) )
  in
  match params_res with
  | Error msg -> Error msg
  | Ok params -> (
    let get key default =
      match List.assoc_opt key params with Some v -> v | None -> default
    in
    let known allowed =
      List.for_all (fun (k, _) -> List.mem k allowed) params
    in
    let unknown_param allowed =
      Error
        (Printf.sprintf "delay %S takes only parameters: %s" base
           (String.concat ", " allowed))
    in
    let positive what v ok = if v > 0.0 then ok else
      Error (Printf.sprintf "delay %S: %s must be positive" base what)
    in
    match base with
    | "zero" ->
      if params = [] then Ok Zero else unknown_param []
    | "uniform" ->
      if not (known [ "mean" ]) then unknown_param [ "mean" ]
      else
        let mean = get "mean" 1.0 in
        positive "mean" mean (Ok (Uniform { mean }))
    | "exp" | "exponential" ->
      if not (known [ "mean" ]) then unknown_param [ "mean" ]
      else
        let mean = get "mean" 1.0 in
        positive "mean" mean (Ok (Exponential { mean }))
    | "straggler" ->
      if not (known [ "mean"; "every"; "factor" ]) then
        unknown_param [ "mean"; "every"; "factor" ]
      else
        let mean = get "mean" 1.0 in
        let every = get "every" 3.0 in
        let factor = get "factor" 32.0 in
        if every < 1.0 || not (Float.is_integer every) then
          Error "delay \"straggler\": every must be a whole number >= 1"
        else
          positive "mean" mean
            (positive "factor" factor
               (Ok (Straggler { mean; every = int_of_float every; factor })))
    | "partition" ->
      if not (known [ "mean"; "groups"; "penalty" ]) then
        unknown_param [ "mean"; "groups"; "penalty" ]
      else
        let mean = get "mean" 1.0 in
        let groups = get "groups" 2.0 in
        let penalty = get "penalty" 64.0 in
        if groups < 2.0 || not (Float.is_integer groups) then
          Error "delay \"partition\": groups must be a whole number >= 2"
        else if penalty < 0.0 then Error "delay \"partition\": penalty must be >= 0"
        else
          positive "mean" mean
            (Ok (Partition { mean; groups = int_of_float groups; penalty }))
    | _ ->
      Error
        (Printf.sprintf "unknown delay model %S; available: %s" name
           (String.concat ", " names)))
