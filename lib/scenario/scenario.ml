(* Re-export: [scenario.ml] is this library's root module, so siblings
   must be surfaced explicitly. *)
module Spec = Spec
module Driver = Driver
module Stats = Driver.Stats
module State_driver = State_driver
module Msg_driver = Msg_driver
module Async_driver = Async_driver

let steady = Spec.default

let primitives =
  {
    Spec.default with
    Spec.name = "primitives";
    description =
      "paired churn while driving walk / randNum / valChan every step";
    steps = 30;
    drive =
      {
        Spec.walks = true;
        randnum = true;
        valchan = true;
        exchange_every = None;
      };
    behavior = Some "equivocate";
    n_clusters = 6;
    cluster_size = 12;
    byz_per_cluster = None;
    randnum_range = 64;
  }

(* Strategy-driven scenarios share one state-oriented geometry large
   enough for the adversary to manoeuvre in, and a smaller message-level
   twin (strategies churn one node per step, so message-level cells stay
   affordable). *)
let strategy_spec ~name ~description strategy =
  {
    Spec.default with
    Spec.name;
    description;
    steps = 400;
    churn = Spec.Strategy strategy;
    drive = Spec.no_drive;
    behavior = Some "noise";
    n0 = 600;
    n_max = 1 lsl 12;
    exact_walk = false;
    n_clusters = 5;
    cluster_size = 12;
    byz_per_cluster = None;
  }

let catalogue =
  [
    ("steady", Spec.default.Spec.description);
    ("primitives", primitives.Spec.description);
  ]
  @ List.map
      (fun (name, doc) -> (name, "strategy-driven: " ^ doc))
      Adversary.strategy_catalogue

let of_name ?steps name =
  let lower = String.lowercase_ascii name in
  let base =
    match String.index_opt lower ':' with
    | None -> lower
    | Some i -> String.sub lower 0 i
  in
  match lower with
  | "steady" -> Ok steady
  | "primitives" -> Ok primitives
  | _ when List.mem base Adversary.strategy_names -> (
    match Adversary.strategy_of_name ?steps lower with
    | Error msg -> Error msg
    | Ok strategy ->
      let description =
        match List.assoc_opt base Adversary.strategy_catalogue with
        | Some doc -> "strategy-driven: " ^ doc
        | None -> "strategy-driven churn"
      in
      let spec = strategy_spec ~name:lower ~description strategy in
      Ok (match steps with None -> spec | Some steps -> { spec with Spec.steps }))
  | _ ->
    Error
      (Printf.sprintf "unknown scenario %S; available: %s" name
         (String.concat ", " (List.map fst catalogue)))

type engine = [ `State | `Msg | `Mixed | `Async ]

let engine_name = function
  | `State -> "state"
  | `Msg -> "msg"
  | `Mixed -> "mixed"
  | `Async -> "async"

let engine_of_name = function
  | "state" -> Ok `State
  | "msg" -> Ok `Msg
  | "mixed" -> Ok `Mixed
  | "async" -> Ok `Async
  | other ->
    Error
      (Printf.sprintf "unknown engine %S; available: state, msg, mixed, async"
         other)

(* The driver that runs cell [i] on [engine], with its kind for the
   cell's labels: [`Mixed] alternates by cell parity, even cells
   state-level. *)
let driver_of (engine : engine) i : string * (module Driver.S) =
  match engine with
  | `State -> ("state", (module State_driver))
  | `Msg -> ("msg", (module Msg_driver))
  | `Async -> ("async", (module Async_driver))
  | `Mixed when i mod 2 = 0 -> ("state", (module State_driver))
  | `Mixed -> ("msg", (module Msg_driver))

let run_driver (type d) ?steps (module D : Driver.S with type t = d)
    (spec : Spec.t) (d : d) =
  let steps = Option.value steps ~default:spec.Spec.steps in
  if spec.Spec.sample_start then D.sample d ~time:0;
  let every = max 1 spec.Spec.sample_every in
  for time = 1 to steps do
    D.step d ~time;
    if time mod every = 0 then D.sample d ~time
  done;
  if steps mod every <> 0 then D.sample d ~time:steps;
  D.stats d

(* Cells 0 and 1 cover every driver an engine uses. *)
let check_supported engine (spec : Spec.t) =
  let supports i =
    let _, (module D : Driver.S) = driver_of engine i in
    D.supports spec
  in
  Result.bind (supports 0) (fun () -> supports 1)

let cells ?jobs ?steps ~engine ~seed ~cells (spec : Spec.t) =
  Exec.par_map ?jobs
    (fun i ->
      let kind, (module D : Driver.S) = driver_of engine i in
      let labels = [ ("cell", string_of_int i); ("scenario", kind) ] in
      let d = D.create_cell ~seed ~cell:i ~labels spec in
      (D.label d, run_driver ?steps (module D) spec d))
    (List.init cells (fun i -> i))
