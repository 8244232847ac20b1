(** Shared experiment plumbing: result type, population builders, and the
    parameter grids used across E1–E10 (see DESIGN.md section 4). *)

type result = {
  id : string;  (** e.g. "E3" *)
  title : string;
  table : Metrics.Table.t;
  notes : string list;  (** fits, verdicts, caveats *)
  ok : bool;  (** the paper-shape assertion for this experiment *)
}

val make_result :
  id:string -> title:string -> table:Metrics.Table.t -> ?notes:string list ->
  ok:bool -> unit -> result

val print_result : result -> unit
(** Print the table, notes and verdict.  On a MISMATCH verdict with an
    active trace collector, additionally dump the calling task's
    flight-recorder ring ({!Trace.recent}) to stderr — the failing
    experiment's own causal window. *)

(** Mode scaling: [quick] is used by tests and the default experiments run;
    [full] by the EXPERIMENTS.md regeneration. *)
type mode = Quick | Full

val scale : mode -> quick:int -> full:int -> int

val initial_population : Prng.Rng.t -> n:int -> tau:float -> Now_core.Node.honesty list
(** Exactly [floor (tau * n)] Byzantine members, randomly placed — the
    static adversary corrupts its full budget up-front. *)

val default_engine :
  ?seed:int64 ->
  ?walk_mode:Now_core.Params.walk_mode ->
  ?k:int ->
  ?tau:float ->
  ?shuffle:bool ->
  ?split_merge:bool ->
  n_max:int ->
  n0:int ->
  unit ->
  Now_core.Engine.t

val log2i : int -> float

val par_map_trials :
  ?jobs:int -> seed:int64 -> (rng:Prng.Rng.t -> 'a -> 'b) -> 'a list -> 'b list
(** [par_map_trials ~seed f tasks] runs the independent trial cells
    [tasks] on the {!Exec} pool, handing task [i] a generator split off
    [Prng.Rng.create seed] exactly [i+1] times — derived by task index,
    never by scheduling order, so the result equals the sequential run
    for any worker count.  Results come back in task-submission order. *)
