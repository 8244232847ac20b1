(** Experiment registry: every table/figure reproduction, addressable by id
    (used by [now_sim experiments] and the test suite). *)

type runner = Common.mode -> Common.result

val all : (string * runner) list
(** In presentation order: E1..E13, F1, F2, then the ablations A1, A2. *)

val descriptions : (string * string) list
(** One-line description per experiment id, in registry order (used by
    [now_sim experiments --list]). *)

val find : string -> runner option
(** Case-insensitive lookup by id. *)

val run_ids :
  ?wrap:(string -> (unit -> Common.result) -> Common.result) ->
  mode:Common.mode -> string list -> Common.result list
(** Run the experiments with the given ids ([[]] means all) concurrently
    on the {!Exec} pool, then print every result in registry order (the
    output is byte-identical for any [-j]).  [wrap] intercepts each
    experiment's execution (it must call the thunk exactly once) —
    [now_sim experiments] uses it to time runs without touching their
    output.  Raises [Invalid_argument] on an unknown id. *)
