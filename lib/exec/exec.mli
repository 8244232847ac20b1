(** Deterministic fork-join execution on OCaml 5 domains.

    The repo's invariant is that the same seed yields bit-identical tables
    and trajectories (CLAUDE.md); this module adds multicore fan-out
    without giving that up.  The contract:

    - Tasks are identified by their {e submission index}, never by the
      order the scheduler happens to run them in.  Results are collected
      into a slot per index and merged in submission order, so
      [par_map f xs] returns exactly [List.map f xs] for any worker
      count — a property the test suite checks byte-for-byte on real
      experiment tables.
    - Any per-task randomness must be derived from the task index (see
      {!Harness.Common.par_map_trials}), never from which worker picked
      the task up.
    - Tasks must be independent: they may not share mutable state with
      each other (every experiment cell builds its own engine from the
      experiment seed, which is why the harness parallelises at that
      granularity).

    The pool is hand-rolled (no Domainslib): worker domains drain an
    atomic task-index dispenser.  When [?jobs] is omitted, spawning is
    gated by a global budget of [default_jobs () - 1] spare domain
    slots, so the total number of live domains never exceeds the
    configured job count no matter how calls nest (e.g.
    [Registry.run_ids] fans out over experiments while each
    experiment's own [par_map] calls use whatever slots are free).  A
    caller that cannot spawn executes tasks itself and re-checks the
    budget between tasks, so capacity released by sibling experiments
    finishing is picked up mid-experiment.  An explicit [?jobs]
    bypasses the budget for that call.

    When a {!Trace} collector is active, every task records trace events
    into its own buffer and the buffers are appended to the caller's in
    submission order after the join — the trace stream, like the result
    list, is byte-identical for any worker count. *)

val set_default_jobs : int -> unit
(** Set the job count used when [?jobs] is omitted (clamped to >= 1).
    The CLIs call this once from their [-j] flag before running
    anything. *)

val default_jobs : unit -> int
(** Current default job count.  Starts at
    [Domain.recommended_domain_count ()]. *)

val par_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [par_map ?jobs f xs] is [List.map f xs], computed by up to [jobs]
    domains (default {!default_jobs}).  [jobs = 1] and singleton/empty
    lists run sequentially in the calling domain; a call made while the
    domain budget is exhausted (e.g. nested under a saturated outer
    [par_map]) also starts sequentially, picking up workers only as
    budget frees up.

    If one or more tasks raise, the exception of the {e
    lowest-submission-index} failing task is re-raised (with its
    backtrace) after all workers have drained — deterministic no matter
    which worker hit it first.  Remaining tasks may or may not have run;
    tasks must not rely on later siblings being skipped. *)

(** {2 Pool introspection}

    Lifetime counters over every {!par_map} call since start-up (or the
    last {!reset_stats}).  The integer counters describe scheduling
    decisions; [workers_spawned], [budget_denials], [caller_tasks],
    [worker_tasks] and both wall-clock fields are {e non-deterministic}
    (they depend on which domain won which task and on real time) and are
    excluded from every gated byte — only the opt-in [--exec-stats] CLI
    flags print them.  [par_calls] and [tasks] are deterministic for a
    fixed workload. *)

type stats = {
  par_calls : int;  (** {!par_map} calls (deterministic) *)
  tasks : int;  (** tasks executed across all calls (deterministic) *)
  caller_tasks : int;
      (** tasks the calling domain chipped in on (non-deterministic) *)
  worker_tasks : int array;
      (** tasks per worker rank: element [r] counts tasks run by the
          [r]-th worker spawned by a call, summed over calls; trailing
          all-zero ranks are trimmed (non-deterministic) *)
  workers_spawned : int;  (** worker domains spawned (non-deterministic) *)
  budget_denials : int;
      (** spawn attempts the global domain budget refused, forcing the
          caller to run tasks itself (non-deterministic) *)
  queue_wait_s : float;
      (** wall-clock seconds from a call's entry to each task's start,
          summed over tasks — serialized-backlog time
          (non-deterministic) *)
  merge_stall_s : float;
      (** wall-clock seconds the caller spent joining straggling workers
          after draining the task queue — submission-order merge stall
          (non-deterministic) *)
}
(** A snapshot of the pool counters. *)

val stats : unit -> stats
(** Read the counters (thread-safe snapshot; the wall-clock pair is read
    under its mutex, the atomics individually — a concurrent in-flight
    par_map may straddle the snapshot). *)

val reset_stats : unit -> unit
(** Zero all counters.  Call only between [par_map] calls; tests reset
    between cases. *)
