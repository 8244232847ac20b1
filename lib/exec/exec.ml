(* Deterministic fork-join pool on OCaml 5 domains.  See exec.mli for the
   contract; the load-bearing choices are (a) tasks are handed out by an
   atomic submission-index dispenser and results live in a slot per index,
   so the merge order is independent of scheduling, and (b) spawning is
   gated by a global pool of spare domain slots, so the total number of
   live domains never exceeds the configured job count no matter how
   par_map calls nest — a caller that cannot spawn simply executes tasks
   itself, re-checking the pool between tasks so capacity freed elsewhere
   (e.g. sibling experiments finishing) is picked up mid-run. *)

let default = Atomic.make 0
(* 0 = "not set yet": resolved lazily so that set_default_jobs from a CLI
   flag wins over the recommendation without an initialisation order
   dependence. *)

let default_jobs () =
  match Atomic.get default with 0 -> Domain.recommended_domain_count () | j -> j

(* Spare domain slots shared by every par_map call (the calling domain is
   not counted: [j] jobs = 1 caller + [j - 1] spares).  -1 = not yet
   initialised from [default_jobs]. *)
let spare = Atomic.make (-1)

let set_default_jobs j =
  let j = max 1 j in
  Atomic.set default j;
  (* Assumes no par_map is in flight — true for the CLIs (flag parsing
     happens before any experiment runs) and the test suite. *)
  Atomic.set spare (j - 1)

let init_spare () =
  if Atomic.get spare = -1 then
    ignore (Atomic.compare_and_set spare (-1) (default_jobs () - 1))

let rec try_reserve () =
  let s = Atomic.get spare in
  s > 0 && (Atomic.compare_and_set spare s (s - 1) || try_reserve ())

let release () = Atomic.incr spare

(* Pool introspection (Exec.stats).  Counters accumulate across par_map
   calls until reset_stats; they are never read on any gated output path
   (only the opt-in --exec-stats CLI flags print them), so the wall-clock
   fields cannot leak into a byte-identity contract.  Integer counters
   are atomics; the two wall-clock accumulators share one mutex. *)
module S = struct
  let max_ranks = 64
  let par_calls = Atomic.make 0
  let tasks = Atomic.make 0
  let caller_tasks = Atomic.make 0
  let workers_spawned = Atomic.make 0
  let budget_denials = Atomic.make 0
  let worker_tasks = Array.init max_ranks (fun _ -> Atomic.make 0)
  let mu = Mutex.create ()
  let queue_wait = ref 0.0
  let merge_stall = ref 0.0

  let add_wall cell dt =
    Mutex.lock mu;
    cell := !cell +. dt;
    Mutex.unlock mu

  let task_done ~rank =
    Atomic.incr tasks;
    if rank < 0 then Atomic.incr caller_tasks
    else if rank < max_ranks then Atomic.incr worker_tasks.(rank)
end

type stats = {
  par_calls : int;
  tasks : int;
  caller_tasks : int;
  worker_tasks : int array;
  workers_spawned : int;
  budget_denials : int;
  queue_wait_s : float;
  merge_stall_s : float;
}

let stats () =
  let ranks =
    Array.map Atomic.get S.worker_tasks |> Array.to_list |> List.rev
    |> List.to_seq
    |> Seq.drop_while (fun c -> c = 0)
    |> List.of_seq |> List.rev |> Array.of_list
  in
  Mutex.lock S.mu;
  let queue_wait_s = !S.queue_wait and merge_stall_s = !S.merge_stall in
  Mutex.unlock S.mu;
  {
    par_calls = Atomic.get S.par_calls;
    tasks = Atomic.get S.tasks;
    caller_tasks = Atomic.get S.caller_tasks;
    worker_tasks = ranks;
    workers_spawned = Atomic.get S.workers_spawned;
    budget_denials = Atomic.get S.budget_denials;
    queue_wait_s;
    merge_stall_s;
  }

let reset_stats () =
  Atomic.set S.par_calls 0;
  Atomic.set S.tasks 0;
  Atomic.set S.caller_tasks 0;
  Atomic.set S.workers_spawned 0;
  Atomic.set S.budget_denials 0;
  Array.iter (fun a -> Atomic.set a 0) S.worker_tasks;
  Mutex.lock S.mu;
  S.queue_wait := 0.0;
  S.merge_stall := 0.0;
  Mutex.unlock S.mu

type 'b slot = Empty | Ok of 'b | Err of exn * Printexc.raw_backtrace

let par_map ?jobs f xs =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  Atomic.incr S.par_calls;
  if n <= 1 then
    List.map
      (fun x ->
        S.task_done ~rank:(-1);
        f x)
      xs
  else begin
    init_spare ();
    let t_entry = Unix.gettimeofday () in
    (* Trace integration: each task records into its own buffer, merged in
       submission order after the join, so the event stream equals the
       sequential run's for any worker count.  [tracing] is latched here:
       collectors are only installed/removed between par_map calls. *)
    let tracing = Trace.active () in
    let trace_bufs =
      if tracing then Array.init n (fun _ -> Trace.task_buf ()) else [||]
    in
    (* With an explicit ?jobs the caller knows best: spawn up to jobs - 1
       workers unconditionally.  With the default, spawning additionally
       requires a slot from the global pool, which is what bounds the
       domain count under nesting. *)
    let budgeted = jobs = None in
    let target =
      let j = match jobs with Some j -> max 1 j | None -> default_jobs () in
      min (j - 1) (n - 1)
    in
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let run ~rank i =
      S.add_wall S.queue_wait (Unix.gettimeofday () -. t_entry);
      let exec () =
        try Ok (f tasks.(i)) with e -> Err (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- (if tracing then Trace.run_in_buf trace_bufs.(i) exec else exec ());
      S.task_done ~rank
    in
    let rec drain ~rank () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run ~rank i;
        drain ~rank ()
      end
    in
    let worker rank () =
      drain ~rank ();
      if budgeted then release ()
    in
    let workers = ref [] in
    let to_spawn = ref target in
    (* The calling domain: spawn while capacity allows, otherwise chip in
       on a task, then look again — capacity released by unrelated callers
       while we were busy gets used for our remaining tasks. *)
    let rec caller_loop () =
      if Atomic.get next < n then
        if
          !to_spawn > 0
          && ((not budgeted)
             || try_reserve ()
             ||
             (Atomic.incr S.budget_denials;
              false))
        then begin
          (* Rank r = the r-th worker this call spawned; per-rank task
             tallies aggregate the same position across calls. *)
          let rank = target - !to_spawn in
          decr to_spawn;
          Atomic.incr S.workers_spawned;
          workers := Domain.spawn (worker (rank mod S.max_ranks)) :: !workers;
          caller_loop ()
        end
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then run ~rank:(-1) i;
          caller_loop ()
        end
    in
    caller_loop ();
    let t_drained = Unix.gettimeofday () in
    List.iter Domain.join !workers;
    S.add_wall S.merge_stall (Unix.gettimeofday () -. t_drained);
    if tracing then Trace.merge trace_bufs;
    (* Merge in submission order; re-raise the lowest-index failure so the
       observable exception is scheduling-independent. *)
    Array.iter
      (function
        | Err (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok _ | Empty -> ())
      results;
    Array.to_list
      (Array.map
         (function
           | Ok y -> y
           | Empty | Err _ -> assert false (* all slots filled above *))
         results)
  end
