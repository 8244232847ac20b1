(* The flight recorder: a mutex-protected frame store plus one global
   slot, exactly the monitor's architecture (writes may come from any
   Exec worker; determinism comes from the canonically sorted read
   side, and from every frame's content being a pure function of its
   cell's seed). *)

type frame = {
  f_labels : (string * string) list;
  step : int;
  subsystem : string;
  digest : int64;
}

let sort_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let compare_frame a b =
  let c = compare (a.f_labels : (string * string) list) b.f_labels in
  if c <> 0 then c
  else
    let c = compare a.step b.step in
    if c <> 0 then c
    else
      let c = String.compare a.subsystem b.subsystem in
      if c <> 0 then c else compare a.digest b.digest

type t = {
  mutex : Mutex.t;
  rec_cadence : int;
  mutable recorded : frame list;
}

let create ?(cadence = 1) () =
  if cadence < 1 then invalid_arg "Audit.Recorder.create: cadence must be >= 1";
  { mutex = Mutex.create (); rec_cadence = cadence; recorded = [] }

let due t ~step = step mod t.rec_cadence = 0

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record ?(labels = []) t ~step digests =
  let labels = sort_labels labels in
  let frames =
    List.map
      (fun (subsystem, digest) -> { f_labels = labels; step; subsystem; digest })
      digests
  in
  locked t (fun () -> t.recorded <- List.rev_append frames t.recorded)

let frames t = locked t (fun () -> List.sort compare_frame t.recorded)
let n_frames t = locked t (fun () -> List.length t.recorded)

(* ------------------------------------------------------------------ *)
(* The global slot                                                     *)
(* ------------------------------------------------------------------ *)

let slot : t option Atomic.t = Atomic.make None

let install r =
  if not (Atomic.compare_and_set slot None (Some r)) then
    invalid_arg "Audit.Recorder.install: a recorder is already installed"

let uninstall () =
  match Atomic.exchange slot None with
  | Some r -> r
  | None -> invalid_arg "Audit.Recorder.uninstall: no recorder is installed"

let recording () = Atomic.get slot <> None

let with_recorder r f =
  install r;
  Fun.protect ~finally:(fun () -> ignore (uninstall ())) f

let maybe_record_engine ?labels ~step engine =
  match Atomic.get slot with
  | Some r when due r ~step -> record ?labels r ~step (Digest_of.engine engine)
  | _ -> ()

let maybe_record_config ?labels ?extra_rng ~step cfg =
  match Atomic.get slot with
  | Some r when due r ~step ->
    record ?labels r ~step (Digest_of.config ?extra_rng cfg)
  | _ -> ()
