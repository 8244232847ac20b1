module Store = Store
module Blame = Blame
module Probe = Probe
module Export = Export
module Dashboard = Dashboard

type t = Store.t

let create = Store.create

(* One global slot, like the trace collector: harness hook points read it
   with a single atomic load, so a disabled monitor costs nothing and —
   since probes never draw randomness — an enabled one cannot perturb a
   trajectory. *)
let slot : Store.t option Atomic.t = Atomic.make None

let install m =
  if not (Atomic.compare_and_set slot None (Some m)) then
    invalid_arg "Monitor.install: a monitor is already installed"

let uninstall () =
  match Atomic.exchange slot None with
  | Some m -> m
  | None -> invalid_arg "Monitor.uninstall: no monitor is installed"

let sampling () = Atomic.get slot <> None

let with_monitor m f =
  install m;
  Fun.protect ~finally:(fun () -> ignore (uninstall ())) f

let maybe_sample_engine ?labels ~time engine =
  match Atomic.get slot with
  | Some m when Store.due m ~time -> Probe.sample_engine m ?labels ~time engine
  | _ -> ()

let maybe_sample_config ?labels ?degree_bound ~time cfg =
  match Atomic.get slot with
  | Some m when Store.due m ~time ->
      Probe.sample_config m ?labels ?degree_bound ~time cfg
  | _ -> ()

let maybe_count ~series ?labels ~time n =
  match Atomic.get slot with
  | Some m -> Store.add m Counter ~series ?labels ~time (float_of_int n)
  | None -> ()

let maybe_gauge ~series ?labels ~time v =
  match Atomic.get slot with
  | Some m -> Store.add m Gauge ~series ?labels ~time v
  | None -> ()
