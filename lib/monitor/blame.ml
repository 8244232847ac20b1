(* Causal-window attribution for violation records.

   When a paper bound breaks, the question is "what just happened to that
   cluster?".  The trace layer's per-task flight-recorder ring
   (Trace.recent) holds the most recent events of exactly the task that
   is recording the violation, so reading it here is deterministic for
   any -j and zero-perturbation (read-only, no RNG).  We keep the
   deviations and churn/exchange operations that touched the violating
   cluster and render them as short text entries; a violation with no
   causal event in the window (e.g. corruption present from construction)
   gets a standing-condition entry so the blame block is never empty. *)

let default_max_entries = 8

(* Churn and protocol operations whose spans implicate a cluster. *)
let span_ops =
  [
    "exchange"; "exchange.node"; "join"; "leave"; "merge"; "randnum"; "split";
    "valchan";
  ]

let deviation_point name =
  name = "walk.retry" || name = "randnum.stall"
  || (String.length name > 4 && String.sub name 0 4 = "byz.")

(* Attribute keys that carry a cluster id somewhere in the event stream. *)
let cluster_keys = [ "cluster"; "dst"; "home"; "src"; "start"; "to"; "vertex" ]

let touches ~cluster attrs =
  match cluster with
  | None -> true
  | Some cid ->
      List.exists (fun (k, v) -> v = cid && List.mem k cluster_keys) attrs

let attrs_text attrs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) attrs)

let entry ~name ~layer ~time ~attrs =
  Printf.sprintf "t=%d %s:%s%s" time (Trace.layer_name layer) name
    (attrs_text attrs)

let of_events ?cluster ?(max_entries = default_max_entries) events =
  if max_entries < 1 then
    invalid_arg "Monitor.Blame.of_events: max_entries must be >= 1";
  let relevant =
    List.filter_map
      (fun (ev : Trace.event) ->
        match ev with
        | Trace.Open { name; layer; time; attrs }
          when List.mem name span_ops && touches ~cluster attrs ->
            Some (entry ~name ~layer ~time ~attrs)
        | Trace.Point { name; layer; time; attrs }
          when deviation_point name && touches ~cluster attrs ->
            Some (entry ~name ~layer ~time ~attrs)
        | _ -> None)
      events
  in
  let n = List.length relevant in
  let tail =
    if n <= max_entries then relevant
    else
      List.filteri (fun i _ -> i >= n - max_entries) relevant
  in
  match tail with
  | [] ->
      [
        Printf.sprintf
          "standing: no causal event in the last %d trace events"
          Trace.ring_capacity;
      ]
  | entries -> entries

let attribute ?cluster ?max_entries () =
  of_events ?cluster ?max_entries (Trace.recent ())
