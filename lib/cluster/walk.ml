module Graph = Dsgraph.Graph

type error = [ `Validation_failed of int | `Too_many_restarts ]

type stats = { selected : int; hops : int; restarts : int; hop_retries : int }

(* Split one randNum draw into the fields a hop needs: a neighbour index
   and a uniform coin for the exponential holding time. *)
let coin_range = 1 lsl 20

(* Duration ~ mixing time: the continuous-time walk fires at rate deg(v),
   so covering log2(#C) units of mixing costs log2(#C) / mean-degree time
   (mirrors Now_core.Cost_model.walk_duration; hops ~ 2 log2 #C). *)
let default_duration cfg =
  let g = Config.overlay cfg in
  let n = max 2 (Graph.n_vertices g) in
  let mean_degree = Float.max 1.0 (Graph.mean_degree g) in
  2.0 *. (log (float_of_int n) /. log 2.0) /. mean_degree

type leaves = {
  randnum : cluster:int -> range:int -> Randnum.outcome * float;
  transmit :
    src_cluster:int ->
    dst_cluster:int ->
    label:string ->
    payload:int ->
    Valchan.result * float;
  bulk_rounds : int;
  span_time : unit -> int;
}

let sync cfg =
  let ledger = Config.ledger cfg in
  {
    randnum = (fun ~cluster ~range -> (Randnum.run cfg ~cluster ~range, 0.0));
    transmit =
      (fun ~src_cluster ~dst_cluster ~label ~payload ->
        (Valchan.transmit cfg ~src_cluster ~dst_cluster ~label ~payload (), 0.0));
    bulk_rounds = 1;
    span_time = (fun () -> Metrics.Ledger.total_rounds ledger);
  }

let rand_cl_session l ?duration ?(max_restarts = 1000) ?(max_hop_retries = 2) cfg ~start =
  let overlay = Config.overlay cfg in
  let duration = match duration with Some d -> d | None -> default_duration cfg in
  let max_size = float_of_int (Config.max_cluster_size cfg) in
  (* The walk's makespan: the sum of its draws' and transfers' makespans,
     in the order they ran. *)
  let elapsed = ref 0.0 in
  let exception Invalid of int in
  (* [retries] counts hop re-draws across the whole walk; a hop that fails
     validation (dropped or misrouted token copies by a Byzantine majority
     of the current cluster) is retried with a fresh randNum draw — the
     walk may route around the faulty edge — up to [max_hop_retries] times
     in total before the current cluster is blamed.  The retry path only
     replaces a previously-fatal path, so fault-free walks are
     byte-identical to the pre-retry implementation. *)
  let rec hop current remaining hops restarts retries =
    let d = Graph.degree overlay current in
    let draw range =
      let o, makespan = l.randnum ~cluster:current ~range in
      elapsed := !elapsed +. makespan;
      o.Randnum.value
    in
    let finish () =
      (* Endpoint acceptance coin: p = |C| / max |C'|. *)
      let p = float_of_int (Config.size cfg current) /. max_size in
      let coin = float_of_int (draw coin_range) /. float_of_int coin_range in
      if coin < p then Ok { selected = current; hops; restarts; hop_retries = retries }
      else if restarts >= max_restarts then Error `Too_many_restarts
      else hop current duration hops (restarts + 1) retries
    in
    if d = 0 then finish ()
    else begin
      let r = draw (d * coin_range) in
      let neighbor_index = r mod d in
      let u = float_of_int (r / d) /. float_of_int coin_range in
      let hold = -.log (1.0 -. u +. (1.0 /. float_of_int coin_range)) /. float_of_int d in
      if hold >= remaining then finish ()
      else begin
        (* Same pick as sorting the neighbour list per hop, without the
           per-hop sort: the sorted view is memoised until the overlay
           mutates. *)
        let next = (Graph.sorted_neighbors overlay current).(neighbor_index) in
        (* Forward the walk token over the validated channel. *)
        let res, makespan =
          l.transmit ~src_cluster:current ~dst_cluster:next ~label:"walk.token"
            ~payload:hops
        in
        elapsed := !elapsed +. makespan;
        match res.Valchan.unanimous with
        | Some _ -> hop next (remaining -. hold) (hops + 1) restarts retries
        | None ->
          if retries >= max_hop_retries then raise (Invalid current)
          else begin
            if Trace.active () then
              Trace.point
                ~attrs:[ ("hop", hops); ("to", next) ]
                Trace.Msg "walk.retry";
            hop current remaining hops restarts (retries + 1)
          end
      end
    end
  in
  let result =
    match hop start duration 0 0 0 with
    | result -> result
    | exception Invalid c -> Error (`Validation_failed c)
  in
  (result, !elapsed)

let rand_cl_on l ?duration ?max_restarts ?max_hop_retries cfg ~start =
  Trace.with_span
    ~attrs:[ ("start", start) ]
    ~ledger:(Config.ledger cfg) ~time:(l.span_time ()) Trace.Msg "randcl"
    (fun () -> rand_cl_session l ?duration ?max_restarts ?max_hop_retries cfg ~start)

let rand_cl ?duration ?max_restarts ?max_hop_retries cfg ~start =
  fst (rand_cl_on (sync cfg) ?duration ?max_restarts ?max_hop_retries cfg ~start)

let pick_member_on l cfg ~cluster =
  let members = Config.members cfg cluster in
  let o, makespan = l.randnum ~cluster ~range:(List.length members) in
  (List.nth members o.Randnum.value, makespan)

let pick_member cfg ~cluster = fst (pick_member_on (sync cfg) cfg ~cluster)

let pick_node ?duration cfg ~start =
  match rand_cl ?duration cfg ~start with
  | Error e -> Error e
  | Ok { selected; _ } -> Ok (pick_member cfg ~cluster:selected)
