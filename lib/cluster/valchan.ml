module Net = Simkernel.Net
module B = Agreement.Byz_behavior

(* One point per injected deviation (Msg layer, inside the transfer's
   span), so `now_sim trace` surfaces every Byzantine action without
   needing --net-detail. *)
let deviation_point strategy ~src ~dst =
  if Trace.active () then
    Trace.point
      ~attrs:[ ("dst", dst); ("src", src) ]
      Trace.Msg
      ("byz." ^ B.deviation strategy)

let validate ~members ~inbox =
  (* One vote per member: first message wins (authenticated channels make
     later duplicates an artefact, not an attack vector). *)
  let votes = Hashtbl.create 16 in
  List.iter
    (fun (sender, payload) ->
      if List.mem sender members && not (Hashtbl.mem votes sender) then
        Hashtbl.replace votes sender payload)
    inbox;
  let counts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ payload ->
      let c = match Hashtbl.find_opt counts payload with Some c -> c | None -> 0 in
      Hashtbl.replace counts payload (c + 1))
    votes;
  let threshold = List.length members / 2 in
  Hashtbl.fold
    (fun payload c acc -> if c > threshold then Some payload else acc)
    counts None

type result = {
  verdicts : (int * int option) list;
  unanimous : int option;
}

let summarise verdicts =
  let unanimous =
    match verdicts with
    | [] -> None
    | (_, first) :: rest ->
      if first <> None && List.for_all (fun (_, v) -> v = first) rest then first
      else None
  in
  { verdicts; unanimous }

let split_point dst_members =
  match dst_members with
  | [] -> 0
  | _ -> List.nth dst_members (List.length dst_members / 2)

let corrupted_sends strategy ~src ~dsts ~label ~payload send =
  let rng = B.rng_of strategy and split_at = split_point dsts in
  List.iter
    (fun dst ->
      match B.on_channel strategy rng ~label ~dst ~split_at ~honest:payload with
      | B.Honest_send -> send ~dst ~deviant:false payload
      | B.Forge v ->
        deviation_point strategy ~src ~dst;
        send ~dst ~deviant:true v
      | B.Redirect sink ->
        deviation_point strategy ~src ~dst;
        send ~dst:sink ~deviant:true payload
      | B.Stay_silent -> deviation_point strategy ~src ~dst)
    dsts

(* The naive session: every destination node collects its full inbox and
   runs [validate] over it, one scan per sender.  Kept as the oracle the
   batched path is qcheck-tested against. *)
let reference_session cfg ~src_cluster ~dst_cluster ~label ~payload =
  let src_members = Config.members cfg src_cluster in
  let dst_members = Config.members cfg dst_cluster in
  let net = Net.create ~ledger:(Config.ledger cfg) () in
  let verdicts : (int, int option) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match Config.byzantine cfg id with
      | None ->
        Net.add_node net ~id (fun ~round ~inbox ->
            ignore inbox;
            if round = 1 then
              Net.multicast net ~src:id ~dsts:dst_members ~label payload)
      | Some strategy ->
        Net.add_node net ~id (fun ~round ~inbox ->
            ignore inbox;
            if round = 1 then
              corrupted_sends strategy ~src:id ~dsts:dst_members ~label ~payload
                (fun ~dst ~deviant v -> Net.send net ~src:id ~dst ~label ~deviant v)))
    src_members;
  List.iter
    (fun id ->
      if not (Config.is_byzantine cfg id) then
        Net.add_node net ~id (fun ~round ~inbox ->
            if round = 2 then
              Hashtbl.replace verdicts id (validate ~members:src_members ~inbox)))
    dst_members;
  Net.run_rounds net 2;
  let honest_dst = List.filter (fun id -> not (Config.is_byzantine cfg id)) dst_members in
  summarise
    (List.map
       (fun id ->
         (id, match Hashtbl.find_opt verdicts id with Some v -> v | None -> None))
       honest_dst)

(* The batched session: one quorum pass per (destination, message) instead
   of one [validate] scan per sender.

   Every honest source member multicasts the identical payload, so the
   honest part of every destination's vote tally is the same number H of
   [payload] votes; only deviant sends differ per destination.  Recording
   the few Byzantine sends as they happen (in send order, first message
   per sender winning — exactly what [validate] sees after the kernel's
   stable per-sender sort) lets each verdict be computed from H plus a
   handful of recorded votes.  All messages are still physically sent
   through the same private net: ledger charges, [messages_sent], trace
   points and Byzantine RNG draws are byte-identical to the reference. *)
let transmit_session cfg ~src_cluster ~dst_cluster ~label ~payload =
  let src_members = Config.members cfg src_cluster in
  let dst_members = Config.members cfg dst_cluster in
  let net = Net.create ~ledger:(Config.ledger cfg) () in
  (* Byzantine votes per destination, in reversed send order. *)
  let byz_votes : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  let record ~dst ~sender value =
    let cell =
      match Hashtbl.find_opt byz_votes dst with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add byz_votes dst c;
        c
    in
    cell := (sender, value) :: !cell
  in
  let n_honest_src = ref 0 in
  List.iter
    (fun id ->
      match Config.byzantine cfg id with
      | None ->
        incr n_honest_src;
        Net.add_node ~needs_inbox:false net ~id (fun ~round ~inbox ->
            ignore inbox;
            if round = 1 then
              Net.multicast net ~src:id ~dsts:dst_members ~label payload)
      | Some strategy ->
        Net.add_node ~needs_inbox:false net ~id (fun ~round ~inbox ->
            ignore inbox;
            if round = 1 then
              corrupted_sends strategy ~src:id ~dsts:dst_members ~label ~payload
                (fun ~dst ~deviant v ->
                  Net.send net ~src:id ~dst ~label ~deviant v;
                  record ~dst ~sender:id v)))
    src_members;
  List.iter
    (fun id ->
      if not (Config.is_byzantine cfg id) then
        Net.add_node ~needs_inbox:false net ~id (fun ~round:_ ~inbox:_ -> ()))
    dst_members;
  Net.run_rounds net 2;
  let threshold = List.length src_members / 2 in
  let verdict_of dst =
    (* Votes = H copies of [payload] + this destination's recorded
       Byzantine votes (one per sender, first send wins). *)
    let counts : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let voted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    if !n_honest_src > 0 then Hashtbl.replace counts payload !n_honest_src;
    (match Hashtbl.find_opt byz_votes dst with
    | None -> ()
    | Some cell ->
      List.iter
        (fun (sender, value) ->
          if not (Hashtbl.mem voted sender) then begin
            Hashtbl.replace voted sender ();
            let c =
              match Hashtbl.find_opt counts value with Some c -> c | None -> 0
            in
            Hashtbl.replace counts value (c + 1)
          end)
        (List.rev !cell));
    (* At most one value can clear a strict-majority threshold. *)
    Hashtbl.fold (fun value c acc -> if c > threshold then Some value else acc) counts None
  in
  summarise
    (List.filter_map
       (fun id ->
         if Config.is_byzantine cfg id then None else Some (id, verdict_of id))
       dst_members)

let transmit_reference cfg ~src_cluster ~dst_cluster ?(label = "valchan") ~payload () =
  reference_session cfg ~src_cluster ~dst_cluster ~label ~payload

let transmit cfg ~src_cluster ~dst_cluster ?(label = "valchan") ~payload () =
  let ledger = Config.ledger cfg in
  (* The span is named after the channel's label ("walk.token",
     "exchange.announce", ...) so the profile separates the transfer's
     uses; "valchan." prefixes the default for the anonymous case. *)
  Trace.with_span
    ~attrs:[ ("dst", dst_cluster); ("src", src_cluster) ]
    ~ledger
    ~time:(Metrics.Ledger.total_rounds ledger)
    Trace.Msg label
    (fun () -> transmit_session cfg ~src_cluster ~dst_cluster ~label ~payload)
