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

(* The batched session: one quorum pass per destination instead of one
   [validate] scan per sender.

   Every honest source member multicasts the identical payload, so the
   honest part of every destination's vote tally is the same number H of
   [payload] votes; only deviant sends differ per destination.  Recording
   each Byzantine source's first value to each destination (first message
   per sender winning, in send order — exactly what [validate] sees after
   the kernel's stable per-sender sort) lets each verdict be computed from
   H plus at most one recorded vote per Byzantine source.  No message is
   delivered, so none goes through a kernel: the session charges the
   round-1 sends once (|dst| per honest source, one per copy a corrupted
   source sends) and traces them in the kernel's order, so ledger
   charges, trace points and Byzantine RNG draws are byte-identical to
   the reference. *)
let transmit_session cfg ~src_cluster ~dst_cluster ~label ~payload =
  let src_members = Config.members cfg src_cluster in
  let dst_members = Config.members cfg dst_cluster in
  let dsts = Array.of_list dst_members in
  let m = Array.length dsts in
  let n_byz =
    List.fold_left
      (fun b id -> if Config.is_byzantine cfg id then b + 1 else b)
      0 src_members
  in
  (* Byzantine source [i]'s first value to destination [j] sits at
     [i * m + j], once [voted] marks it. *)
  let voted = Array.make (n_byz * m) false and first = Array.make (n_byz * m) 0 in
  (* [dst]'s position among the sorted destinations, [-1] for a redirect
     sink outside them. *)
  let rec position dst lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if dsts.(mid) = dst then mid
      else if dsts.(mid) < dst then position dst (mid + 1) hi
      else position dst lo mid
  in
  let record base ~dst value =
    let j = position dst 0 m in
    if j >= 0 && not voted.(base + j) then begin
      voted.(base + j) <- true;
      first.(base + j) <- value
    end
  in
  let detail = Trace.net_detail () in
  Net.trace_round 1;
  let sent = ref 0 and next_byz = ref 0 in
  List.iter
    (fun src ->
      match Config.byzantine cfg src with
      | None ->
        sent := !sent + m;
        if detail then
          Array.iter
            (fun dst -> Net.trace_send ~round:1 ~src ~dst ~label ~deviant:false)
            dsts
      | Some strategy ->
        let base = !next_byz * m in
        incr next_byz;
        corrupted_sends strategy ~src ~dsts:dst_members ~label ~payload
          (fun ~dst ~deviant v ->
            incr sent;
            Net.trace_send ~round:1 ~src ~dst ~label ~deviant;
            record base ~dst v))
    src_members;
  Net.trace_round 2;
  let ledger = Config.ledger cfg in
  Metrics.Ledger.charge ledger ~label:"round" ~messages:0 ~rounds:2;
  if !sent > 0 then Metrics.Ledger.charge ledger ~label ~messages:!sent ~rounds:0;
  let threshold = List.length src_members / 2 in
  let n_honest_src = List.length src_members - n_byz in
  (* [value]'s votes at destination [j]: H if it is the payload, plus the
     Byzantine first votes recorded for it. *)
  let votes j value =
    let c = ref (if value = payload then n_honest_src else 0) in
    for i = 0 to n_byz - 1 do
      let k = (i * m) + j in
      if voted.(k) && first.(k) = value then incr c
    done;
    !c
  in
  (* At most one value can clear a strict majority: the payload or a value
     some Byzantine source sent. *)
  let verdict_of j =
    if votes j payload > threshold then Some payload
    else
      let rec forged i =
        if i = n_byz then None
        else
          let k = (i * m) + j in
          if voted.(k) && votes j first.(k) > threshold then Some first.(k)
          else forged (i + 1)
      in
      forged 0
  in
  let verdicts = ref [] in
  for j = m - 1 downto 0 do
    let id = dsts.(j) in
    if not (Config.is_byzantine cfg id) then verdicts := (id, verdict_of j) :: !verdicts
  done;
  summarise !verdicts

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
