module Net = Simkernel.Net
module Rng = Prng.Rng
module B = Agreement.Byz_behavior

type outcome = { value : int; secure : bool; stalled : bool; participants : int }

(* SplitMix-style avalanche so that any single uniform contribution makes
   the mix uniform. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let mix contributions ~range =
  if range <= 0 then invalid_arg "Randnum.mix: range must be positive";
  let acc =
    List.fold_left
      (fun acc c -> mix64 (Int64.add (Int64.mul acc 0x9E3779B97F4A7C15L) (Int64.of_int c)))
      0x106689D45497FDB5L contributions
  in
  Int64.to_int (Int64.rem (Int64.logand acc Int64.max_int) (Int64.of_int range))

let secure cfg members =
  let byz = List.length (List.filter (Config.is_byzantine cfg) members) in
  3 * byz < 2 * List.length members

let contribution cfg id =
  match Config.byzantine cfg id with
  | None -> Some (Rng.int (Config.rng cfg) 1_073_741_823)
  | Some strategy ->
    (* Committed before any honest contribution is visible; the VSS
       model makes it binding and consistent across members. *)
    let c = B.share strategy (B.rng_of strategy) in
    (* Withheld or biased shares are injected deviations; the
       honest-looking shares of the channel-targeting behaviours are
       not (commit-reveal makes them indistinguishable). *)
    (if Trace.active () then
       match (strategy, c) with
       | _, None -> Trace.point ~attrs:[ ("node", id) ] Trace.Msg "byz.randnum.withhold"
       | (B.Silent | B.Fixed _ | B.Equivocate _ | B.Random_noise _ | B.Bias_share _), Some _
         ->
         Trace.point ~attrs:[ ("node", id) ] Trace.Msg "byz.randnum.bias"
       | (B.Drop_walk _ | B.Misroute_walk _ | B.Lie_views _), Some _ -> ());
    c

let conclude ~secure ~n ~range contributions =
  let participants = List.length contributions in
  (* Honest-side stall detection: reconstruction needs shares escrowed by
     more than two thirds of the members (the VSS quorum); more than 1/3
     withholding is observable by every honest member as missing escrows. *)
  let stalled = 3 * participants < 2 * n in
  if stalled && Trace.active () then
    Trace.point ~attrs:[ ("have", participants); ("need", (2 * n / 3) + 1) ] Trace.Msg
      "randnum.stall";
  if not secure then { value = 0; secure; stalled; participants }
  else begin
    let sorted =
      List.sort (fun (a, _) (b, _) -> compare a b) contributions |> List.map snd
    in
    { value = mix sorted ~range; secure; stalled; participants }
  end

(* Round 1 escrows every contribution with the other members and round 2
   reconstructs it; nothing reads those messages (the contributions
   collected here are what the reconstruction yields), so the session
   charges them — [2 (n - 1)] per member that escrows — and traces them
   in the kernel's order instead of sending them. *)
let run_session cfg ~range ~members ~n =
  let secure = secure cfg members in
  let contributions =
    List.fold_left
      (fun acc id ->
        match contribution cfg id with
        | Some c -> (id, c) :: acc
        | None -> acc (* silent member: excluded from the mix, consistently *))
      [] members
  in
  if Trace.net_detail () then begin
    let senders = List.rev_map fst contributions in
    for round = 1 to 2 do
      Net.trace_round round;
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if dst <> src then
                Net.trace_send ~round ~src ~dst ~label:"randnum" ~deviant:false)
            members)
        senders
    done
  end;
  let ledger = Config.ledger cfg in
  Metrics.Ledger.charge ledger ~label:"round" ~messages:0 ~rounds:2;
  let messages = 2 * List.length contributions * (n - 1) in
  if messages > 0 then
    Metrics.Ledger.charge ledger ~label:"randnum" ~messages ~rounds:0;
  conclude ~secure ~n ~range contributions

let run cfg ~cluster ~range =
  if range <= 0 then invalid_arg "Randnum.run: range must be positive";
  let members = Config.members cfg cluster in
  let n = List.length members in
  if n = 0 then invalid_arg "Randnum.run: empty cluster";
  let ledger = Config.ledger cfg in
  Trace.with_span
    ~attrs:[ ("cluster", cluster); ("size", n) ]
    ~ledger
    ~time:(Metrics.Ledger.total_rounds ledger)
    Trace.Msg "randnum"
    (fun () -> run_session cfg ~range ~members ~n)
