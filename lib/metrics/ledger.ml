type entry = { mutable messages : int; mutable rounds : int }

type t = {
  by_label : (string, entry) Hashtbl.t;
  mutable total_messages : int;
  mutable total_rounds : int;
}

let create () = { by_label = Hashtbl.create 16; total_messages = 0; total_rounds = 0 }

let entry t label =
  match Hashtbl.find_opt t.by_label label with
  | Some e -> e
  | None ->
    let e = { messages = 0; rounds = 0 } in
    Hashtbl.add t.by_label label e;
    e

let charge t ~label ~messages ~rounds =
  let e = entry t label in
  e.messages <- e.messages + messages;
  e.rounds <- e.rounds + rounds;
  t.total_messages <- t.total_messages + messages;
  t.total_rounds <- t.total_rounds + rounds

(* Handles resolve the label entry lazily (on first charge, not at
   creation) so that a handle that is never charged leaves no zero-count
   label behind in [labels] — serialised ledgers must list exactly the
   labels that were actually charged. *)
type handle = {
  h_ledger : t;
  h_label : string;
  mutable h_entry : entry option;
}

let handle t label = { h_ledger = t; h_label = label; h_entry = None }

let charge_handle h ~messages ~rounds =
  let t = h.h_ledger in
  let e =
    match h.h_entry with
    | Some e -> e
    | None ->
      let e = entry t h.h_label in
      h.h_entry <- Some e;
      e
  in
  e.messages <- e.messages + messages;
  e.rounds <- e.rounds + rounds;
  t.total_messages <- t.total_messages + messages;
  t.total_rounds <- t.total_rounds + rounds

let total_messages t = t.total_messages

let total_rounds t = t.total_rounds

let label_messages t label =
  match Hashtbl.find_opt t.by_label label with
  | Some e -> e.messages
  | None -> 0

let labels t =
  Hashtbl.fold (fun label e acc -> (label, e.messages, e.rounds) :: acc) t.by_label []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let reset t =
  Hashtbl.reset t.by_label;
  t.total_messages <- 0;
  t.total_rounds <- 0

type snapshot = { messages : int; rounds : int }

let snapshot t = { messages = t.total_messages; rounds = t.total_rounds }

let since t snap =
  { messages = t.total_messages - snap.messages; rounds = t.total_rounds - snap.rounds }
