type id = int

type honesty = Honest | Byzantine

let is_byzantine = function Byzantine -> true | Honest -> false

module Roster = struct
  (* Honesty assignments are permanent (the adversary is static): a
     departed node keeps its record so late bookkeeping — e.g. removing it
     from a cluster after it left — can still classify it.  Ids are
     allocated sequentially, so both records live in flat bitfields (one
     bit per node — an eighth of the [bool array] footprint at E15's
     10^6-node scales) and the per-swap honesty checks of the exchange
     loop are plain loads. *)
  type t = {
    byz : Bitset.t;  (* index = id, valid below next_id; set = Byzantine *)
    present : Bitset.t;
    mutable next_id : int;
    mutable present_count : int;
    mutable byz_present : int;
  }

  let create () =
    {
      byz = Bitset.create ~capacity:1024 ();
      present = Bitset.create ~capacity:1024 ();
      next_id = 0;
      present_count = 0;
      byz_present = 0;
    }

  let fresh t honesty =
    let id = t.next_id in
    t.next_id <- id + 1;
    Bitset.set t.byz id (is_byzantine honesty);
    Bitset.set t.present id true;
    t.present_count <- t.present_count + 1;
    if is_byzantine honesty then t.byz_present <- t.byz_present + 1;
    id

  let honesty t id =
    if id < 0 || id >= t.next_id then raise Not_found;
    if Bitset.get t.byz id then Byzantine else Honest

  let is_present t id = id >= 0 && id < t.next_id && Bitset.get t.present id

  let remove t id =
    if not (is_present t id) then raise Not_found;
    Bitset.set t.present id false;
    t.present_count <- t.present_count - 1;
    if Bitset.get t.byz id then t.byz_present <- t.byz_present - 1

  let count t = t.present_count

  let byzantine_count t = t.byz_present

  let byzantine_fraction t =
    let n = count t in
    if n = 0 then 0.0 else float_of_int t.byz_present /. float_of_int n

  let total_allocated t = t.next_id
end
