(* Binary min-heap on (time, seq): the cpr-style ordered queue, with an
   explicit insertion sequence so simultaneous events pop in FIFO order —
   the tie-breaking rule the determinism argument in DESIGN.md rests on
   (float comparison alone would leave same-time events at the mercy of
   heap internals).

   Struct of arrays: times live unboxed in a [float array], seqs in an
   [int array] and payloads in a third array, so a push stores three
   words and allocates nothing once the arrays have grown.  Every slot at
   or past [size] holds [dummy], never a popped payload, so the queue
   keeps no stale references alive. *)

type 'a t = {
  dummy : 'a;
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable pushed : int;
}

let create ~dummy =
  { dummy; times = [||]; seqs = [||]; payloads = [||]; size = 0; pushed = 0 }

let length t = t.size
let is_empty t = t.size = 0
let pushed t = t.pushed

let clear t =
  Array.fill t.payloads 0 t.size t.dummy;
  t.size <- 0;
  t.pushed <- 0

(* Strict weak order on slots: earlier time first, then earlier
   insertion. *)
let[@inline] before t i time seq =
  let ti = Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.times dst (Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

let[@inline] store t i time seq payload =
  Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload

let grow t =
  let ncap = max 16 (2 * Array.length t.times) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.payloads <- extend t.payloads t.dummy

let[@inline] push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if t.size = Array.length t.times then grow t;
  let seq = t.pushed in
  t.pushed <- seq + 1;
  (* Sift up: move parents down until the new entry's slot is found. *)
  let i = ref t.size and sifting = ref true in
  t.size <- t.size + 1;
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent time seq then sifting := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  store t !i time seq payload

let[@inline] next_time t =
  if t.size = 0 then invalid_arg "Event_queue.next_time: empty queue";
  Array.unsafe_get t.times 0

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let top = Array.unsafe_get t.payloads 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let time = Array.unsafe_get t.times last
    and seq = Array.unsafe_get t.seqs last
    and payload = Array.unsafe_get t.payloads last in
    (* Sift the former last entry down from the root. *)
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let l_time = Array.unsafe_get t.times l and l_seq = Array.unsafe_get t.seqs l in
        let c = if r < last && before t r l_time l_seq then r else l in
        if before t c time seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    store t !i time seq payload
  end;
  Array.unsafe_set t.payloads last t.dummy;
  top
