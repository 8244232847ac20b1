module Samples = struct
  type t = { mutable data : float array; mutable len : int; mutable sorted : bool }

  let create () = { data = Array.make 64 0.0; len = 0; sorted = true }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let add_int t x = add t (float_of_int x)

  let count t = t.len

  let ensure_sorted t =
    if not t.sorted then begin
      let active = Array.sub t.data 0 t.len in
      Array.sort compare active;
      Array.blit active 0 t.data 0 t.len;
      t.sorted <- true
    end

  let percentile t p =
    if t.len = 0 then nan
    else begin
      ensure_sorted t;
      let rank = p /. 100.0 *. float_of_int (t.len - 1) in
      let i = int_of_float (Float.round rank) in
      let i = if i < 0 then 0 else if i >= t.len then t.len - 1 else i in
      t.data.(i)
    end

  let median t = percentile t 50.0

  (* Equal-width bins over the samples' own [min, max]; the min lands in
     bin 0 and the max in the last bin, so the chart spans bins 0 to
     [last].  An all-equal store widens to [min, min + 1] and fills bin 0
     alone. *)
  let pp ~bins ppf t =
    if bins <= 0 then invalid_arg "Histogram.Samples.pp: bins must be positive";
    if t.len = 0 then Format.fprintf ppf "(empty histogram)"
    else begin
      ensure_sorted t;
      let lo = t.data.(0) and top = t.data.(t.len - 1) in
      let hi, last = if top > lo then (top, bins - 1) else (lo +. 1.0, 0) in
      let width = (hi -. lo) /. float_of_int bins in
      let counts = Array.make bins 0 in
      for k = 0 to t.len - 1 do
        let x = t.data.(k) in
        let i =
          if x <= lo then 0
          else if x >= hi then bins - 1
          else min (bins - 1) (int_of_float ((x -. lo) /. width))
        in
        counts.(i) <- counts.(i) + 1
      done;
      let maxc = Array.fold_left max 1 counts in
      for i = 0 to last do
        let bin_lo = lo +. (float_of_int i *. width) in
        Format.fprintf ppf "[%8.3g, %8.3g) %7d %s@." bin_lo (bin_lo +. width)
          counts.(i)
          (String.make (counts.(i) * 40 / maxc) '#')
      done
    end
end

module Buckets = struct
  (* Log-bucketed histogram.  The load-bearing choices:

     - the edge table is built once, by repeated multiplication from
       [bucket_lo] with ratio 2^(1/4) (sqrt of sqrt — IEEE sqrt is
       correctly rounded, so the table is bit-identical on every host);
       indexing is a binary search over that table, never a [log] call
       whose libm rounding could vary;
     - recording is integer counter bumps plus an exact running
       count/sum/max, so the state is a pure function of the multiset of
       observations — order- and scheduling-independent;
     - percentile estimates return a bucket's upper edge clamped to the
       exact max, which keeps zero (the zero-delay async run) and the
       distribution's maximum exact while bounding every other estimate
       within one bucket ratio of the truth. *)

  let growth = sqrt (sqrt 2.0)
  let bucket_lo = 1e-9
  let n_buckets = 512

  (* edges.(i) is the upper edge of bucket i; bucket 0 is (-inf, bucket_lo],
     bucket i > 0 is (edges.(i-1), edges.(i)].  The top edge is ~2.4e29, far
     beyond any virtual-time makespan; larger values clamp into the top
     bucket (the exact max is tracked separately). *)
  let edges =
    let e = Array.make n_buckets bucket_lo in
    for i = 1 to n_buckets - 1 do
      e.(i) <- e.(i - 1) *. growth
    done;
    e

  type t = {
    counts : int array;
    mutable n : int;
    mutable total : float;
    mutable vmax : float;  (* meaningful only when n > 0 *)
  }

  let create () =
    { counts = Array.make n_buckets 0; n = 0; total = 0.0; vmax = neg_infinity }

  (* Smallest i with v <= edges.(i), or the top bucket when v exceeds every
     edge.  NaN compares false everywhere, so it falls through the search
     into bucket [hi]; the explicit guard routes it (and negatives) to
     bucket 0 instead. *)
  let bucket_of v =
    if not (v > bucket_lo) then 0
    else begin
      let lo = ref 0 and hi = ref (n_buckets - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= edges.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let add t v =
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.total <- t.total +. v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let sum t = t.total
  let max_value t = if t.n = 0 then nan else t.vmax
  let mean t = if t.n = 0 then nan else t.total /. float_of_int t.n

  let percentile t p =
    if not (p >= 0.0 && p <= 100.0) then
      invalid_arg "Histogram.Buckets.percentile: p must be within [0, 100]";
    if t.n = 0 then nan
    else begin
      (* Nearest rank: the k-th smallest observation, k in [1, n]. *)
      let k =
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
        if r < 1 then 1 else if r > t.n then t.n else r
      in
      let rec find b acc =
        let acc = acc + t.counts.(b) in
        if acc >= k then b else find (b + 1) acc
      in
      let b = find 0 0 in
      Float.min edges.(b) t.vmax
    end

  let merge a b =
    let m = create () in
    Array.blit a.counts 0 m.counts 0 n_buckets;
    Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) b.counts;
    m.n <- a.n + b.n;
    m.total <- a.total +. b.total;
    m.vmax <- Float.max a.vmax b.vmax;
    m

  let buckets t =
    let out = ref [] in
    for i = n_buckets - 1 downto 0 do
      if t.counts.(i) > 0 then
        let lower = if i = 0 then 0.0 else edges.(i - 1) in
        out := (lower, edges.(i), t.counts.(i)) :: !out
    done;
    !out
end
