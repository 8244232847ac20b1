(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014.

   The 64-bit state lives in an 8-byte buffer rather than a boxed
   [int64] field: [Bytes.get/set_int64_le] read and write it unboxed, so
   with the mixer inlined a draw allocates nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let restore state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create = restore

let of_int seed = create (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix64 state

let save t = Bytes.get_int64_le t 0

let split t =
  let seed = bits64 t in
  (* A second mixing constant decorrelates the child stream from the
     parent's continuation. *)
  restore (Int64.mul (mix64 seed) 0xD1B54A32D192ED03L)

(* Uniform int in [0, bound) without modulo bias: draw 62-bit non-negative
   values and reject the overhang. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = 0x3FFFFFFFFFFFFFFF (* 62 bits, always non-negative as an int *) in
  let lim = mask - (mask mod bound) in
  let v = ref (Int64.to_int (bits64 t) land mask) in
  while !v >= lim do
    v := Int64.to_int (bits64 t) land mask
  done;
  !v mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53-bit mantissa gives a uniform float in [0,1). *)
let[@inline] unit_float t =
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v *. 0x1p-53

let[@inline] float t bound = unit_float t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = unit_float t < p

let exponential t rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. unit_float t (* in (0,1] *) in
  -.log u /. rate

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. unit_float t in
    int_of_float (floor (log u /. log (1.0 -. p)))

(* Exact binomial.  For small n or small mean, count Bernoulli successes by
   geometric skips (expected work O(np + 1)); otherwise fall back to the
   simple n-fold inversion which is still exact. *)
(* Exact binomial core for p <= 0.5: geometric-skip method, jumping over
   failures; expected work O(np + 1). *)
let binomial_skip t n p =
  let log1mp = log (1.0 -. p) in
  let rec loop pos acc =
    let u = 1.0 -. unit_float t in
    let skip = int_of_float (floor (log u /. log1mp)) in
    let pos = pos + skip + 1 in
    if pos > n then acc else loop pos (acc + 1)
  in
  loop 0 0

let binomial t n p =
  if n < 0 then invalid_arg "Rng.binomial: n must be non-negative";
  if p <= 0.0 then 0
  else if p >= 1.0 then n
  else if p > 0.5 then n - binomial_skip t n (1.0 -. p)
  else binomial_skip t n p

let poisson t lambda =
  if lambda < 0.0 then invalid_arg "Rng.poisson: lambda must be non-negative";
  (* Knuth's product method, splitting large lambda to avoid underflow. *)
  let rec go lambda acc =
    if lambda > 500.0 then
      go (lambda -. 500.0) (acc + knuth t 500.0)
    else acc + knuth t lambda
  and knuth t lambda =
    let threshold = exp (-.lambda) in
    let rec loop k prod =
      let prod = prod *. unit_float t in
      if prod <= threshold then k else loop (k + 1) prod
    in
    if lambda = 0.0 then 0 else loop 0 1.0
  in
  go lambda 0

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a =
  let b = Array.copy a in
  shuffle_in_place t b;
  b

let sample_distinct t m bound =
  if m > bound then invalid_arg "Rng.sample_distinct: m > bound";
  (* Floyd's algorithm: O(m) expected draws, O(m) memory. *)
  let seen = Hashtbl.create (2 * m) in
  let acc = ref [] in
  for j = bound - m to bound - 1 do
    let v = int t (j + 1) in
    let v = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))
