type t = {
  mutable n : int;
  mutable mean : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let add_int t x = add t (float_of_int x)

let count t = t.n

let mean t = if t.n = 0 then nan else t.mean

let min t = t.min

let max t = t.max

let total t = t.total

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else
    let n = a.n + b.n in
    let fb = float_of_int b.n and fn = float_of_int n in
    let delta = b.mean -. a.mean in
    {
      n;
      mean = a.mean +. (delta *. fb /. fn);
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
      total = a.total +. b.total;
    }
