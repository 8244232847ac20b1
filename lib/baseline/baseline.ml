let unclustered_broadcast_messages ~n = n * (n - 1)

let unclustered_sample_messages ~n = n

let flat_phase_king_messages ~n =
  let t = (n - 1) / 4 in
  (t + 1) * ((n * n) + n)
