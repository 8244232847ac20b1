(* FNV-1a, 64-bit.  Chosen for the digest stream because it is a pure
   byte-fold: the digest of a canonical (sorted) serialisation is itself
   canonical, with no block padding or finalisation state to reason
   about, and collisions are irrelevant here — digests are compared for
   equality between two runs of the *same* code, never used as keys. *)

type t = int64

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let init = offset_basis

let[@inline] byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
  done;
  !h

(* The bytes of [Int64.of_int v], folded straight from [v] so the call
   inlines and allocates nothing: bytes 0-6 are [v]'s own bits, and the
   top byte [v asr 56] carries the sign into bit 63 exactly as the
   sign extension does. *)
let[@inline] int h v =
  let h = byte h v in
  let h = byte h (v asr 8) in
  let h = byte h (v asr 16) in
  let h = byte h (v asr 24) in
  let h = byte h (v asr 32) in
  let h = byte h (v asr 40) in
  let h = byte h (v asr 48) in
  byte h (v asr 56)

let string h s =
  let h = ref h in
  String.iter (fun c -> h := byte !h (Char.code c)) s;
  (* A terminator so ["ab";"c"] and ["a";"bc"] fold differently. *)
  byte !h 0xff

let to_hex h = Printf.sprintf "%016Lx" h

let of_hex s =
  if String.length s <> 16 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v -> Some v
    | None -> None
