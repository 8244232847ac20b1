type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () = { data = Array.make (max capacity 1) 0; len = 0 }

let of_list l =
  let data = Array.of_list l in
  { data = (if Array.length data = 0 then Array.make 1 0 else data); len = List.length l }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i v =
  check t i;
  t.data.(i) <- v

let push t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let swap_remove t i =
  check t i;
  let v = t.data.(i) in
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  v

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.data.(i) :: !acc
  done;
  !acc

let mem t v =
  let rec scan i = i < t.len && (t.data.(i) = v || scan (i + 1)) in
  scan 0

let clear t = t.len <- 0
