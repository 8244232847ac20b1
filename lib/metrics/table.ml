type cell =
  | S of string
  | I of int
  | F of float
  | F2 of float
  | E of float

type t = { title : string; columns : string list; mutable rev_rows : cell list list }

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: row length mismatch";
  t.rev_rows <- row :: t.rev_rows

let rows t = List.rev t.rev_rows

let cell_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F x -> Printf.sprintf "%.4g" x
  | F2 x -> Printf.sprintf "%.2f" x
  | E x -> Printf.sprintf "%.2e" x

let render t =
  let rows = List.map (List.map cell_to_string) (rows t) in
  let widths =
    List.fold_left
      (fun widths row -> List.map2 (fun w s -> max w (String.length s)) widths row)
      (List.map String.length t.columns)
      rows
  in
  let buf = Buffer.create 1024 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let render_row row =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad s (List.nth widths i)))
      row;
    Buffer.add_string buf " |\n"
  in
  let rule () =
    Buffer.add_char buf '+';
    List.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  rule ();
  render_row t.columns;
  rule ();
  List.iter render_row rows;
  rule ();
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 1024 in
  let row_to_csv cells =
    String.concat "," (List.map csv_escape cells) ^ "\n"
  in
  Buffer.add_string buf (row_to_csv t.columns);
  List.iter
    (fun row -> Buffer.add_string buf (row_to_csv (List.map cell_to_string row)))
    (rows t);
  Buffer.contents buf
