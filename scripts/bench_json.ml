(* What bench_diff and bench_report share: Metrics.Json's reader, plus
   reading a file and field accessors that turn every problem into a
   "format error" on stderr and exit 2, the scripts' shared exit code. *)

include Metrics.Json

let tool = Filename.remove_extension (Filename.basename Sys.executable_name)

let format_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: format error: %s\n" tool msg;
      exit 2)
    fmt

let read_file path =
  if not (Sys.file_exists path) then format_error "no such file: %s" path;
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> format_error "%s: %s" path msg

(* [where] names the file or line in the error message. *)
let parse_or_exit ~where text =
  match parse text with Ok j -> j | Error msg -> format_error "%s: %s" where msg

let member name = function
  | Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> format_error "missing field %S" name)
  | _ -> format_error "expected an object holding %S" name

(* bench/main writes null for a non-finite aggregate. *)
let to_num name = function
  | Num f -> f
  | Null -> nan
  | _ -> format_error "field %S is not a number" name

let num name j = to_num name (member name j)

(* Optional numeric field: [None] when absent or non-numeric — used for
   fields newer than some committed files (alloc_bytes, peak_live_words). *)
let num_opt name = function
  | Obj fields -> (
    match List.assoc_opt name fields with Some (Num f) -> Some f | _ -> None)
  | _ -> None
