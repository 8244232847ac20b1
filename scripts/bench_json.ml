(* What bench_diff and bench_report share: Metrics.Json's reader, plus
   reading and writing a file and field accessors that turn every problem
   into a "format error" on stderr and exit 2, the scripts' shared exit
   code. *)

include Metrics.Json

let tool = Filename.remove_extension (Filename.basename Sys.executable_name)

let format_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: format error: %s\n" tool msg;
      exit 2)
    fmt

(* [Sys_error] names the path when opening fails, not when reading or
   writing does: name it exactly once either way. *)
let sys_error path msg =
  if String.starts_with ~prefix:(path ^ ": ") msg then format_error "%s" msg
  else format_error "%s: %s" path msg

let read_file path =
  if not (Sys.file_exists path) then format_error "no such file: %s" path;
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> sys_error path msg

(* The channel is closed inside the guard, so a write error that only
   shows when the buffer is flushed at close (a full disk) is reported
   too. *)
let write_file path text =
  try
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc text;
        Out_channel.close oc)
  with Sys_error msg -> sys_error path msg

(* [where] names the file or line in the error message. *)
let parse_or_exit ~where text =
  match parse text with Ok j -> j | Error msg -> format_error "%s: %s" where msg

let member name = function
  | Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> format_error "missing field %S" name)
  | _ -> format_error "expected an object holding %S" name

(* now_sim experiments --monitor-json writes null for a non-finite
   aggregate. *)
let to_num name = function
  | Num f -> f
  | Null -> nan
  | _ -> format_error "field %S is not a number" name

let num name j = to_num name (member name j)

(* A number a gate compares or a chart plots must be finite: [num] reads
   null as nan, every comparison with nan is false, and a plotted nan
   has no coordinates.  [where] names the file, line or experiment. *)
let finite ~where name j =
  let v = num name j in
  if Float.is_finite v then v
  else format_error "%s: %S is not a finite number" where name

(* Optional numeric field: [None] when absent or non-numeric — used for
   fields newer than some committed files (alloc_bytes, peak_live_words). *)
let num_opt name = function
  | Obj fields -> (
    match List.assoc_opt name fields with Some (Num f) -> Some f | _ -> None)
  | _ -> None
