(* Digest-stream serialisation: one JSON object per frame, one per line,
   keys in alphabetical order, frames in Recorder.compare_frame order —
   the bytes are a pure function of the recorded frame set (the CI
   audit-determinism gate diffs them across -j values and reruns).  The
   parser below reads the same format back for file-vs-file bisection. *)

let add_frame buf (f : Recorder.frame) =
  Buffer.add_string buf "{\"digest\":\"";
  Buffer.add_string buf (Fnv.to_hex f.Recorder.digest);
  Buffer.add_string buf "\",\"labels\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Metrics.Json.add_string buf k;
      Buffer.add_char buf ':';
      Metrics.Json.add_string buf v)
    f.Recorder.f_labels;
  Buffer.add_string buf (Printf.sprintf "},\"step\":%d,\"subsystem\":" f.Recorder.step);
  Metrics.Json.add_string buf f.Recorder.subsystem;
  Buffer.add_string buf "}\n"

let frames_to_jsonl frames =
  let buf = Buffer.create 4096 in
  List.iter (add_frame buf) frames;
  Buffer.add_string buf
    (Printf.sprintf "{\"format\":1,\"frames\":%d,\"type\":\"meta\"}\n"
       (List.length frames));
  Buffer.contents buf

let jsonl_string recorder = frames_to_jsonl (Recorder.frames recorder)

(* ------------------------------------------------------------------ *)
(* Parsing (for file-vs-file bisection)                                *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let string_field key = function
  | Metrics.Json.Str s -> s
  | _ -> bad "%S is not a string" key

(* Integers are written with %d; one a float cannot hold exactly is
   refused rather than rounded. *)
let int_field key = function
  | Metrics.Json.Num f when Float.is_integer f && Float.abs f < 0x1p53 ->
    int_of_float f
  | _ -> bad "%S is not an integer" key

(* [None] for a meta line.  Every member is checked, whatever its order. *)
let frame_of_line line =
  match Metrics.Json.parse line with
  | Error msg -> raise (Bad msg)
  | Ok (Metrics.Json.Obj members) -> (
    let digest = ref None
    and labels = ref None
    and step = ref None
    and subsystem = ref None
    and is_meta = ref false in
    List.iter
      (fun (key, v) ->
        match key with
        | "digest" -> (
          let hex = string_field key v in
          match Fnv.of_hex hex with
          | Some d -> digest := Some d
          | None -> bad "bad digest %S" hex)
        | "labels" -> (
          match v with
          | Metrics.Json.Obj pairs ->
            labels := Some (List.map (fun (k, v) -> (k, string_field k v)) pairs)
          | _ -> bad "\"labels\" is not an object")
        | "step" -> step := Some (int_field key v)
        | "frames" | "format" -> ignore (int_field key v)
        | "subsystem" -> subsystem := Some (string_field key v)
        | "type" -> if string_field key v = "meta" then is_meta := true
        | other -> bad "unknown key %S" other)
      members;
    if !is_meta then None
    else
      match (!digest, !labels, !step, !subsystem) with
      | Some digest, Some f_labels, Some step, Some subsystem ->
        Some { Recorder.f_labels; step; subsystem; digest }
      | _ -> bad "frame is missing a field")
  | Ok _ -> bad "not a JSON object"

let of_jsonl data =
  let rec loop i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> loop (i + 1) acc rest
    | line :: rest -> (
      match frame_of_line line with
      | Some frame -> loop (i + 1) (frame :: acc) rest
      | None -> loop (i + 1) acc rest
      | exception Bad msg -> Error (Printf.sprintf "line %d: %s" i msg))
  in
  loop 1 [] (String.split_on_char '\n' data)
