(* Re-export: [audit.ml] is this library's root module, so siblings must
   be surfaced explicitly. *)
module Fnv = Fnv
module Digest_of = Digest_of
module Recorder = Recorder
module Export = Export
module Bisect = Bisect

type t = Recorder.t

let create = Recorder.create
let install = Recorder.install
let uninstall = Recorder.uninstall
let recording = Recorder.recording
let with_recorder = Recorder.with_recorder
let maybe_record_engine = Recorder.maybe_record_engine
let maybe_record_config = Recorder.maybe_record_config
