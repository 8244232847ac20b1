(* Tests for lib/audit: FNV folding, canonical digest determinism, the
   recorder's zero-perturbation and byte-identity contracts (rerun and
   -j), export round-tripping, and the headline bisection property — a
   mid-run RNG perturbation is localised to the exact first divergent
   step and the rng subsystem. *)

module Spec = Scenario.Spec
module Rng = Prng.Rng
module Engine = Now_core.Engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- fnv ---------- *)

let test_fnv_known_values () =
  (* FNV-1a 64 reference values: the offset basis, and the published
     digest of "a" (0x61). *)
  checks "offset basis" "cbf29ce484222325" (Audit.Fnv.to_hex Audit.Fnv.init);
  checks "fnv1a(\"a\")" "af63dc4c8601ec8c"
    (Audit.Fnv.to_hex (Audit.Fnv.byte Audit.Fnv.init 0x61));
  (* int/int64/string folds are injective enough to separate neighbours. *)
  checkb "int neighbours differ" true
    (Audit.Fnv.int Audit.Fnv.init 41 <> Audit.Fnv.int Audit.Fnv.init 42);
  (* The string fold is terminated, so concatenation cannot collide. *)
  checkb "string framing" true
    (Audit.Fnv.string (Audit.Fnv.string Audit.Fnv.init "ab") "c"
    <> Audit.Fnv.string (Audit.Fnv.string Audit.Fnv.init "a") "bc")

(* [Fnv.int] folds the eight little-endian bytes of [Int64.of_int v]:
   these pin its bytes at the extremes of the 63-bit range, where the
   sign extension into bit 63 must come out the same. *)
let test_fnv_int_known_answers () =
  List.iter
    (fun (v, hex) ->
      checks (Printf.sprintf "int %d" v) hex
        (Audit.Fnv.to_hex (Audit.Fnv.int Audit.Fnv.init v)))
    [
      (0, "a8c7f832281a39c5");
      (1, "89cd31291d2aefa4");
      (-1, "8cf51a8bfca3883d");
      (max_int, "8cf55a8bfca3f4fd");
      (min_int, "a8c7b8322819cd05");
      (1 lsl 40, "a01e7d3223323b1a");
    ]

let test_fnv_hex_round_trip () =
  let d = Audit.Fnv.int64 Audit.Fnv.init (-1L) in
  (match Audit.Fnv.of_hex (Audit.Fnv.to_hex d) with
  | Some d' -> checkb "hex round trip" true (d = d')
  | None -> Alcotest.fail "of_hex rejected its own to_hex");
  checkb "bad hex rejected" true (Audit.Fnv.of_hex "xyz" = None);
  checkb "short hex rejected" true (Audit.Fnv.of_hex "abc" = None)

(* ---------- digests ---------- *)

let small_spec = { Scenario.steady with Spec.steps = 4 }

let state_driver seed =
  Scenario.State_driver.create ~seed:(Int64.of_int seed) small_spec

let msg_driver seed = Scenario.Msg_driver.create_cell ~seed ~cell:0 small_spec

let test_digests_deterministic () =
  let digests seed = Audit.Digest_of.engine (Scenario.State_driver.engine (state_driver seed)) in
  checkb "same seed, same digests" true (digests 5 = digests 5);
  checkb "different seed, different table digest" true
    (List.assoc "table" (digests 5) <> List.assoc "table" (digests 6));
  let names = List.map fst (digests 5) in
  checkb "all five subsystems, sorted" true
    (names = Audit.Digest_of.subsystems
    && names = List.sort compare names)

let test_config_digests_deterministic () =
  let digests seed =
    Audit.Digest_of.config (Scenario.Msg_driver.config (msg_driver seed))
  in
  checkb "same seed, same digests" true (digests 5 = digests 5);
  checkb "different seed, different digests" true (digests 5 <> digests 6);
  checkb "all five subsystems" true
    (List.map fst (digests 5) = Audit.Digest_of.subsystems)

(* A mutation must move the digest of the touched subsystem. *)
let test_digest_tracks_mutation () =
  let d = state_driver 7 in
  let engine = Scenario.State_driver.engine d in
  let before = Audit.Digest_of.engine engine in
  ignore (Engine.join engine Now_core.Node.Honest);
  let after = Audit.Digest_of.engine engine in
  checkb "table digest moved on join" true
    (List.assoc "table" before <> List.assoc "table" after);
  checkb "rng digest moved on join" true
    (List.assoc "rng" before <> List.assoc "rng" after)

(* ---------- recorder ---------- *)

let test_recorder_cadence () =
  let r = Audit.create ~cadence:3 () in
  let engine = Scenario.State_driver.engine (state_driver 8) in
  Audit.with_recorder r (fun () ->
      for step = 1 to 7 do
        Audit.maybe_record_engine ~step engine
      done);
  let steps =
    List.sort_uniq compare
      (List.map (fun (f : Audit.Recorder.frame) -> f.Audit.Recorder.step)
         (Audit.Recorder.frames r))
  in
  checkb "only steps on the cadence" true (steps = [ 3; 6 ]);
  checki "five subsystems per recorded step" (2 * 5) (Audit.Recorder.n_frames r)

let test_single_recorder_at_a_time () =
  let a = Audit.create () and b = Audit.create () in
  Audit.install a;
  Alcotest.check_raises "second install rejected"
    (Invalid_argument "Audit.Recorder.install: a recorder is already installed")
    (fun () -> Audit.install b);
  ignore (Audit.uninstall ());
  checkb "uninstalled" true (not (Audit.recording ()))

(* The recorder only reads: a driven trajectory saves byte-identically
   with recording on or off, and the cell stats are unchanged. *)
let test_recording_is_zero_perturbation () =
  let run ~record =
    let d = state_driver 9 in
    let go () =
      for time = 1 to 12 do
        Scenario.State_driver.step d ~time
      done
    in
    if record then Audit.with_recorder (Audit.create ()) go else go ();
    Engine.save (Scenario.State_driver.engine d)
  in
  checks "state trajectory identical with recording on" (run ~record:false)
    (run ~record:true);
  let cells ~record =
    let go () = Scenario.cells ~jobs:1 ~engine:`Mixed ~seed:3 ~cells:2 small_spec in
    if record then Audit.with_recorder (Audit.create ()) go else go ()
  in
  checkb "cell stats identical with recording on" true
    (cells ~record:false = cells ~record:true)

(* The digest stream itself is byte-identical across reruns and -j. *)
let recorded_stream ~jobs =
  let r = Audit.create () in
  ignore
    (Audit.with_recorder r (fun () ->
         Scenario.cells ~jobs ~engine:`Mixed ~seed:11 ~cells:4 small_spec));
  Audit.Export.jsonl_string r

let test_stream_identical_across_reruns () =
  let a = recorded_stream ~jobs:1 in
  checkb "non-trivial stream" true (String.length a > 500);
  checks "rerun, same bytes" a (recorded_stream ~jobs:1)

let test_stream_identical_across_jobs () =
  checks "-j1 = -j4" (recorded_stream ~jobs:1) (recorded_stream ~jobs:4)

(* ---------- export round trip ---------- *)

let test_export_round_trip () =
  let r = Audit.create () in
  ignore
    (Audit.with_recorder r (fun () ->
         Scenario.cells ~jobs:1 ~engine:`Msg ~seed:13 ~cells:2 small_spec));
  let frames = Audit.Recorder.frames r in
  checkb "frames recorded" true (frames <> []);
  match Audit.Export.of_jsonl (Audit.Export.jsonl_string r) with
  | Error msg -> Alcotest.fail msg
  | Ok parsed -> checkb "parse (print frames) = frames" true (parsed = frames)

let test_export_rejects_garbage () =
  checkb "non-json rejected" true
    (Result.is_error (Audit.Export.of_jsonl "not json\n"));
  checkb "missing key rejected" true
    (Result.is_error (Audit.Export.of_jsonl "{\"step\":1}\n"))

(* Frames whose label keys and values and subsystems are arbitrary byte
   strings: control bytes, quotes, backslashes and bytes >= 0x80 included. *)
let frames_arb =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, map Char.chr (int_range 0 255));
        (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\x7f'; '\x80'; '\xff' ]);
      ]
  in
  let name = string_size ~gen:byte (int_range 0 8) in
  let frame =
    map4
      (fun f_labels step subsystem digest ->
        { Audit.Recorder.f_labels; step; subsystem; digest })
      (list_size (int_range 0 3) (pair name name))
      (oneof [ small_nat; int_range (-(1 lsl 52)) (1 lsl 52) ])
      name ui64
  in
  QCheck.make
    ~print:(fun fs -> String.escaped (Audit.Export.frames_to_jsonl fs))
    (list_size (int_range 0 6) frame)

let prop_export_round_trip_any_bytes =
  QCheck.Test.make ~name:"any-byte frames survive export" ~count:300
    frames_arb (fun fs ->
      Audit.Export.of_jsonl (Audit.Export.frames_to_jsonl fs) = Ok fs)

(* Every truncation and single-byte substitution of a valid stream is an
   [Ok] or an [Error]; an exception fails the test. *)
let test_export_reader_never_raises () =
  let stream =
    Audit.Export.frames_to_jsonl
      [
        {
          Audit.Recorder.f_labels = [ ("cell", "0") ];
          step = 2;
          subsystem = "rng";
          digest = 0x5a178cd5b0d75335L;
        };
        {
          Audit.Recorder.f_labels = [ ("cell", "1\t") ];
          step = 4;
          subsystem = "ledger";
          digest = -1L;
        };
      ]
  in
  let reads s = match Audit.Export.of_jsonl s with Ok _ | Error _ -> () in
  let n = String.length stream in
  for len = 0 to n - 1 do
    reads (String.sub stream 0 len)
  done;
  let b = Bytes.of_string stream in
  for i = 0 to n - 1 do
    let orig = Bytes.get b i in
    for c = 0 to 255 do
      Bytes.set b i (Char.chr c);
      reads (Bytes.to_string b)
    done;
    Bytes.set b i orig
  done;
  let line ?(digest = "0000000000000001") ?(step = "3") ?(extra = "") () =
    Printf.sprintf {|{"digest":"%s","labels":{},"step":%s,"subsystem":"rng"%s}|}
      digest step extra
  in
  let error s = Result.is_error (Audit.Export.of_jsonl s) in
  checkb "valid frame" false (error (line ()));
  checkb "key order is free" true
    (Audit.Export.of_jsonl
       {|{"subsystem":"rng","step":3,"labels":{},"digest":"0000000000000001"}|}
    = Audit.Export.of_jsonl (line ()));
  checkb "unknown key" true (error (line ~extra:{|,"x":1|} ()));
  checkb "non-integral step" true (error (line ~step:"3.5" ()));
  checkb "bad digest" true (error (line ~digest:"00000001" ()));
  checks "error names the line" "line 3: unknown key \"x\""
    (match Audit.Export.of_jsonl (line () ^ "\n\n{\"x\":1}\n") with
    | Error msg -> msg
    | Ok _ -> "accepted")

(* ---------- bisection ---------- *)

let static_spec ~steps =
  {
    Spec.default with
    Spec.name = "static";
    churn = Spec.Static;
    drive = Spec.no_drive;
    steps;
  }

(* The headline property: on a static scenario (steps draw no
   randomness), stealing RNG draws between steps [at] and [at+1] of run B
   must be localised to exactly step [at+1] and exactly the rng
   subsystem. *)
let perturbed_frames ~steps ~perturb_at ~draws =
  let spec = static_spec ~steps in
  let run ~perturb =
    let r = Audit.create () in
    let d = Scenario.Msg_driver.create_cell ~seed:21 ~cell:0 spec in
    Audit.with_recorder r (fun () ->
        for time = 1 to steps do
          Scenario.Msg_driver.step d ~time;
          if perturb && time = perturb_at then
            for _ = 1 to draws do
              ignore (Rng.int (Scenario.Msg_driver.rng d) 1_000)
            done
        done);
    Audit.Recorder.frames r
  in
  (run ~perturb:false, run ~perturb:true)

let test_bisect_localises_rng_perturbation () =
  let a, b = perturbed_frames ~steps:20 ~perturb_at:10 ~draws:3 in
  match Audit.Bisect.first_divergence a b with
  | None -> Alcotest.fail "perturbed run did not diverge"
  | Some d ->
    checki "first divergent step" 11 d.Audit.Bisect.d_step;
    checks "divergent subsystem" "rng" d.Audit.Bisect.d_subsystem;
    checkb "no other subsystem diverges at that step" true
      (d.Audit.Bisect.also = []);
    checkb "described" true
      (let text = Audit.Bisect.describe d in
       String.length text > 0
       && d.Audit.Bisect.d_step = 11
       &&
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
         in
         nn = 0 || go 0
       in
       contains text "step 11" && contains text "subsystem rng")

let test_bisect_agreement_is_none () =
  let a, b = perturbed_frames ~steps:8 ~perturb_at:4 ~draws:1 in
  checkb "identical runs agree" true
    (Audit.Bisect.first_divergence a a = None);
  checkb "perturbed pair still diverges" true
    (Audit.Bisect.first_divergence a b <> None)

(* A frame present on one side only (shorter run) is a divergence. *)
let test_bisect_missing_frame_diverges () =
  let a, _ = perturbed_frames ~steps:6 ~perturb_at:3 ~draws:1 in
  let truncated =
    List.filter (fun (f : Audit.Recorder.frame) -> f.Audit.Recorder.step <= 4) a
  in
  match Audit.Bisect.first_divergence a truncated with
  | None -> Alcotest.fail "missing frames not flagged"
  | Some d ->
    checki "diverges at the first missing step" 5 d.Audit.Bisect.d_step;
    checkb "side B missing" true (d.Audit.Bisect.digest_b = None)

let suite =
  [
    Alcotest.test_case "fnv known values" `Quick test_fnv_known_values;
    Alcotest.test_case "fnv int known answers" `Quick test_fnv_int_known_answers;
    Alcotest.test_case "fnv hex round trip" `Quick test_fnv_hex_round_trip;
    Alcotest.test_case "engine digests deterministic" `Quick
      test_digests_deterministic;
    Alcotest.test_case "config digests deterministic" `Quick
      test_config_digests_deterministic;
    Alcotest.test_case "digest tracks mutation" `Quick
      test_digest_tracks_mutation;
    Alcotest.test_case "recorder cadence" `Quick test_recorder_cadence;
    Alcotest.test_case "single recorder at a time" `Quick
      test_single_recorder_at_a_time;
    Alcotest.test_case "recording is zero-perturbation" `Quick
      test_recording_is_zero_perturbation;
    Alcotest.test_case "stream identical across reruns" `Quick
      test_stream_identical_across_reruns;
    Alcotest.test_case "stream identical across -j" `Quick
      test_stream_identical_across_jobs;
    Alcotest.test_case "export round trip" `Quick test_export_round_trip;
    Alcotest.test_case "export rejects garbage" `Quick
      test_export_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_export_round_trip_any_bytes;
    Alcotest.test_case "export reader never raises" `Quick
      test_export_reader_never_raises;
    Alcotest.test_case "bisect localises an rng perturbation" `Quick
      test_bisect_localises_rng_perturbation;
    Alcotest.test_case "bisect agreement is none" `Quick
      test_bisect_agreement_is_none;
    Alcotest.test_case "bisect flags missing frames" `Quick
      test_bisect_missing_frame_diverges;
  ]
