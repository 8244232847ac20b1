(* Tests for the metrics library: stats, histograms, ledger, tables, fits
   and the JSON codec. *)

module Stats = Metrics.Stats
module Histogram = Metrics.Histogram
module Ledger = Metrics.Ledger
module Table = Metrics.Table
module Fit = Metrics.Fit
module Json = Metrics.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b
let checkf_eps eps msg a b = Alcotest.check (Alcotest.float eps) msg a b

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Stats.count s);
  checkf "mean" 5.0 (Stats.mean s);
  checkf "min" 2.0 (Stats.min s);
  checkf "max" 9.0 (Stats.max s);
  checkf "total" 40.0 (Stats.total s)

let test_stats_empty () =
  let s = Stats.create () in
  checki "count 0" 0 (Stats.count s);
  checkb "mean nan" true (Float.is_nan (Stats.mean s))

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.5;
  checkf "mean" 3.5 (Stats.mean s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter
    (fun x ->
      Stats.add whole x;
      if x < 5.0 then Stats.add a x else Stats.add b x)
    [ 1.0; 2.0; 3.0; 6.0; 7.0; 8.0; 9.0 ];
  let m = Stats.merge a b in
  checki "merged count" (Stats.count whole) (Stats.count m);
  checkf_eps 1e-9 "merged mean" (Stats.mean whole) (Stats.mean m)

let test_stats_merge_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add b 2.0;
  let m = Stats.merge a b in
  checki "count" 1 (Stats.count m);
  checkf "mean" 2.0 (Stats.mean m)

(* [(lo, hi, count)] per line of a [Samples.pp] chart; [] for the empty
   chart. *)
let chart_bins ~bins s =
  match Format.asprintf "%a" (Histogram.Samples.pp ~bins) s with
  | "(empty histogram)" -> []
  | chart ->
    String.split_on_char '\n' chart
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> Scanf.sscanf l "[ %f, %f) %d" (fun lo hi c -> (lo, hi, c)))

let test_histogram_binning () =
  let s = Histogram.Samples.create () in
  Histogram.Samples.add s 0.5;
  Histogram.Samples.add s 9.99;
  Histogram.Samples.add s 5.0;
  Alcotest.(check (list int))
    "min in bin 0, 5.0 in bin 4, max in bin 9"
    [ 1; 0; 0; 0; 1; 0; 0; 0; 0; 1 ]
    (List.map (fun (_, _, c) -> c) (chart_bins ~bins:10 s))

let test_histogram_clamping () =
  (* An all-equal store has no range of its own: it is drawn over
     [x, x + 1] and fills the first bin alone. *)
  let s = Histogram.Samples.create () in
  for _ = 1 to 5 do
    Histogram.Samples.add s 3.0
  done;
  Alcotest.(check string)
    "all-equal chart"
    "[       3,     3.25)       5 ########################################\n"
    (Format.asprintf "%a" (Histogram.Samples.pp ~bins:4) s)

let test_histogram_bounds () =
  let s = Histogram.Samples.create () in
  Alcotest.(check string)
    "empty store" "(empty histogram)"
    (Format.asprintf "%a" (Histogram.Samples.pp ~bins:4) s);
  Histogram.Samples.add s 2.0;
  Histogram.Samples.add s 4.0;
  (match chart_bins ~bins:2 s with
  | [ (lo0, hi0, 1); (lo1, hi1, 1) ] ->
    checkf "bin 0 lo" 2.0 lo0;
    checkf "bin 0 hi" 3.0 hi0;
    checkf "bin 1 lo" 3.0 lo1;
    checkf "bin 1 hi" 4.0 hi1
  | _ -> Alcotest.fail "expected two bins of one sample each");
  Alcotest.check_raises "bins must be positive"
    (Invalid_argument "Histogram.Samples.pp: bins must be positive") (fun () ->
      ignore (Format.asprintf "%a" (Histogram.Samples.pp ~bins:0) s))

let test_samples_percentiles () =
  let s = Histogram.Samples.create () in
  for i = 1 to 101 do
    Histogram.Samples.add_int s i
  done;
  checkf "median" 51.0 (Histogram.Samples.median s);
  checkf "p0" 1.0 (Histogram.Samples.percentile s 0.0);
  checkf "p100" 101.0 (Histogram.Samples.percentile s 100.0);
  checki "count" 101 (Histogram.Samples.count s)

let test_samples_interleaved () =
  let s = Histogram.Samples.create () in
  Histogram.Samples.add s 5.0;
  Histogram.Samples.add s 1.0;
  ignore (Histogram.Samples.median s);
  Histogram.Samples.add s 3.0;
  checkf "median re-sorts" 3.0 (Histogram.Samples.median s)

let test_ledger_basic () =
  let l = Ledger.create () in
  Ledger.charge l ~label:"a" ~messages:10 ~rounds:2;
  Ledger.charge l ~label:"b" ~messages:5 ~rounds:1;
  Ledger.charge l ~label:"a" ~messages:1 ~rounds:0;
  checki "total messages" 16 (Ledger.total_messages l);
  checki "total rounds" 3 (Ledger.total_rounds l);
  checki "label a" 11 (Ledger.label_messages l "a");
  checki "unknown label" 0 (Ledger.label_messages l "zzz");
  Alcotest.(check (list (triple string int int)))
    "labels" [ ("a", 11, 2); ("b", 5, 1) ] (Ledger.labels l)

let test_ledger_snapshot () =
  let l = Ledger.create () in
  Ledger.charge l ~label:"x" ~messages:7 ~rounds:1;
  let snap = Ledger.snapshot l in
  Ledger.charge l ~label:"x" ~messages:3 ~rounds:2;
  let d = Ledger.since l snap in
  checki "diff messages" 3 d.Ledger.messages;
  checki "diff rounds" 2 d.Ledger.rounds

let test_ledger_reset () =
  let l = Ledger.create () in
  Ledger.charge l ~label:"x" ~messages:7 ~rounds:1;
  Ledger.reset l;
  checki "messages reset" 0 (Ledger.total_messages l);
  checki "labels reset" 0 (List.length (Ledger.labels l))

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ Table.S "alpha"; Table.I 42 ];
  Table.add_row t [ Table.S "beta"; Table.F 3.14159 ];
  let rendered = Table.render t in
  checkb "contains title" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered |> List.hd = "== demo ==");
  checkb "contains alpha" true
    (String.index_opt rendered 'a' <> None);
  checki "rows" 2 (List.length (Table.rows t))

let test_table_row_mismatch () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "row length" (Invalid_argument "Table.add_row: row length mismatch")
    (fun () -> Table.add_row t [ Table.I 1 ])

let test_table_csv () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Table.add_row t [ Table.S "x,y"; Table.I 7 ];
  let csv = Table.to_csv t in
  checkb "header" true (String.sub csv 0 3 = "a,b");
  checkb "escaped comma" true
    (let lines = String.split_on_char '\n' csv in
     List.nth lines 1 = "\"x,y\",7")

let test_table_csv_quotes_cr () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Table.add_row t [ Table.S "x\ry"; Table.I 7 ];
  let lines = String.split_on_char '\n' (Table.to_csv t) in
  Alcotest.check Alcotest.string "CR cell quoted" "\"x\ry\",7" (List.nth lines 1);
  Alcotest.check Alcotest.string "plain cell untouched" "plain"
    (Table.csv_escape "plain");
  Alcotest.check Alcotest.string "quotes doubled" "\"a\"\"b\""
    (Table.csv_escape "a\"b")

let test_cells () =
  let t = Table.create ~title:"cells" ~columns:[ "int"; "f2"; "sci" ] in
  Table.add_row t [ Table.I 7; Table.F2 2.5; Table.E 0.001 ];
  Alcotest.check Alcotest.string "int, f2, sci" "int,f2,sci\n7,2.50,1.00e-03\n"
    (Table.to_csv t)

let test_fit_linear_exact () =
  let f = Fit.linear [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  checkf_eps 1e-9 "slope" 2.0 f.Fit.slope;
  checkf_eps 1e-9 "intercept" 1.0 f.Fit.intercept;
  checkf_eps 1e-9 "r2" 1.0 f.Fit.r2

let test_fit_linear_noise () =
  let f = Fit.linear [ (0.0, 0.9); (1.0, 3.2); (2.0, 4.9); (3.0, 7.1) ] in
  checkb "slope near 2" true (abs_float (f.Fit.slope -. 2.0) < 0.2);
  checkb "good r2" true (f.Fit.r2 > 0.98)

let test_fit_power_law () =
  (* y = 3 x^1.7 *)
  let points = List.map (fun x -> (x, 3.0 *. (x ** 1.7))) [ 2.0; 4.0; 8.0; 16.0 ] in
  let f = Fit.power_law points in
  checkf_eps 1e-6 "exponent" 1.7 f.Fit.slope;
  checkf_eps 1e-6 "coefficient" (log 3.0) f.Fit.intercept

let test_fit_polylog () =
  (* y = 2 (log2 x)^3 *)
  let points =
    List.map
      (fun x -> (x, 2.0 *. ((log x /. log 2.0) ** 3.0)))
      [ 16.0; 64.0; 256.0; 1024.0 ]
  in
  let f = Fit.polylog points in
  checkf_eps 1e-6 "polylog exponent" 3.0 f.Fit.slope

let test_fit_errors () =
  Alcotest.check_raises "too few" (Invalid_argument "Fit.linear: need at least two points")
    (fun () -> ignore (Fit.linear [ (1.0, 1.0) ]));
  Alcotest.check_raises "same x" (Invalid_argument "Fit.linear: all x identical")
    (fun () -> ignore (Fit.linear [ (1.0, 1.0); (1.0, 2.0) ]));
  Alcotest.check_raises "negative power-law input"
    (Invalid_argument "Fit.power_law: points must be positive") (fun () ->
      ignore (Fit.power_law [ (-1.0, 2.0); (2.0, 3.0) ]))

(* --- JSON codec --- *)

let test_json_writer_rule () =
  Alcotest.check Alcotest.string "escapes"
    "\"q\\\"b\\\\n\\nt\\u0009r\\u000dz\\u0000\x7f\xff\""
    (Json.quote "q\"b\\n\nt\tr\rz\000\x7f\xff");
  let buf = Buffer.create 8 in
  Buffer.add_char buf '[';
  Json.add_string buf "id";
  Alcotest.check Alcotest.string "add_string appends" "[\"id\"" (Buffer.contents buf)

let test_json_reader () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e in
  checkb "document" true
    (ok " {\"a\": [1, -2.5e1, true, false, null], \"b\": {}, \"a\": \"x\"} "
    = Json.Obj
        [
          ( "a",
            Json.Arr
              [ Json.Num 1.; Json.Num (-25.); Json.Bool true; Json.Bool false; Json.Null ]
          );
          ("b", Json.Obj []);
          ("a", Json.Str "x");
        ]);
  checkb "escapes" true
    (ok {|"\/\t\r\b\f\u0041\u00e9"|} = Json.Str "/\t\r\b\012A?");
  let error s = Result.is_error (Json.parse s) in
  checkb "empty" true (error "");
  checkb "trailing garbage" true (error "1 2");
  checkb "bad escape" true (error {|"\x"|});
  checkb "bad \\u" true (error {|"\u12g4"|});
  checkb "unterminated" true (error {|{"a":"b|});
  checkb "deep nesting" true (error (String.make 100_000 '['));
  match Json.parse "[1,]" with
  | Error msg ->
    Alcotest.check Alcotest.string "offset named" "bad number \"\" at byte 3" msg
  | Ok _ -> Alcotest.fail "accepted [1,]"

(* Any byte, with JSON's special characters over-represented. *)
let byte_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map Char.chr (int_range 0 255));
        ( 1,
          oneofl
            [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\x1f'; '\x7f'; '\x80'; '\xff' ] );
      ])

let prop_json_string_round_trip =
  QCheck.Test.make ~name:"json: parse (quote s) = Str s" ~count:500
    (QCheck.string_gen byte_gen)
    (fun s -> Json.parse (Json.quote s) = Ok (Json.Str s))

(* An exception escaping [Json.parse] fails the test. *)
let parse_returns s = match Json.parse s with Ok _ | Error _ -> ()

let prop_json_random_bytes =
  QCheck.Test.make ~name:"json: parse never raises on random bytes" ~count:500
    QCheck.(
      string_gen
        Gen.(
          frequency
            [
              (1, byte_gen);
              (3, oneofl (List.of_seq (String.to_seq "{}[],:\"\\u0-e.tn ")));
            ]))
    (fun s ->
      parse_returns s;
      true)

(* Every truncation and every single-byte substitution of [doc]. *)
let damaged_copies_parse doc =
  let n = String.length doc in
  for len = 0 to n - 1 do
    parse_returns (String.sub doc 0 len)
  done;
  let b = Bytes.of_string doc in
  for i = 0 to n - 1 do
    let orig = Bytes.get b i in
    for c = 0 to 255 do
      Bytes.set b i (Char.chr c);
      parse_returns (Bytes.to_string b)
    done;
    Bytes.set b i orig
  done

let test_json_hostile_documents () =
  let frames =
    List.map
      (fun (cell, step, subsystem, digest) ->
        {
          Audit.Recorder.f_labels = [ ("cell", cell); ("scenario", "msg\t\"x\"") ];
          step;
          subsystem;
          digest;
        })
      [ ("0", 2, "honesty", 0x5a178cd5b0d75335L); ("1", 4, "rng\r", -1L) ]
  in
  let audit = Audit.Export.frames_to_jsonl frames in
  List.iter
    (fun line -> checkb "audit line parses" true (Result.is_ok (Json.parse line)))
    (List.filter (( <> ) "") (String.split_on_char '\n' audit));
  damaged_copies_parse audit;
  let monitor =
    {|{
  "format": 1,
  "mode": "quick",
  "experiments": [
    {"id": "E1", "ok": true, "rows": 6, "wall_seconds": 0.213, "alloc_bytes": 71736715}
  ],
  "invariants": {
    "samples": 3032,
    "honest_frac_min": 0.6,
    "expansion_min": null,
    "violations_by_invariant": {"cluster.honest_frac": 64}
  }
}
|}
  in
  checkb "monitor document parses" true (Result.is_ok (Json.parse monitor));
  damaged_copies_parse monitor

(* --- property tests --- *)

let prop_stats_mean_in_range =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_merge_matches_sequential =
  QCheck.Test.make ~name:"merge equals sequential feeding" ~count:200
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (la, lb) ->
      let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
      List.iter (Stats.add a) la;
      List.iter (Stats.add b) lb;
      List.iter (Stats.add whole) (la @ lb);
      let m = Stats.merge a b in
      Stats.count m = Stats.count whole
      && (Stats.count m = 0 || abs_float (Stats.mean m -. Stats.mean whole) < 1e-6))

let prop_histogram_conserves =
  QCheck.Test.make ~name:"histogram conserves observations" ~count:200
    QCheck.(list (float_range (-10.) 10.))
    (fun l ->
      let s = Histogram.Samples.create () in
      List.iter (Histogram.Samples.add s) l;
      let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (chart_bins ~bins:7 s) in
      total = List.length l && Histogram.Samples.count s = List.length l)

let suite =
  [
    Alcotest.test_case "stats basic" `Quick test_stats_basic;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats single" `Quick test_stats_single;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "stats merge empty" `Quick test_stats_merge_empty;
    Alcotest.test_case "histogram binning" `Quick test_histogram_binning;
    Alcotest.test_case "histogram clamping" `Quick test_histogram_clamping;
    Alcotest.test_case "histogram bounds" `Quick test_histogram_bounds;
    Alcotest.test_case "samples percentiles" `Quick test_samples_percentiles;
    Alcotest.test_case "samples interleaved" `Quick test_samples_interleaved;
    Alcotest.test_case "ledger basic" `Quick test_ledger_basic;
    Alcotest.test_case "ledger snapshot" `Quick test_ledger_snapshot;
    Alcotest.test_case "ledger reset" `Quick test_ledger_reset;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table row mismatch" `Quick test_table_row_mismatch;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "table csv quotes CR" `Quick test_table_csv_quotes_cr;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "fit linear exact" `Quick test_fit_linear_exact;
    Alcotest.test_case "fit linear noise" `Quick test_fit_linear_noise;
    Alcotest.test_case "fit power law" `Quick test_fit_power_law;
    Alcotest.test_case "fit polylog" `Quick test_fit_polylog;
    Alcotest.test_case "fit errors" `Quick test_fit_errors;
    QCheck_alcotest.to_alcotest prop_stats_mean_in_range;
    QCheck_alcotest.to_alcotest prop_merge_matches_sequential;
    QCheck_alcotest.to_alcotest prop_histogram_conserves;
    Alcotest.test_case "json writer rule" `Quick test_json_writer_rule;
    Alcotest.test_case "json reader" `Quick test_json_reader;
    Alcotest.test_case "json hostile documents" `Quick test_json_hostile_documents;
    QCheck_alcotest.to_alcotest prop_json_string_round_trip;
    QCheck_alcotest.to_alcotest prop_json_random_bytes;
  ]
