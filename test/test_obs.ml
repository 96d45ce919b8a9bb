(* Tests for the observability layer: the span tracer (nesting, Chrome
   JSON export, exception safety, zero-cost-when-off), the metrics
   registry (log-scale histogram bucketing, counter determinism under
   domains), the profile aggregator, the minimal JSON codec, and the
   end-to-end invariants that tie tuner outcomes to the counters the
   pipeline bumps along the way. *)

module Trace = Mcf_obs.Trace
module Metrics = Mcf_obs.Metrics
module Profile = Mcf_obs.Profile
module Json = Mcf_util.Json

let a100 = Mcf_gpu.Spec.a100

(* Trace/Profile state is process-global; make each test start clean. *)
let clean () =
  Trace.stop ();
  Trace.reset ();
  Profile.disable ();
  Profile.reset ()

(* --- Json ------------------------------------------------------------------- *)

let sample_json =
  Json.Obj
    [ ("s", Json.Str "a\"b\\c\n\t\x01");
      ("i", Json.num_of_int (-42));
      ("f", Json.Num 1.5);
      ("big", Json.Num 1.0e100);
      ("null", Json.Null);
      ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
      ("empty_o", Json.Obj []);
      ("empty_l", Json.List []) ]

let test_json_roundtrip () =
  match Json.parse (Json.to_string sample_json) with
  | Ok v ->
    Alcotest.(check string)
      "roundtrip" (Json.to_string sample_json) (Json.to_string v)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_integral_floats () =
  Alcotest.(check string) "integral" "3" (Json.to_string (Json.Num 3.0));
  Alcotest.(check string) "negative" "-7" (Json.to_string (Json.Num (-7.0)));
  Alcotest.(check string) "non-integral" "2.5" (Json.to_string (Json.Num 2.5));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Num Float.infinity))

let test_json_parse_escapes () =
  (match Json.parse {|"\u0041\u00e9\n"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "escapes" "A\xc3\xa9\n" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_errors () =
  let rejects s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter rejects
    [ "{"; "[1,]"; "{\"a\":1,}"; "1 2"; "tru"; "\"unterminated"; "";
      "01"; "- 1"; "[1 2]"; "{\"a\" 1}"; "\"\\x\"" ]

let test_json_member () =
  Alcotest.(check (option string))
    "present" (Some "1.5")
    (Option.map Json.to_string (Json.member "f" sample_json));
  Alcotest.(check bool) "absent" true (Json.member "zzz" sample_json = None);
  Alcotest.(check bool) "non-object" true
    (Json.member "f" (Json.List []) = None)

let test_json_write_atomic () =
  (* A writer that raises leaves the previous file byte-identical and no
     temporary behind; a clean write replaces the file whole. *)
  let file = Filename.temp_file "mcf_atomic" ".jsonl" in
  let tmp = file ^ ".tmp" in
  let read () = In_channel.with_open_bin file In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ file; tmp ])
    (fun () ->
      Json.write_atomic file (fun oc -> output_string oc "old\n");
      (match
         Json.write_atomic file (fun oc ->
             output_string oc "torn";
             failwith "boom")
       with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m);
      Alcotest.(check string) "previous file intact" "old\n" (read ());
      Alcotest.(check bool) "no .tmp left" false (Sys.file_exists tmp);
      Alcotest.(check int) "writer's result" 3
        (Json.write_atomic file (fun oc ->
             output_string oc "new\n";
             3));
      Alcotest.(check string) "replaced" "new\n" (read ()))

let test_artefact_writes_atomic () =
  (* The trace and metrics dumps go through [Json.write_atomic]: a write
     that fails (here the rename, onto a directory) leaves no temporary
     behind and what was at the path intact; a clean write replaces the
     file with a loadable document by rename, so a reader of the previous
     file still sees it whole. *)
  clean ();
  Trace.start ();
  Trace.with_span "artefact" ignore;
  Trace.stop ();
  let dir = Filename.temp_dir "mcf_artefact" "" in
  let keep = Filename.concat dir "keep" in
  let file = Filename.temp_file "mcf_artefact" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ keep; file; dir ^ ".tmp" ];
      (try Sys.rmdir dir with Sys_error _ -> ());
      clean ())
    (fun () ->
      Out_channel.with_open_bin keep (fun oc -> output_string oc "old");
      let failed name = function
        | Ok _ -> Alcotest.failf "%s: wrote over a directory" name
        | Error e ->
          Alcotest.(check bool)
            (name ^ ": typed error") true
            (String.starts_with ~prefix:("cannot write " ^ name) e);
          Alcotest.(check bool)
            (name ^ ": no .tmp left") false
            (Sys.file_exists (dir ^ ".tmp"));
          Alcotest.(check string)
            (name ^ ": previous contents intact") "old"
            (In_channel.with_open_bin keep In_channel.input_all)
      in
      failed "trace" (Trace.write dir);
      failed "metrics" (Mcf_obs.Export.write_metrics dir);
      let replaced name write =
        Out_channel.with_open_bin file (fun oc -> output_string oc "old");
        In_channel.with_open_bin file (fun ic ->
            Alcotest.(check bool) (name ^ " written") true
              (Result.is_ok (write file));
            Alcotest.(check string)
              (name ^ ": open reader sees the previous file") "old"
              (In_channel.input_all ic));
        Alcotest.(check bool) (name ^ " loads") true
          (Result.is_ok
             (Json.parse (In_channel.with_open_bin file In_channel.input_all)))
      in
      replaced "trace" Trace.write;
      replaced "metrics" Mcf_obs.Export.write_metrics)

(* --- Trace ------------------------------------------------------------------ *)

let test_span_nesting () =
  clean ();
  Trace.start ();
  Trace.with_span "a" (fun () ->
      Trace.with_span "b" (fun () -> ignore (Sys.opaque_identity 1)));
  Trace.with_span "c" (fun () -> ());
  Trace.stop ();
  let evs = Trace.events () in
  Alcotest.(check (list (list string)))
    "paths in start order"
    [ [ "a" ]; [ "a"; "b" ]; [ "c" ] ]
    (List.map (fun (e : Trace.event) -> e.path) evs);
  let find n = List.find (fun (e : Trace.event) -> e.name = n) evs in
  let a = find "a" and b = find "b" and c = find "c" in
  Alcotest.(check bool) "child starts after parent" true (b.ts_us >= a.ts_us);
  Alcotest.(check bool) "child nested in parent" true
    (b.ts_us +. b.dur_us <= a.ts_us +. a.dur_us +. 1e-3);
  Alcotest.(check bool) "parent covers child" true (a.dur_us >= b.dur_us);
  Alcotest.(check bool) "c starts after a ends" true
    (c.ts_us >= a.ts_us +. a.dur_us -. 1e-3)

let test_span_args_and_exceptions () =
  clean ();
  Trace.start ();
  (try
     Trace.with_span "boom"
       ~args:(fun () -> [ ("k", Trace.Int 7); ("s", Trace.Str "v") ])
       (fun () -> failwith "expected")
   with Failure _ -> ());
  Trace.stop ();
  match Trace.events () with
  | [ e ] ->
    Alcotest.(check string) "recorded on raise" "boom" e.name;
    Alcotest.(check bool) "args kept" true
      (List.mem_assoc "k" e.args && List.mem_assoc "s" e.args)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_zero_cost_when_off () =
  clean ();
  let thunks_ran = ref 0 in
  let r =
    Trace.with_span "off"
      ~args:(fun () ->
        incr thunks_ran;
        [])
      (fun () -> 42)
  in
  Alcotest.(check int) "result passes through" 42 r;
  Alcotest.(check int) "args thunk never built" 0 !thunks_ran;
  Alcotest.(check int) "nothing buffered" 0 (List.length (Trace.events ()))

let test_timed_always_measures () =
  clean ();
  let r, dur = Trace.timed "t" (fun () -> "x") in
  Alcotest.(check string) "result" "x" r;
  Alcotest.(check bool) "duration measured while disabled" true (dur >= 0.0);
  Alcotest.(check int) "no event buffered" 0 (List.length (Trace.events ()))

let test_chrome_json_export () =
  clean ();
  Trace.start ();
  Trace.with_span "outer"
    ~args:(fun () -> [ ("n", Trace.Int 3); ("ok", Trace.Bool true) ])
    (fun () -> Trace.with_span "inner" (fun () -> ()));
  Trace.stop ();
  let doc = Json.to_string (Trace.to_chrome_json ()) in
  match Json.parse doc with
  | Error e -> Alcotest.failf "export does not parse back: %s" e
  | Ok v -> (
    match Json.member "traceEvents" v with
    | Some (Json.List evs) ->
      Alcotest.(check int) "two events" 2 (List.length evs);
      List.iter
        (fun ev ->
          List.iter
            (fun k ->
              if Json.member k ev = None then Alcotest.failf "missing %S" k)
            [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ];
          Alcotest.(check (option string))
            "complete event" (Some "\"X\"")
            (Option.map Json.to_string (Json.member "ph" ev)))
        evs;
      let outer =
        List.find
          (fun ev -> Json.member "name" ev = Some (Json.Str "outer"))
          evs
      in
      Alcotest.(check (option string))
        "args serialized"
        (Some {|{"n":3,"ok":true}|})
        (Option.map Json.to_string (Json.member "args" outer))
    | _ -> Alcotest.fail "no traceEvents array")

(* --- Metrics ---------------------------------------------------------------- *)

let test_counter_basics () =
  let c = Metrics.counter "test.counter_basics" in
  let v0 = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "incr + add" (v0 + 5) (Metrics.value c);
  Alcotest.(check int) "by name"
    (Metrics.value c)
    (Metrics.counter_value "test.counter_basics");
  Alcotest.(check int) "unknown name is 0" 0
    (Metrics.counter_value "test.never_registered");
  Alcotest.(check bool) "same name, same counter" true
    (Metrics.value (Metrics.counter "test.counter_basics") = Metrics.value c)

let test_kind_mismatch_rejected () =
  ignore (Metrics.counter "test.kind_clash");
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument
       "Mcf_obs.Metrics: \"test.kind_clash\" already registered as another \
        kind")
    (fun () -> ignore (Metrics.histogram "test.kind_clash"))

let test_gauge () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  Metrics.set g (-1.25);
  Alcotest.(check (float 0.0)) "last write wins" (-1.25)
    (Metrics.gauge_value g)

let test_counter_determinism_under_domains () =
  let c = Metrics.counter "test.parallel_counter" in
  let v0 = Metrics.value c in
  let n = 1000 in
  let out =
    Mcf_util.Pool.with_pool ~jobs:4 (fun p ->
        Mcf_util.Pool.map p
          (fun i ->
            Metrics.incr c;
            i * 2)
          (List.init n Fun.id))
  in
  Alcotest.(check int) "all increments land" (v0 + n) (Metrics.value c);
  Alcotest.(check (list int))
    "map output still deterministic"
    (List.init n (fun i -> i * 2))
    out

let test_histogram_bucketing () =
  let h = Metrics.histogram "test.hist_buckets" in
  (* Buckets are (2^(e-1), 2^e]: exact powers of two sit at their own
     upper bound, values just above spill into the next bucket. *)
  List.iter (Metrics.observe h)
    [ 0.0; -3.0; 1.0; 2.0; 2.5; 0.75; Float.infinity; Float.nan ];
  let s = Metrics.summary h in
  Alcotest.(check int) "NaN dropped from count" 7 s.hcount;
  Alcotest.(check (float 1e-9)) "min" (-3.0) s.hmin;
  Alcotest.(check (float 0.0)) "max" Float.infinity s.hmax;
  Alcotest.(check bool) "sum is inf (contains inf)" true
    (s.hsum = Float.infinity);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "bucket layout"
    [ (0.0, 2);  (* 0.0 and -3.0: underflow *)
      (1.0, 2);  (* 0.75 and 1.0: (0.5, 1] *)
      (2.0, 1);  (* 2.0 exactly on its bound *)
      (4.0, 1);  (* 2.5 *)
      (Float.infinity, 1) ]
    s.hbuckets

let test_histogram_empty () =
  let h = Metrics.histogram "test.hist_empty" in
  let s = Metrics.summary h in
  Alcotest.(check int) "count" 0 s.hcount;
  Alcotest.(check (float 0.0)) "min" Float.infinity s.hmin;
  Alcotest.(check (float 0.0)) "max" Float.neg_infinity s.hmax;
  Alcotest.(check bool) "no buckets" true (s.hbuckets = [])

let test_histogram_percentiles () =
  (* Two-bucket layout with exact power-of-two observations: 50 in (0.5, 1]
     and 50 in (2, 4].  The first bucket is fully consumed at p50, so the
     interpolation lands exactly on its upper bound; p90/p99 interpolate
     geometrically inside the second bucket. *)
  let h = Metrics.histogram "test.hist_pct" in
  for _ = 1 to 50 do
    Metrics.observe h 1.0
  done;
  for _ = 1 to 50 do
    Metrics.observe h 4.0
  done;
  let s = Metrics.summary h in
  Alcotest.(check (float 1e-9)) "p50 on bucket bound" 1.0 s.hp50;
  Alcotest.(check (float 1e-9)) "p90 geometric"
    (2.0 *. (2.0 ** 0.8))
    s.hp90;
  Alcotest.(check (float 1e-9)) "p99 geometric"
    (2.0 *. (2.0 ** 0.98))
    s.hp99;
  Alcotest.(check bool) "monotone" true (s.hp50 <= s.hp90 && s.hp90 <= s.hp99)

let test_histogram_percentiles_clamped () =
  (* A single observation: every percentile collapses to that value via
     the [min, max] clamp, even though the bucket bound is elsewhere. *)
  let h = Metrics.histogram "test.hist_pct_one" in
  Metrics.observe h 3.0;
  let s = Metrics.summary h in
  List.iter
    (fun (lbl, v) -> Alcotest.(check (float 1e-9)) lbl 3.0 v)
    [ ("p50", s.hp50); ("p90", s.hp90); ("p99", s.hp99) ];
  (* Empty histogram: percentiles are 0 by convention. *)
  let e = Metrics.summary (Metrics.histogram "test.hist_pct_empty") in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 e.hp50;
  Alcotest.(check (float 0.0)) "empty p99" 0.0 e.hp99

let test_histogram_percentiles_in_json () =
  let h = Metrics.histogram "test.hist_pct_json" in
  Metrics.observe h 2.0;
  match Json.member "histograms" (Metrics.to_json ()) with
  | Some hs -> (
    match Json.member "test.hist_pct_json" hs with
    | Some j ->
      List.iter
        (fun k ->
          Alcotest.(check (option string))
            (k ^ " exported") (Some "2")
            (Option.map Json.to_string (Json.member k j)))
        [ "p50"; "p90"; "p99" ]
    | None -> Alcotest.fail "histogram missing from snapshot")
  | None -> Alcotest.fail "no histograms section"

let test_metrics_json_deterministic () =
  let j1 = Json.to_string (Metrics.to_json ()) in
  let j2 = Json.to_string (Metrics.to_json ()) in
  Alcotest.(check string) "stable snapshot" j1 j2;
  match Json.parse j1 with
  | Ok v ->
    Alcotest.(check bool) "has counters section" true
      (Json.member "counters" v <> None)
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e

(* --- Profile ---------------------------------------------------------------- *)

let test_profile_aggregates () =
  clean ();
  Profile.enable ();
  for _ = 1 to 3 do
    Trace.with_span "p" (fun () -> Trace.with_span "q" (fun () -> ()))
  done;
  Profile.disable ();
  (match Profile.entries () with
  | [ p; q ] ->
    Alcotest.(check (list string)) "parent first" [ "p" ] p.path;
    Alcotest.(check (list string)) "child keyed by path" [ "p"; "q" ] q.path;
    Alcotest.(check int) "parent count" 3 p.count;
    Alcotest.(check int) "child count" 3 q.count;
    Alcotest.(check bool) "parent covers child" true (p.total_s >= q.total_s)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Alcotest.(check int) "no trace buffered while profiling" 0
    (List.length (Trace.events ()));
  clean ()

(* --- End-to-end invariants -------------------------------------------------- *)

let test_tuner_metric_invariants () =
  clean ();
  Metrics.reset ();
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  match Mcf_search.Tuner.tune a100 chain with
  | Error _ -> Alcotest.fail "tuner failed"
  | Ok o ->
    let cv = Metrics.counter_value in
    Alcotest.(check int) "valid candidates counted"
      o.funnel.candidates_valid
      (cv "space.candidates_valid");
    Alcotest.(check int) "raw tilings counted" o.funnel.tilings_raw
      (cv "space.tilings_raw");
    Alcotest.(check int) "estimator calls counted" o.search_stats.estimated
      (cv "explore.estimated");
    Alcotest.(check int) "measurements counted" o.search_stats.measured
      (cv "explore.measured");
    Alcotest.(check int) "one sim run per measurement"
      o.search_stats.measured (cv "sim.runs");
    (* one compile per measurement plus the final winning kernel *)
    Alcotest.(check int) "compiles = measured + 1"
      (o.search_stats.measured + 1)
      (cv "codegen.compiles");
    Alcotest.(check bool) "generations counted" true
      (cv "explore.generations" > 0);
    Alcotest.(check int) "one tune" 1 (cv "tuner.tunes");
    Alcotest.(check bool) "phase sum within wall clock" true
      (List.fold_left (fun acc (_, d) -> acc +. d) 0.0 o.phases
      <= o.tuning_wall_s +. 1e-6);
    Alcotest.(check (list string))
      "phases in execution order (space.precheck carved out)"
      [ "tuner.enumerate"; "space.precheck"; "tuner.explore"; "tuner.measure";
        "tuner.codegen" ]
      (List.map fst o.phases);
    List.iter
      (fun (name, d) ->
        Alcotest.(check bool) (name ^ " non-negative") true (d >= 0.0))
      o.phases

let test_tuner_trace_covers_pipeline () =
  clean ();
  Trace.start ();
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  (match Mcf_search.Tuner.tune a100 chain with
  | Error _ -> Alcotest.fail "tuner failed"
  | Ok _ -> ());
  Trace.stop ();
  let names =
    List.sort_uniq compare
      (List.map (fun (e : Trace.event) -> e.name) (Trace.events ()))
  in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "span %S missing" n)
    [ "tuner.tune"; "tuner.enumerate"; "space.enumerate"; "space.walk";
      "space.precheck"; "space.rule3"; "space.lower";
      "tuner.explore"; "explore.generation"; "tuner.measure"; "tuner.codegen"
    ];
  (* every span nests under the root *)
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check string)
        (e.name ^ " rooted at tuner.tune") "tuner.tune" (List.hd e.path))
    (Trace.events ());
  clean ()

let test_cache_counters () =
  clean ();
  Metrics.reset ();
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let req =
    { Mcf_serve.Protocol.workload = chain.cname; chain; spec = a100;
      seed = None; reservoir = None }
  in
  let file = Filename.temp_file "mcf_obs_cache" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      (match Mcf_serve.Protocol.tune ~cache_file:file req with
      | Ok (_, Some _) -> ()
      | Ok (_, None) -> Alcotest.fail "first call must miss"
      | Error _ -> Alcotest.fail "tuner failed");
      match Mcf_serve.Protocol.tune ~cache_file:file req with
      | Ok (_, None) ->
        Alcotest.(check int) "one miss" 1 (Metrics.counter_value "cache.misses");
        Alcotest.(check int) "one hit" 1 (Metrics.counter_value "cache.hits");
        Alcotest.(check int) "hits + misses = lookups" 2
          (Metrics.counter_value "cache.hits"
          + Metrics.counter_value "cache.misses")
      | Ok (_, Some _) -> Alcotest.fail "second call must hit"
      | Error _ -> Alcotest.fail "tuner failed")

let test_tracing_does_not_perturb_tuning () =
  clean ();
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let run () =
    match Mcf_search.Tuner.tune a100 chain with
    | Ok o ->
      (Mcf_ir.Candidate.to_string o.best.cand, o.kernel_time_s,
       o.search_stats.measured)
    | Error _ -> Alcotest.fail "tuner failed"
  in
  let plain = run () in
  Trace.start ();
  Profile.enable ();
  let traced = run () in
  clean ();
  Alcotest.(check bool) "identical outcome with tracing on" true
    (plain = traced)

(* --- Recorder --------------------------------------------------------------- *)

module Recorder = Mcf_obs.Recorder
module Fidelity = Mcf_obs.Fidelity
module Report = Mcf_obs.Report

let test_recorder_zero_cost_when_off () =
  Recorder.reset ();
  let ran = ref 0 in
  Recorder.emit "x" (fun () ->
      incr ran;
      []);
  Alcotest.(check int) "field thunk never built" 0 !ran;
  Alcotest.(check int) "nothing buffered" 0 (List.length (Recorder.events ()))

let test_recorder_emit_order_and_strip () =
  Recorder.reset ();
  Recorder.start ();
  Recorder.emit "run" (fun () ->
      [ ("time", Json.Num 1.5); ("device", Json.Str "A100") ]);
  Recorder.emit "end" (fun () -> [ ("wall_s", Json.Num 0.25) ]);
  Recorder.stop ();
  (match Recorder.events () with
  | [ a; b ] ->
    Alcotest.(check string)
      "ev discriminator leads" {|{"ev":"run","time":1.5,"device":"A100"}|}
      (Json.to_string a);
    Alcotest.(check string)
      "clock stripped from run" {|{"ev":"run","device":"A100"}|}
      (Json.to_string (Recorder.strip_clock a));
    Alcotest.(check string)
      "clock stripped from end" {|{"ev":"end"}|}
      (Json.to_string (Recorder.strip_clock b))
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  Recorder.reset ()

let test_recorder_write_error () =
  match Recorder.write "/nonexistent/mcf-rec.jsonl" with
  | Ok _ -> Alcotest.fail "wrote into a missing directory"
  | Error e ->
    Alcotest.(check bool) "typed error" true
      (String.starts_with ~prefix:"cannot write recording" e)

let test_recorder_write_load_roundtrip () =
  Recorder.reset ();
  Recorder.start ();
  Recorder.emit "run" (fun () -> [ ("chain", Json.Str "g") ]);
  Recorder.emit "measure" (fun () ->
      [ ("est", Json.Num 1.5); ("time_s", Json.Null) ]);
  Recorder.stop ();
  let file = Filename.temp_file "mcf_rec" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      Recorder.reset ())
    (fun () ->
      (match Recorder.write file with
      | Ok n -> Alcotest.(check int) "two events written" 2 n
      | Error e -> Alcotest.failf "write failed: %s" e);
      match Recorder.load file with
      | Ok evs ->
        Alcotest.(check (list string))
          "roundtrip"
          (List.map Json.to_string (Recorder.events ()))
          (List.map Json.to_string evs)
      | Error e -> Alcotest.failf "load failed: %s" e)

let record_tune ?(jobs = 1) chain =
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Mcf_util.Pool.set_jobs saved;
      Recorder.reset ())
    (fun () ->
      Mcf_util.Pool.set_jobs jobs;
      Recorder.start ();
      let o =
        match Mcf_search.Tuner.tune ~seed:7 a100 chain with
        | Ok o -> o
        | Error _ -> Alcotest.fail "tuner failed"
      in
      Recorder.stop ();
      (o, Recorder.events ()))

let test_recording_deterministic_across_jobs () =
  (* The tentpole invariant: a recording is byte-identical at any --jobs
     once the two wall-clock fields are stripped. *)
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let _, ev1 = record_tune ~jobs:1 chain in
  let _, ev4 = record_tune ~jobs:4 chain in
  (* The run header records the jobs setting by design; everything else
     must match byte for byte once the clock fields are stripped. *)
  let strip_jobs = function
    | Json.Obj kvs -> Json.Obj (List.remove_assoc "jobs" kvs)
    | j -> j
  in
  let render evs =
    List.map
      (fun e -> Json.to_string (strip_jobs (Recorder.strip_clock e)))
      evs
  in
  Alcotest.(check (list string))
    "events identical modulo clock + jobs fields" (render ev1) (render ev4)

let test_recording_does_not_perturb_tuning () =
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let fingerprint (o : Mcf_search.Tuner.outcome) =
    ( Mcf_ir.Candidate.key o.best.cand,
      o.kernel_time_s,
      o.tuning_virtual_s,
      o.funnel,
      o.search_stats )
  in
  let plain =
    match Mcf_search.Tuner.tune ~seed:7 a100 chain with
    | Ok o -> fingerprint o
    | Error _ -> Alcotest.fail "tuner failed"
  in
  let o, events = record_tune ~jobs:1 chain in
  Alcotest.(check bool) "bit-identical outcome with recording on" true
    (plain = fingerprint o);
  Alcotest.(check bool) "recording non-empty" true (List.length events > 0)

let test_recording_funnel_matches_outcome () =
  (* ISSUE 4 acceptance: the "space" event carries the funnel bit-identical
     to the Tuner.outcome the same run returned. *)
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let o, events = record_tune chain in
  let space_ev =
    List.find_opt
      (fun e -> Json.member "ev" e = Some (Json.Str "space"))
      events
  in
  match space_ev with
  | None -> Alcotest.fail "no space event recorded"
  | Some e ->
    Alcotest.(check (option string))
      "funnel bit-identical to outcome"
      (Some (Json.to_string (Mcf_search.Space.funnel_json o.funnel)))
      (Option.map Json.to_string (Json.member "funnel" e))

let test_recording_event_inventory () =
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let o, events = record_tune chain in
  let count name =
    List.length
      (List.filter
         (fun e -> Json.member "ev" e = Some (Json.Str name))
         events)
  in
  Alcotest.(check int) "one run header" 1 (count "run");
  Alcotest.(check int) "one space event" 1 (count "space");
  Alcotest.(check int) "one result" 1 (count "result");
  Alcotest.(check int) "one end" 1 (count "end");
  Alcotest.(check bool) "prune attribution present" true (count "prune" >= 4);
  Alcotest.(check int) "one generation summary per generation"
    o.search_stats.generations (count "generation");
  Alcotest.(check int) "one measure event per unique measurement"
    o.search_stats.measured (count "measure")

(* --- Fidelity --------------------------------------------------------------- *)

let fpair pcand pest pmeas = { Fidelity.pcand; pest; pmeas }

let test_fidelity_perfect_ranking () =
  (* Estimates off by a constant factor of 10 but perfectly ordered:
     ranking metrics are perfect while MAPE shows the scale error. *)
  let f =
    Fidelity.of_pairs ~ks:[ 1; 2 ]
      [ fpair "a" 1.0 10.0; fpair "b" 2.0 20.0; fpair "c" 3.0 30.0 ]
  in
  Alcotest.(check int) "pairs" 3 f.pairs;
  Alcotest.(check (float 1e-9)) "mape" 90.0 f.mape;
  Alcotest.(check (float 1e-9)) "rank accuracy" 1.0 f.rank_accuracy;
  Alcotest.(check (float 1e-9)) "kendall tau" 1.0 f.kendall_tau;
  List.iter
    (fun (k, r) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "top-%d recall" k) 1.0 r)
    f.topk_recall

let test_fidelity_inverted_ranking () =
  let f =
    Fidelity.of_pairs ~ks:[ 1 ]
      [ fpair "a" 3.0 10.0; fpair "b" 2.0 20.0; fpair "c" 1.0 30.0 ]
  in
  Alcotest.(check (float 1e-9)) "rank accuracy" 0.0 f.rank_accuracy;
  Alcotest.(check (float 1e-9)) "kendall tau" (-1.0) f.kendall_tau;
  Alcotest.(check (list (pair int (float 1e-9))))
    "top-1 recall misses" [ (1, 0.0) ] f.topk_recall

let test_fidelity_degenerate () =
  let empty = Fidelity.of_pairs [] in
  Alcotest.(check int) "no pairs" 0 empty.pairs;
  Alcotest.(check (float 0.0)) "tau needs 2 pairs" 0.0 empty.kendall_tau;
  let one = Fidelity.of_pairs ~ks:[ 1 ] [ fpair "a" 5.0 5.0 ] in
  Alcotest.(check (float 1e-9)) "exact estimate" 0.0 one.mape;
  Alcotest.(check (float 1e-9)) "vacuous rank accuracy" 1.0 one.rank_accuracy

let test_fidelity_histogram () =
  Alcotest.(check (list (pair (float 1e-9) int)))
    "log-scale buckets"
    [ (1.0, 2); (2.0, 1); (4.0, 1) ]
    (Fidelity.histogram [| 1.0; 0.75; 2.0; 2.5 |])

(* --- Report ----------------------------------------------------------------- *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_report_render_sections () =
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let o, events = record_tune chain in
  match Report.render events with
  | Error e -> Alcotest.failf "render failed: %s" e
  | Ok s ->
    List.iter
      (fun section ->
        Alcotest.(check bool) (section ^ " present") true
          (contains_substring s section))
      [ "# run"; "# pruning funnel"; "# prune attribution"; "# convergence";
        "# model fidelity"; "# result" ];
    (* The funnel table shows the same counts the outcome carries. *)
    Alcotest.(check bool) "valid count rendered" true
      (contains_substring s (string_of_int o.funnel.candidates_valid))

let test_report_diff_self_and_regression () =
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  let _, events = record_tune chain in
  (match Report.diff events events with
  | Error e -> Alcotest.failf "self diff failed: %s" e
  | Ok d ->
    Alcotest.(check bool) "no funnel drift" false d.funnel_drift;
    Alcotest.(check bool) "no fidelity drift" false d.fidelity_drift;
    Alcotest.(check bool) "no regression" false d.regression);
  (* Inflate the result's best time beyond tolerance: regression flips. *)
  let inflated =
    List.map
      (fun e ->
        match (Json.member "ev" e, e) with
        | Some (Json.Str "result"), Json.Obj kvs ->
          Json.Obj
            (List.map
               (fun (k, v) ->
                 match (k, v) with
                 | "kernel_time_s", Json.Num t -> (k, Json.Num (t *. 2.0))
                 | _ -> (k, v))
               kvs)
        | _ -> e)
      events
  in
  match Report.diff ~tolerance:0.05 events inflated with
  | Error e -> Alcotest.failf "regression diff failed: %s" e
  | Ok d ->
    Alcotest.(check bool) "regression detected" true d.regression;
    Alcotest.(check bool) "funnel still identical" false d.funnel_drift

let test_report_empty () =
  match Report.render [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty recording must not render"

(* --- Trace counter events --------------------------------------------------- *)

let test_trace_counter_events () =
  clean ();
  let ran = ref 0 in
  Trace.counter "c.off" (fun () ->
      incr ran;
      [ ("v", 1.0) ]);
  Alcotest.(check int) "thunk never built when off" 0 !ran;
  Alcotest.(check int) "nothing buffered when off" 0
    (List.length (Trace.counter_events ()));
  Trace.start ();
  Trace.counter "c.heap" (fun () -> [ ("heap", 10.0); ("peak", 20.0) ]);
  Trace.counter "c.heap" (fun () -> [ ("heap", 12.0); ("peak", 20.0) ]);
  Trace.stop ();
  Alcotest.(check int) "two counter samples buffered" 2
    (List.length (Trace.counter_events ()));
  (match Trace.to_chrome_json () with
  | Json.Obj kvs -> (
    match List.assoc_opt "traceEvents" kvs with
    | Some (Json.List tevs) ->
      let counters =
        List.filter (fun e -> Json.member "ph" e = Some (Json.Str "C")) tevs
      in
      Alcotest.(check int) "ph:C events exported" 2 (List.length counters);
      List.iter
        (fun e ->
          match Json.member "args" e with
          | Some (Json.Obj args) ->
            Alcotest.(check bool) "numeric series value" true
              (match List.assoc_opt "heap" args with
              | Some (Json.Num _) -> true
              | _ -> false)
          | _ -> Alcotest.fail "counter event without args")
        counters
    | _ -> Alcotest.fail "no traceEvents list")
  | _ -> Alcotest.fail "chrome export not an object");
  clean ()

(* --- Resource sampler ------------------------------------------------------- *)

module Resource = Mcf_obs.Resource

let test_resource_sample_noop_when_off () =
  let c0 = Metrics.counter_value "rsrc.samples" in
  Resource.sample ();
  Alcotest.(check int) "cooperative tick is a no-op when off" c0
    (Metrics.counter_value "rsrc.samples")

let test_resource_sampler_publishes () =
  clean ();
  Trace.start ();
  ignore (Mcf_util.Pool.get ());
  (* global pool exists: domains >= 1 *)
  let c0 = Metrics.counter_value "rsrc.samples" in
  Resource.start ~period_s:0.002;
  Alcotest.(check bool) "active" true (Resource.active ());
  (* Real work under the sampler so there is heap and pool traffic. *)
  let chain = Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 () in
  ignore (Mcf_search.Space.enumerate a100 chain);
  Unix.sleepf 0.02;
  Resource.stop ();
  Alcotest.(check bool) "inactive after stop" false (Resource.active ());
  let samples = Metrics.counter_value "rsrc.samples" - c0 in
  Alcotest.(check bool) "immediate + periodic + closing samples" true
    (samples >= 3);
  Alcotest.(check bool) "session peak positive" true
    (Resource.peak_heap_words () > 0.0);
  Alcotest.(check bool) "heap gauge live" true
    (Metrics.gauge_value (Metrics.gauge "rsrc.heap_words") > 0.0);
  Alcotest.(check bool) "peak gauge >= live gauge" true
    (Metrics.gauge_value (Metrics.gauge "rsrc.heap_words_peak")
    >= Metrics.gauge_value (Metrics.gauge "rsrc.heap_words"));
  (* Every tick also refreshes the pool gauges (the Poolstats fix). *)
  Alcotest.(check bool) "pool gauges synced by sampler" true
    (Metrics.gauge_value (Metrics.gauge "pool.domains") >= 1.0);
  let names =
    List.map
      (fun (c : Trace.counter_event) -> c.Trace.kname)
      (Trace.counter_events ())
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " series recorded") true (List.mem n names))
    [ "rsrc.heap_words"; "rsrc.pool_util"; "rsrc.alloc_words_per_s";
      "rsrc.gc" ];
  clean ()

(* --- Performance history ----------------------------------------------------- *)

module History = Mcf_obs.History

let hist_entry ?(time = 1.0) ?(rev = "abc1234") ?(device = "A100")
    ?(workload = "G1") metrics =
  { History.time; rev; device; workload; cores = None; ocaml = None; metrics }

let with_temp_file f =
  let file = Filename.temp_file "mcf_hist" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

let test_history_roundtrip () =
  with_temp_file (fun file ->
      Sys.remove file;
      (* [append] must create the file *)
      History.append ~path:file (hist_entry ~time:1.0 [ ("points_per_s", 100.0) ]);
      History.append ~path:file (hist_entry ~time:2.0 [ ("points_per_s", 110.0) ]);
      let entries, skipped = History.load file in
      Alcotest.(check int) "no skips" 0 skipped;
      Alcotest.(check (list (float 0.0)))
        "file order preserved" [ 1.0; 2.0 ]
        (List.map (fun (e : History.entry) -> e.History.time) entries);
      Alcotest.(check bool) "metrics survive" true
        (match entries with
        | e :: _ -> e.History.metrics = [ ("points_per_s", 100.0) ]
        | [] -> false);
      Alcotest.(check bool) "missing fields rejected" true
        (History.of_json (Json.Obj [ ("time", Json.Num 1.0) ]) = None))

(* Rows record the host's core count and OCaml version; rows written
   before those fields existed still load, without them. *)
let test_history_host_fields () =
  let old_row =
    {|{"time":1,"rev":"aaaa111","device":"A100","workload":"G1","metrics":{"tune_wall_s":0.02}}|}
  in
  (match Result.map History.of_json (Json.parse old_row) with
  | Ok (Some e) ->
    Alcotest.(check (option int)) "old row: no cores" None e.History.cores;
    Alcotest.(check (option string)) "old row: no ocaml" None e.History.ocaml
  | _ -> Alcotest.fail "old row did not load");
  let e =
    { (hist_entry ~time:2.0 [ ("tune_wall_s", 0.019) ]) with
      cores = Some 2;
      ocaml = Some "5.1.1" }
  in
  (match History.of_json (History.to_json e) with
  | Some back ->
    Alcotest.(check (option int))
      "cores round-trip" (Some 2) back.History.cores;
    Alcotest.(check (option string))
      "ocaml round-trip" (Some "5.1.1") back.History.ocaml
  | None -> Alcotest.fail "new row did not load");
  Alcotest.(check bool) "perf prints the host" true
    (contains_substring (History.render [ e ]) "cores 2, OCaml 5.1.1");
  let doc =
    Json.Obj
      [ ("device", Json.Str "A100");
        ("cores", Json.Num 4.0);
        ("ocaml", Json.Str "5.1.1");
        ( "workloads",
          Json.List
            [ Json.Obj
                [ ("name", Json.Str "G1"); ("peak_heap_words", Json.Num 1.0) ]
            ] ) ]
  in
  match History.of_search_doc ~time:1.0 ~rev:"r" doc with
  | [ e ] ->
    Alcotest.(check (option int)) "search doc cores" (Some 4) e.History.cores;
    Alcotest.(check (option string))
      "search doc ocaml" (Some "5.1.1") e.History.ocaml
  | _ -> Alcotest.fail "one entry per workload"

let test_history_malformed_skipped () =
  with_temp_file (fun file ->
      let oc = open_out file in
      output_string oc
        {|{"time":1,"rev":"r","device":"d","workload":"w","metrics":{"m":1}}|};
      output_string oc "\nnot json at all\n";
      output_string oc "{\"time\":2}\n";
      output_string oc "\n";
      (* truncated tail: valid JSON, no trailing newline *)
      output_string oc
        {|{"time":3,"rev":"r","device":"d","workload":"w","metrics":{"m":2}}|};
      close_out oc;
      let entries, skipped = History.load file in
      Alcotest.(check int) "garbage + wrong shape skipped" 2 skipped;
      Alcotest.(check int) "good lines survive" 2 (List.length entries))

let test_history_empty () =
  let entries, skipped = History.load "/nonexistent/mcf-history.jsonl" in
  Alcotest.(check int) "missing file: no entries" 0 (List.length entries);
  Alcotest.(check int) "missing file: no skips" 0 skipped;
  Alcotest.(check int) "empty gate: no verdicts" 0
    (List.length (History.gate []));
  Alcotest.(check bool) "empty render is friendly" true
    (contains_substring (History.render []) "no history entries")

let test_history_gate_single_entry () =
  (* One run total: no baseline, the gate passes trivially (and must not
     divide by zero computing a median of nothing). *)
  let v = History.gate [ hist_entry [ ("points_per_s", 100.0) ] ] in
  Alcotest.(check int) "single entry: no verdicts" 0 (List.length v)

let test_history_gate_mad_zero_and_direction () =
  let mk t v = hist_entry ~time:t [ ("points_per_s", v) ] in
  (* An all-identical window has MAD 0; the tolerance floor keeps small
     moves from flagging. *)
  let base = [ mk 1.0 100.0; mk 2.0 100.0; mk 3.0 100.0 ] in
  let ok = History.gate ~tolerance:0.05 (base @ [ mk 4.0 97.0 ]) in
  Alcotest.(check bool) "MAD=0: within tolerance floor" true
    (List.for_all (fun v -> not v.History.regressed) ok);
  let bad = History.gate ~tolerance:0.05 (base @ [ mk 4.0 80.0 ]) in
  Alcotest.(check bool) "MAD=0: throughput drop flagged" true
    (List.exists
       (fun v -> v.History.regressed && v.History.vmetric = "points_per_s")
       bad);
  (* Direction by name: _per_s is higher-is-better, wall time the reverse. *)
  let mkw t v = hist_entry ~time:t [ ("tune_wall_s", v) ] in
  let wbase = [ mkw 1.0 1.0; mkw 2.0 1.0 ] in
  Alcotest.(check bool) "faster wall time passes" true
    (List.for_all
       (fun v -> not v.History.regressed)
       (History.gate (wbase @ [ mkw 3.0 0.5 ])));
  Alcotest.(check bool) "slower wall time flagged" true
    (List.exists
       (fun v -> v.History.regressed)
       (History.gate (wbase @ [ mkw 3.0 2.0 ])))

let test_history_gate_window () =
  (* The baseline is the trailing window, not all of history: with
     window=2 only the two runs right before the newest count. *)
  let mk t v = hist_entry ~time:t [ ("tune_wall_s", v) ] in
  let es =
    [ mk 1.0 100.0; mk 2.0 100.0; mk 3.0 1.0; mk 4.0 1.0; mk 5.0 100.0 ]
  in
  let narrow = History.gate ~window:2 ~tolerance:0.05 es in
  Alcotest.(check bool) "recent fast runs set the bar" true
    (List.exists (fun v -> v.History.regressed) narrow);
  Alcotest.(check (list int)) "baseline capped at window" [ 2 ]
    (List.map (fun v -> v.History.n_baseline) narrow);
  let wide = History.gate ~window:10 ~tolerance:0.05 es in
  Alcotest.(check bool) "wide window absorbs the old regime" true
    (List.for_all (fun v -> not v.History.regressed) wide)

let test_history_gate_cores () =
  (* Only rows from the newest row's core count form its baseline; rows
     without [cores] match only each other. *)
  let mk ?cores t v =
    { (hist_entry ~time:t [ ("tune_wall_s", v) ]) with History.cores }
  in
  let on4 = [ mk ~cores:4 1.0 1.0; mk ~cores:4 2.0 1.0 ] in
  let v = History.gate ~tolerance:0.05 (on4 @ [ mk ~cores:2 3.0 5.0 ]) in
  Alcotest.(check int) "other core counts are no baseline" 0 (List.length v);
  Alcotest.(check bool) "render says no matching baseline" true
    (contains_substring
       (History.render_gate ~tolerance:0.05
          (on4 @ [ mk ~cores:2 3.0 5.0 ]) v)
       "skip A100/G1: no baseline with cores 2 (2 older runs");
  let es = on4 @ [ mk ~cores:2 3.0 5.0; mk ~cores:4 4.0 2.0 ] in
  (match History.gate ~tolerance:0.05 es with
  | [ v ] ->
    Alcotest.(check int) "same-cores rows only" 2 v.History.n_baseline;
    Alcotest.(check bool) "slower on the same cores flagged" true
      v.History.regressed
  | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l));
  let es = [ mk 1.0 1.0; mk ~cores:2 2.0 1.0; mk 3.0 1.0 ] in
  match History.gate ~tolerance:0.05 es with
  | [ v ] ->
    Alcotest.(check int) "unrecorded cores match each other" 1
      v.History.n_baseline
  | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l)

let test_history_of_search_doc () =
  let doc =
    Json.Obj
      [ ("device", Json.Str "A100");
        ("workloads",
         Json.List
           [ Json.Obj
               [ ("name", Json.Str "G1");
                 ("enumerate",
                  Json.List
                    [ Json.Obj
                        [ ("jobs", Json.Num 1.0);
                          ("points_per_s", Json.Num 10.0) ];
                      Json.Obj
                        [ ("jobs", Json.Num 4.0);
                          ("points_per_s", Json.Num 40.0) ] ]);
                 ("tune",
                  Json.List
                    [ Json.Obj
                        [ ("jobs", Json.Num 4.0);
                          ("wall_s", Json.Num 2.0);
                          ("estimates_per_s", Json.Num 5.0);
                          ("best_time_s", Json.Num 1e-6) ] ]);
                 ("peak_heap_words", Json.Num 1000.0);
                 ("alloc_words_per_point", Json.Num 250.0);
                 ("summaries_per_enumeration", Json.Num 192.0) ] ]) ]
  in
  match History.of_search_doc ~time:1.0 ~rev:"r" doc with
  | [ e ] ->
    Alcotest.(check string) "device" "A100" e.History.device;
    Alcotest.(check string) "workload" "G1" e.History.workload;
    let metric n = List.assoc_opt n e.History.metrics in
    Alcotest.(check (option (float 0.0))) "highest-jobs row wins"
      (Some 40.0) (metric "points_per_s");
    Alcotest.(check (option (float 0.0))) "tune wall" (Some 2.0)
      (metric "tune_wall_s");
    Alcotest.(check (option (float 0.0))) "best time" (Some 1e-6)
      (metric "best_time_s");
    Alcotest.(check (option (float 0.0))) "peak heap" (Some 1000.0)
      (metric "peak_heap_words");
    Alcotest.(check (option (float 0.0))) "alloc per point" (Some 250.0)
      (metric "alloc_words_per_point");
    Alcotest.(check (option (float 0.0))) "summaries" (Some 192.0)
      (metric "summaries_per_enumeration")
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

let test_history_direction_and_render () =
  Alcotest.(check bool) "per_s is higher-better" true
    (History.higher_is_better "points_per_s");
  Alcotest.(check bool) "wall time is lower-better" false
    (History.higher_is_better "tune_wall_s");
  Alcotest.(check bool) "heap words is lower-better" false
    (History.higher_is_better "peak_heap_words");
  Alcotest.(check bool) "alloc words per point is lower-better" false
    (History.higher_is_better "alloc_words_per_point");
  Alcotest.(check bool) "summaries per enumeration is lower-better" false
    (History.higher_is_better "summaries_per_enumeration");
  let es =
    [ hist_entry ~time:1.0 [ ("points_per_s", 100.0) ];
      hist_entry ~time:2.0 [ ("points_per_s", 200.0) ] ]
  in
  let s = History.render es in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true
        (contains_substring s needle))
    [ "A100/G1"; "points_per_s"; "+100.00%"; "_#" ];
  Alcotest.(check bool) "trivial gate renders a pass note" true
    (contains_substring
       (History.render_gate ~tolerance:0.05 [] [])
       "pass")

(* --- Observability lifecycle ---------------------------------------------- *)

module Lifecycle = Mcf_obs.Lifecycle

let with_temp_dir f =
  let dir = Filename.temp_file "mcf_life" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (fun name -> Filename.concat dir name))

let parse_file path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" path e

(* A body that leaves one span and one recorder event behind. *)
let traced_body () =
  Trace.with_span "lifecycle.body" (fun () ->
      Recorder.emit "lifecycle" (fun () -> [ ("x", Json.num_of_int 1) ]);
      Ok 42)

let check_record path =
  match Recorder.load path with
  | Ok events -> Alcotest.(check int) "one recorded event" 1 (List.length events)
  | Error e -> Alcotest.failf "recording does not load: %s" e

let test_lifecycle_writes_all () =
  clean ();
  Recorder.reset ();
  with_temp_dir (fun file ->
      let config =
        { Lifecycle.off with
          trace = Some (file "t.json");
          record = Some (file "r.jsonl");
          metrics = Some (file "m.json") }
      in
      (match Lifecycle.run config traced_body with
      | Ok v -> Alcotest.(check int) "body's result" 42 v
      | Error e -> Alcotest.failf "lifecycle failed: %s" e);
      let trace = parse_file (file "t.json") in
      Alcotest.(check bool) "trace has the body's span" true
        (contains_substring (Json.to_string trace) "lifecycle.body");
      check_record (file "r.jsonl");
      Alcotest.(check bool) "metrics dump is an object" true
        (match parse_file (file "m.json") with Json.Obj _ -> true | _ -> false);
      Alcotest.(check bool) "tracer stopped" false (Trace.enabled ());
      Alcotest.(check bool) "recorder stopped" false (Recorder.enabled ()));
  clean ();
  Recorder.reset ()

let test_lifecycle_trace_error () =
  clean ();
  Recorder.reset ();
  with_temp_dir (fun file ->
      let config =
        { Lifecycle.off with
          trace = Some (file "missing-dir/t.json");
          record = Some (file "r.jsonl");
          metrics = Some (file "m.json") }
      in
      (match Lifecycle.run config traced_body with
      | Ok _ -> Alcotest.fail "unwritable trace path reported success"
      | Error e ->
        Alcotest.(check bool) ("error names the trace step: " ^ e) true
          (contains_substring e "trace"));
      check_record (file "r.jsonl");
      ignore (parse_file (file "m.json")));
  clean ();
  Recorder.reset ()

(* The sampler stops before the trace is flushed, so every sample it
   took, the closing one at [Resource.stop] included, is in the file. *)
let test_lifecycle_sampler_closing_sample () =
  clean ();
  with_temp_dir (fun file ->
      let config =
        { Lifecycle.off with trace = Some (file "t.json"); sample_ms = Some 50.0 }
      in
      let c0 = Metrics.counter_value "rsrc.samples" in
      (match Lifecycle.run config (fun () -> Ok ()) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "lifecycle failed: %s" e);
      let samples = Metrics.counter_value "rsrc.samples" - c0 in
      let heap_events =
        match Json.member "traceEvents" (parse_file (file "t.json")) with
        | Some (Json.List evs) ->
          List.length
            (List.filter
               (fun e ->
                 Json.member "name" e = Some (Json.Str "rsrc.heap_words")
                 && Json.member "ph" e = Some (Json.Str "C"))
               evs)
        | _ -> Alcotest.fail "trace has no traceEvents list"
      in
      Alcotest.(check bool) "opening and closing samples" true (samples >= 2);
      Alcotest.(check int) "every sample, the closing one included, in the \
                            trace" samples heap_events);
  clean ()

(* --- property: histogram percentiles vs exact ----------------------------

   The log-bucketed estimates can be off by at most one power-of-two
   bucket: for random log-spread samples, p50/p90/p99 from
   [Metrics.summary] must land within a factor of 2 of the exact
   (sorted, interpolated) percentile, and stay inside [min, max]. *)

let hist_id = ref 0

let prop_percentiles_within_a_bucket =
  QCheck.Test.make ~count:100
    ~name:"hist percentiles within one log bucket of exact"
    QCheck.small_int (fun n ->
      incr hist_id;
      let h =
        Metrics.histogram (Printf.sprintf "test.hist_prop_%d" !hist_id)
      in
      let rng = Mcf_util.Rng.create (n + 1) in
      let count = 16 + Mcf_util.Rng.int rng 300 in
      let xs =
        List.init count (fun _ ->
            (* log-uniform over ~6 decades *)
            10.0 ** (Mcf_util.Rng.float rng 6.0 -. 3.0))
      in
      List.iter (Metrics.observe h) xs;
      let s = Metrics.summary h in
      List.for_all
        (fun (p, got) ->
          let exact = Mcf_util.Stats.percentile p xs in
          got >= exact /. 2.0
          && got <= exact *. 2.0
          && got >= s.Metrics.hmin
          && got <= s.Metrics.hmax)
        [ (50.0, s.Metrics.hp50);
          (90.0, s.Metrics.hp90);
          (99.0, s.Metrics.hp99) ])

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "integral floats" `Quick
            test_json_integral_floats;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "write atomic" `Quick test_json_write_atomic;
          Alcotest.test_case "trace and metrics writes atomic" `Quick
            test_artefact_writes_atomic ] );
      ( "trace",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "args + exceptions" `Quick
            test_span_args_and_exceptions;
          Alcotest.test_case "zero-cost when off" `Quick
            test_span_zero_cost_when_off;
          Alcotest.test_case "timed always measures" `Quick
            test_timed_always_measures;
          Alcotest.test_case "chrome export" `Quick test_chrome_json_export ] );
      ( "metrics",
        [ Alcotest.test_case "counters" `Quick test_counter_basics;
          Alcotest.test_case "kind mismatch" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "parallel counters" `Quick
            test_counter_determinism_under_domains;
          Alcotest.test_case "histogram buckets" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "percentiles clamped" `Quick
            test_histogram_percentiles_clamped;
          Alcotest.test_case "percentiles in json" `Quick
            test_histogram_percentiles_in_json;
          Alcotest.test_case "json snapshot" `Quick
            test_metrics_json_deterministic ] );
      ( "recorder",
        [ Alcotest.test_case "zero-cost when off" `Quick
            test_recorder_zero_cost_when_off;
          Alcotest.test_case "emit order + strip_clock" `Quick
            test_recorder_emit_order_and_strip;
          Alcotest.test_case "write/load roundtrip" `Quick
            test_recorder_write_load_roundtrip;
          Alcotest.test_case "write error is typed" `Quick
            test_recorder_write_error;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_recording_deterministic_across_jobs;
          Alcotest.test_case "no perturbation" `Quick
            test_recording_does_not_perturb_tuning;
          Alcotest.test_case "funnel matches outcome" `Quick
            test_recording_funnel_matches_outcome;
          Alcotest.test_case "event inventory" `Quick
            test_recording_event_inventory ] );
      ( "fidelity",
        [ Alcotest.test_case "perfect ranking" `Quick
            test_fidelity_perfect_ranking;
          Alcotest.test_case "inverted ranking" `Quick
            test_fidelity_inverted_ranking;
          Alcotest.test_case "degenerate inputs" `Quick
            test_fidelity_degenerate;
          Alcotest.test_case "histogram" `Quick test_fidelity_histogram ] );
      ( "report",
        [ Alcotest.test_case "render sections" `Quick
            test_report_render_sections;
          Alcotest.test_case "diff self + regression" `Quick
            test_report_diff_self_and_regression;
          Alcotest.test_case "empty recording" `Quick test_report_empty ] );
      ( "profile",
        [ Alcotest.test_case "aggregates by path" `Quick
            test_profile_aggregates ] );
      ( "resource",
        [ Alcotest.test_case "counter events" `Quick
            test_trace_counter_events;
          Alcotest.test_case "sample no-op when off" `Quick
            test_resource_sample_noop_when_off;
          Alcotest.test_case "sampler publishes" `Quick
            test_resource_sampler_publishes ] );
      ( "lifecycle",
        [ Alcotest.test_case "writes trace, record, metrics" `Quick
            test_lifecycle_writes_all;
          Alcotest.test_case "trace error, later writes kept" `Quick
            test_lifecycle_trace_error;
          Alcotest.test_case "sampler closing sample traced" `Quick
            test_lifecycle_sampler_closing_sample ] );
      ( "history",
        [ Alcotest.test_case "roundtrip" `Quick test_history_roundtrip;
          Alcotest.test_case "host fields" `Quick test_history_host_fields;
          Alcotest.test_case "malformed skipped" `Quick
            test_history_malformed_skipped;
          Alcotest.test_case "empty" `Quick test_history_empty;
          Alcotest.test_case "gate single entry" `Quick
            test_history_gate_single_entry;
          Alcotest.test_case "gate MAD=0 + direction" `Quick
            test_history_gate_mad_zero_and_direction;
          Alcotest.test_case "gate window" `Quick test_history_gate_window;
          Alcotest.test_case "gate cores" `Quick test_history_gate_cores;
          Alcotest.test_case "of_search_doc" `Quick
            test_history_of_search_doc;
          Alcotest.test_case "direction + render" `Quick
            test_history_direction_and_render ] );
      ( "pipeline",
        [ Alcotest.test_case "tuner counters" `Quick
            test_tuner_metric_invariants;
          Alcotest.test_case "trace covers pipeline" `Quick
            test_tuner_trace_covers_pipeline;
          Alcotest.test_case "cache hit/miss" `Quick test_cache_counters;
          Alcotest.test_case "no perturbation" `Quick
            test_tracing_does_not_perturb_tuning ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percentiles_within_a_bucket ] ) ]
