(* Tests for the live telemetry surface: Prometheus text exposition
   (golden renderings, label escaping, cumulative bucket construction),
   the structural exposition validator, the Httpd listener lifecycle
   (concurrent requests, graceful shutdown, port conflicts), the
   /status endpoint, the shared JSONL fold helpers, the structured log
   reporter, and the end-to-end invariant that a live listener being
   hammered mid-search never perturbs tuner results. *)

open Mcf_ir
module Export = Mcf_obs.Export
module Metrics = Mcf_obs.Metrics
module Progress = Mcf_obs.Progress
module Httpd = Mcf_util.Httpd
module Json = Mcf_util.Json

let a100 = Mcf_gpu.Spec.a100
let small_gemm = Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 ()

(* Only look at the [tst.*] metrics a test registered itself: the
   registry is process-global and other tests bump the real counters. *)
let only prefix name =
  String.length name >= String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

(* --- exposition ------------------------------------------------------------- *)

let test_export_counter_gauge () =
  let c = Metrics.counter "tst.exp.count" in
  let g = Metrics.gauge "tst.exp.gauge" in
  Metrics.add c 42;
  Metrics.set g 2.5;
  Alcotest.(check string)
    "golden"
    "# TYPE mcfuser_tst_exp_count counter\n\
     mcfuser_tst_exp_count 42\n\
     # TYPE mcfuser_tst_exp_gauge gauge\n\
     mcfuser_tst_exp_gauge 2.5\n"
    (Export.metrics_text ~filter:(only "tst.exp.") ())

let test_export_label_escaping () =
  let c = Metrics.counter "tst.esc.count" in
  Metrics.add c 1;
  let text =
    Export.metrics_text
      ~labels:[ ("workload", "g\"e\\m\nm") ]
      ~filter:(only "tst.esc.") ()
  in
  Alcotest.(check string)
    "escaped"
    "# TYPE mcfuser_tst_esc_count counter\n\
     mcfuser_tst_esc_count{workload=\"g\\\"e\\\\m\\nm\"} 1\n"
    text;
  (* and the validator's parser must round-trip the escapes *)
  Alcotest.(check (result unit string)) "validates" (Ok ())
    (Export.validate_metrics_text text)

let test_export_histogram () =
  let h = Metrics.histogram "tst.exp.lat" in
  Metrics.observe h (-1.0);
  (* underflow bucket, bound 0 *)
  Metrics.observe h 0.5;
  Metrics.observe h 3.0;
  Metrics.observe h 3.5;
  let text = Export.metrics_text ~filter:(only "tst.exp.lat") () in
  Alcotest.(check string)
    "cumulative buckets"
    "# TYPE mcfuser_tst_exp_lat histogram\n\
     mcfuser_tst_exp_lat_bucket{le=\"0\"} 1\n\
     mcfuser_tst_exp_lat_bucket{le=\"0.5\"} 2\n\
     mcfuser_tst_exp_lat_bucket{le=\"4\"} 4\n\
     mcfuser_tst_exp_lat_bucket{le=\"+Inf\"} 4\n\
     mcfuser_tst_exp_lat_sum 6\n\
     mcfuser_tst_exp_lat_count 4\n"
    text;
  (* _sum/_count agree with the registry's own summary *)
  let s = Metrics.summary h in
  Alcotest.(check int) "count" 4 s.Metrics.hcount;
  Alcotest.(check (float 1e-9)) "sum" 6.0 s.Metrics.hsum;
  Alcotest.(check (result unit string)) "validates" (Ok ())
    (Export.validate_metrics_text text)

let test_export_full_registry_validates () =
  (* Whatever state earlier tests (and the tuner) left behind, the full
     exposition must be structurally sound. *)
  let h = Metrics.histogram "tst.full.lat" in
  Metrics.observe h 1e-4;
  Metrics.observe h 12.0;
  match Export.validate_metrics_text (Export.metrics_text ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "full exposition invalid: %s" e

let test_validator_rejects () =
  let check_err name text =
    match Export.validate_metrics_text text with
    | Ok () -> Alcotest.failf "%s: validator accepted bad exposition" name
    | Error _ -> ()
  in
  check_err "non-monotonic cumulative"
    "x_bucket{le=\"1\"} 5\n\
     x_bucket{le=\"2\"} 3\n\
     x_bucket{le=\"+Inf\"} 5\nx_sum 1\nx_count 5\n";
  check_err "descending le bounds"
    "x_bucket{le=\"2\"} 1\n\
     x_bucket{le=\"1\"} 2\n\
     x_bucket{le=\"+Inf\"} 2\nx_sum 1\nx_count 2\n";
  check_err "missing +Inf bucket" "x_bucket{le=\"1\"} 2\nx_sum 1\nx_count 2\n";
  check_err "count mismatch"
    "x_bucket{le=\"+Inf\"} 4\nx_sum 1\nx_count 5\n";
  check_err "missing _sum" "x_bucket{le=\"+Inf\"} 4\nx_count 4\n";
  check_err "malformed comment" "#bad comment\n";
  check_err "malformed sample" "not a sample line!\n"

(* --- httpd ------------------------------------------------------------------- *)

let start_echo ?max_connections ?(delay_s = 0.0) () =
  let handler (req : Httpd.request) =
    if delay_s > 0.0 then Thread.delay delay_s;
    let q =
      String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) req.Httpd.query)
    in
    Httpd.response
      (Printf.sprintf "%s %s [%s]" req.Httpd.meth req.Httpd.path q)
  in
  match Httpd.start ?max_connections ~addr:"127.0.0.1" ~port:0 ~handler () with
  | Ok t -> t
  | Error e -> Alcotest.failf "httpd start: %s" e

let test_httpd_roundtrip () =
  let t = start_echo () in
  Fun.protect
    ~finally:(fun () -> Httpd.stop t)
    (fun () ->
      Alcotest.(check bool) "kernel-assigned port" true (Httpd.port t > 0);
      Alcotest.(check bool) "running" true (Httpd.running t);
      match Httpd.Client.get (Httpd.url t ^ "/echo?a=1&b=2") with
      | Ok (status, body) ->
        Alcotest.(check int) "status" 200 status;
        Alcotest.(check string) "body" "GET /echo [a=1;b=2]" body
      | Error e -> Alcotest.failf "get: %s" e);
  Alcotest.(check bool) "stopped" false (Httpd.running t);
  (* idempotent stop *)
  Httpd.stop t

let test_httpd_concurrent () =
  let t = start_echo ~delay_s:0.1 () in
  Fun.protect
    ~finally:(fun () -> Httpd.stop t)
    (fun () ->
      let results = Array.make 4 (Error "unset") in
      let workers =
        Array.init 4 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <- Httpd.Client.get (Httpd.url t ^ "/c"))
              ())
      in
      Array.iter Thread.join workers;
      Array.iteri
        (fun i r ->
          match r with
          | Ok (200, _) -> ()
          | Ok (status, _) -> Alcotest.failf "request %d: HTTP %d" i status
          | Error e -> Alcotest.failf "request %d: %s" i e)
        results)

let test_httpd_shutdown_drains () =
  (* stop must let the in-flight request finish, not sever it *)
  let t = start_echo ~delay_s:0.4 () in
  let result = ref (Error "unset") in
  let worker =
    Thread.create (fun () -> result := Httpd.Client.get (Httpd.url t ^ "/d")) ()
  in
  Thread.delay 0.1;
  Httpd.stop t;
  Thread.join worker;
  match !result with
  | Ok (200, body) ->
    Alcotest.(check string) "drained response" "GET /d []" body
  | Ok (status, _) -> Alcotest.failf "HTTP %d" status
  | Error e -> Alcotest.failf "in-flight request severed: %s" e

let test_httpd_port_in_use () =
  let t = start_echo () in
  Fun.protect
    ~finally:(fun () -> Httpd.stop t)
    (fun () ->
      match
        Httpd.start ~addr:"127.0.0.1" ~port:(Httpd.port t)
          ~handler:(fun _ -> Httpd.response "x")
          ()
      with
      | Ok t2 ->
        Httpd.stop t2;
        Alcotest.fail "second bind on a busy port succeeded"
      | Error e ->
        Alcotest.(check bool) "mentions the failure" true (String.length e > 0))

let test_httpd_bad_addr () =
  match
    Httpd.start ~addr:"not-an-address" ~port:0
      ~handler:(fun _ -> Httpd.response "x")
      ()
  with
  | Ok t ->
    Httpd.stop t;
    Alcotest.fail "bogus address accepted"
  | Error _ -> ()

(* --- endpoints --------------------------------------------------------------- *)

let test_endpoints_live () =
  match Export.serve ~listen:"127.0.0.1:0" with
  | Error e -> Alcotest.failf "serve: %s" e
  | Ok t ->
    Fun.protect
      ~finally:(fun () -> Export.shutdown t)
      (fun () ->
        let url = Httpd.url t in
        Progress.set_phase "tst.live";
        (match Httpd.Client.get (url ^ "/status") with
        | Ok (200, body) -> (
          match Json.parse (String.trim body) with
          | Ok j ->
            Alcotest.(check bool) "phase recorded via track" true
              (Json.member "phase" j = Some (Json.Str "tst.live"));
            Alcotest.(check bool) "funnel present" true
              (Json.member "funnel" j <> None);
            Alcotest.(check bool) "rsrc sampled" true
              (match Json.member "rsrc" j with
              | Some rs -> (
                match Json.member "heap_words" rs with
                | Some (Json.Num w) -> w > 0.0
                | _ -> false)
              | None -> false)
          | Error e -> Alcotest.failf "/status JSON: %s" e)
        | Ok (status, _) -> Alcotest.failf "/status: HTTP %d" status
        | Error e -> Alcotest.failf "/status: %s" e);
        (match Httpd.Client.get (url ^ "/healthz") with
        | Ok (200, body) -> Alcotest.(check string) "healthz" "ok\n" body
        | _ -> Alcotest.fail "/healthz failed");
        (match Httpd.Client.get (url ^ "/nope") with
        | Ok (404, _) -> ()
        | _ -> Alcotest.fail "unknown path should 404");
        match Export.selfcheck t with
        | Ok () -> ()
        | Error e -> Alcotest.failf "selfcheck: %s" e)

let test_listen_parse_errors () =
  let bad listen =
    match Export.serve ~listen with
    | Ok t ->
      Export.shutdown t;
      Alcotest.failf "accepted %S" listen
    | Error _ -> ()
  in
  bad "bogus";
  bad "127.0.0.1:notaport";
  bad "127.0.0.1:70000"

(* --- fold helpers ------------------------------------------------------------ *)

let with_temp_file lines f =
  let path = Filename.temp_file "mcf_fold" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      f path)

let test_fold_jsonl () =
  with_temp_file
    [ {|{"v":1}|};
      "not json at all";
      "";
      (* blank lines are not malformed *)
      {|{"other":true}|};
      (* well-formed JSON the caller rejects *)
      {|{"v":3}|}
    ]
    (fun path ->
      let vs, skipped =
        Json.fold_jsonl ~path ~init:[] ~f:(fun acc j ->
            match Json.member "v" j with
            | Some (Json.Num v) -> Some (v :: acc)
            | _ -> None)
      in
      Alcotest.(check (list (float 0.0))) "accepted" [ 3.0; 1.0 ] vs;
      Alcotest.(check int) "skipped" 2 skipped)

let test_fold_missing_file () =
  let acc, skipped =
    Json.fold_jsonl ~path:"/nonexistent/mcf_fold_probe" ~init:7
      ~f:(fun _ _ -> Alcotest.fail "f called for a missing file")
  in
  Alcotest.(check int) "init returned" 7 acc;
  Alcotest.(check int) "nothing skipped" 0 skipped

(* --- structured logging ------------------------------------------------------ *)

let capture_log format emit =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Logs.set_reporter (Mcf_obs.Logfmt.reporter ~ppf format);
  Logs.set_level ~all:true (Some Logs.Info);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter (Logs.nop_reporter);
      Logs.set_level ~all:true None)
    (fun () ->
      emit ();
      Format.pp_print_flush ppf ();
      Buffer.contents buf)

let test_logfmt_json () =
  let src = Logs.Src.create "tst.logfmt" in
  let module L = (val Logs.src_log src : Logs.LOG) in
  let out =
    capture_log Mcf_obs.Logfmt.Json (fun () -> L.info (fun m -> m "hello %d" 42))
  in
  match Json.parse (String.trim out) with
  | Error e -> Alcotest.failf "log line is not JSON (%s): %s" e out
  | Ok j ->
    Alcotest.(check bool) "level" true
      (Json.member "level" j = Some (Json.Str "info"));
    Alcotest.(check bool) "src" true
      (Json.member "src" j = Some (Json.Str "tst.logfmt"));
    Alcotest.(check bool) "msg" true
      (Json.member "msg" j = Some (Json.Str "hello 42"));
    (match Json.member "time" j with
    | Some (Json.Str t) ->
      Alcotest.(check bool) "ISO-8601 UTC" true
        (String.length t = 24 && t.[10] = 'T' && t.[23] = 'Z')
    | _ -> Alcotest.fail "missing time field")

let test_logfmt_text () =
  let src = Logs.Src.create "tst.logtext" in
  let module L = (val Logs.src_log src : Logs.LOG) in
  let out =
    capture_log Mcf_obs.Logfmt.Text (fun () -> L.warn (fun m -> m "watch out"))
  in
  let contains needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "level tag" true (contains "WARN");
  Alcotest.(check bool) "source tag" true (contains "[tst.logtext]");
  Alcotest.(check bool) "message" true (contains "watch out");
  Alcotest.(check bool) "UTC timestamp" true
    (String.length out > 24 && out.[10] = 'T')

(* --- progress tracking ------------------------------------------------------- *)

let test_progress_track_snapshot () =
  Progress.track ();
  Fun.protect ~finally:Progress.untrack (fun () ->
      Progress.set_phase "tst.phase";
      Progress.set_info "1724 points";
      Progress.generation ~gen:1 ~max_gen:10 ~measured:3;
      Progress.generation ~gen:3 ~max_gen:10 ~measured:9;
      let s = Progress.snapshot () in
      Alcotest.(check string) "phase" "tst.phase" s.Progress.sphase;
      Alcotest.(check string) "info" "1724 points" s.Progress.sinfo;
      Alcotest.(check int) "gen" 3 s.Progress.sgen;
      Alcotest.(check int) "max_gen" 10 s.Progress.smax_gen;
      Alcotest.(check int) "measured" 9 s.Progress.smeasured;
      Alcotest.(check bool) "eta from gen 2 on" true (s.Progress.seta_s <> None);
      Alcotest.(check bool) "elapsed runs" true (s.Progress.selapsed_s >= 0.0));
  (* after untrack, updates are gated off again *)
  Progress.set_phase "tst.ignored";
  let s = Progress.snapshot () in
  Alcotest.(check string) "untracked updates dropped" "tst.phase"
    s.Progress.sphase

(* --- listener bit-identity ---------------------------------------------------- *)

let test_tuner_listener_identity () =
  (* ISSUE 9 acceptance: the telemetry surface is strictly observational.
     Tuner outcomes must be bit-identical with the listener off or on —
     even while a poller hammers /status and /metrics mid-search — at
     any pool size. *)
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
    (fun () ->
      let fingerprint (o : Mcf_search.Tuner.outcome) =
        let f = o.funnel and s = o.search_stats in
        Printf.sprintf "%s|%.17g|%.17g|%d/%d/%d/%.17g/%.17g/%d/%d|%d/%d/%d"
          (Candidate.key o.best.cand)
          o.kernel_time_s o.tuning_virtual_s f.tilings_raw f.tilings_rule1
          f.tilings_rule2 f.candidates_raw f.candidates_rule3
          f.candidates_rule4 f.candidates_valid s.generations s.estimated
          s.measured
      in
      let tune () =
        match Mcf_search.Tuner.tune ~seed:7 a100 small_gemm with
        | Ok o -> fingerprint o
        | Error _ -> Alcotest.fail "tuner failed"
      in
      let run ~jobs ~listen =
        Mcf_util.Pool.set_jobs jobs;
        if not listen then tune ()
        else
          match Export.serve ~listen:"127.0.0.1:0" with
          | Error e -> Alcotest.failf "serve: %s" e
          | Ok t ->
            let stop = Atomic.make false in
            let poller =
              Thread.create
                (fun () ->
                  let url = Httpd.url t in
                  while not (Atomic.get stop) do
                    ignore (Httpd.Client.get (url ^ "/status"));
                    ignore (Httpd.Client.get (url ^ "/metrics"))
                  done)
                ()
            in
            Fun.protect
              ~finally:(fun () ->
                Atomic.set stop true;
                Thread.join poller;
                Export.shutdown t)
              tune
      in
      List.iter
        (fun jobs ->
          let base = run ~jobs ~listen:false in
          let listened = run ~jobs ~listen:true in
          Alcotest.(check string)
            (Printf.sprintf "identical at jobs=%d" jobs)
            base listened)
        [ 1; 4 ])

(* ----------------------------------------------------------------------------- *)

let () =
  Alcotest.run "mcf_telemetry"
    [ ( "export",
        [ Alcotest.test_case "counter and gauge golden" `Quick
            test_export_counter_gauge;
          Alcotest.test_case "label escaping" `Quick test_export_label_escaping;
          Alcotest.test_case "histogram buckets" `Quick test_export_histogram;
          Alcotest.test_case "full registry validates" `Quick
            test_export_full_registry_validates;
          Alcotest.test_case "validator rejects" `Quick test_validator_rejects
        ] );
      ( "httpd",
        [ Alcotest.test_case "roundtrip" `Quick test_httpd_roundtrip;
          Alcotest.test_case "concurrent requests" `Quick test_httpd_concurrent;
          Alcotest.test_case "shutdown drains in-flight" `Quick
            test_httpd_shutdown_drains;
          Alcotest.test_case "port in use" `Quick test_httpd_port_in_use;
          Alcotest.test_case "bad address" `Quick test_httpd_bad_addr
        ] );
      ( "endpoints",
        [ Alcotest.test_case "status/healthz/selfcheck" `Quick
            test_endpoints_live;
          Alcotest.test_case "listen parse errors" `Quick
            test_listen_parse_errors
        ] );
      ( "fold",
        [ Alcotest.test_case "fold_jsonl count-and-skip" `Quick test_fold_jsonl;
          Alcotest.test_case "missing file" `Quick test_fold_missing_file
        ] );
      ( "logfmt",
        [ Alcotest.test_case "json lines" `Quick test_logfmt_json;
          Alcotest.test_case "text lines" `Quick test_logfmt_text
        ] );
      ( "progress",
        [ Alcotest.test_case "track and snapshot" `Quick
            test_progress_track_snapshot
        ] );
      ( "identity",
        [ Alcotest.test_case "listener never perturbs the tuner" `Quick
            test_tuner_listener_identity
        ] )
    ]
