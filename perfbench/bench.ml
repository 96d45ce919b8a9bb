(* perfbench: run one workload of the mcfuser benchmark for one seed and
   print its metrics.

     bench --workload (tune-tables|tune-deep|serve-open) --seed N
           --seconds S --trace (0|1) [--size tiny] [--nproc N] [--rev REV]
           [--setup-probe]

   Run it through perfbench/run.py, which builds the repository first.
   The last line of standard output is the result, the line before it the
   environment; perfbench/README.md defines every metric. *)

let usage =
  "bench --workload (tune-tables|tune-deep|serve-open) --seed N --seconds S \
   --trace (0|1) [--size (full|tiny)] [--nproc N] [--rev REV] [--setup-probe]"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and tiny = ref false in
  let nproc = ref 0 and rev = ref "unknown" and probe = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " tune-tables, tune-deep or serve-open");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured run length");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ( "--size",
        Arg.Symbol ([ "full"; "tiny" ], fun s -> tiny := s = "tiny"),
        " input size (tiny for the self-test)" );
      ("--nproc", Arg.Set_int nproc, " cores available, recorded with the result");
      ("--rev", Arg.Set_string rev, " source revision, recorded with the result");
      ( "--setup-probe",
        Arg.Set probe,
        " tune workloads: build the inputs, start the pool, print ready and exit" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match !workload with
    | "tune-tables" -> Tune_wl.run ~deep:false
    | "tune-deep" -> Tune_wl.run ~deep:true
    | "serve-open" -> Serve_wl.run
    | _ ->
      prerr_endline usage;
      exit 2
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* One domain in the benchmark's pool.  Tuning outcomes are bit-identical
     at any pool size, and on a small shared host a second domain measures
     the scheduler: every minor collection waits for both domains, so a
     core lent to another process stalls the tune.  Under an intermittent
     CPU hog on 2 cores, five seeds of tune-tables spread tune_s_p90 by 34%
     with two domains and by 4% with one. *)
  Mcf_util.Pool.set_jobs 1;
  if !probe then begin
    (match !workload with
    | "tune-tables" | "tune-deep" ->
      ignore
        (Sys.opaque_identity
           (Tune_wl.prepare ~deep:(!workload = "tune-deep") ~tiny:!tiny !seed))
    | _ -> exit 2);
    print_endline "ready";
    exit 0
  end;
  if not (Sys.file_exists Daemon.exe) then begin
    prerr_endline ("perfbench: " ^ Daemon.exe ^ " is missing; run perfbench/run.py");
    exit 2
  end;
  let root = ".perfbench-tmp" in
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      Daemon.stop_all ();
      try
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir;
        Sys.rmdir root
      with Sys_error _ -> ());
  (* A run never outlives three minutes, and its daemons end with it. *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 170.0;
         prerr_endline "perfbench: stopped after 170 s";
         Daemon.stop_all ();
         Unix._exit 3)
       ());
  let o = run ~dir ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~tiny:!tiny in
  (* Failures counted against attempts; a ratio that is 1 at a healthy
     seed, so a relative bound applies to it. *)
  let ok_frac =
    Common.m "ok_frac" "ratio"
      (Common.ratio (float_of_int (o.attempted - o.failed)) (float_of_int o.attempted))
  in
  Common.print_env ~workload:!workload ~seed:!seed ~nproc:!nproc ~rev:!rev o.env;
  Common.print_result ~attempted:o.attempted ~failed:o.failed
    (if !trace = 0 then o.metrics @ [ ok_frac ] else o.metrics)
