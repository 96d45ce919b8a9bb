(* mcfuser — command-line front door.

   Sub-commands:
     tune        tune one workload and print the winning schedule
     chain       tune a custom operator chain from dimensions
     schedule    print pseudo-code + Triton source + TIR for a workload
     dot         Graphviz rendering of the winning schedule's DAG (Fig. 5)
     explain     simulator cost breakdown of the winning kernel
     compare     run every backend on one workload
     partition   show the SV-B graph partitioner on a BERT layer
     experiment  run a paper experiment by id (fig2, fig8a, ..., ablation)
     workloads   list the built-in workloads
     verify      check a tuned schedule numerically against the reference
     fuzz        differential fuzzing of the whole pipeline (random chains)
     report      render (or --diff) a search flight recording
     perf        cross-run performance trends and regression gate

   Every sub-command accepts the observability flags:
     --trace FILE    write a Chrome trace_event JSON of the run (open in
                     chrome://tracing or https://ui.perfetto.dev)
     --record FILE   write the search flight recording (JSONL; render it
                     with `mcfuser report`)
     --metrics FILE  dump the full metrics registry as JSON at exit
     --profile       print a per-phase wall-clock table and a metrics dump
                     after the sub-command's normal output
     --sample-ms MS  sample GC/pool resources into rsrc.* gauges and trace
                     counter events every MS milliseconds
     --progress      live status line on stderr (tty only) *)

open Cmdliner

let spec_of_name name =
  match Mcf_gpu.Spec.by_name name with
  | Some s -> Ok s
  | None ->
    Error
      (`Msg
        (Printf.sprintf "unknown device %S (available: %s)" name
           (String.concat ", "
              (List.map (fun (s : Mcf_gpu.Spec.t) -> s.name) Mcf_gpu.Spec.all))))

(* --- common flags: verbosity and observability ---------------------------- *)

let verbose_arg =
  let doc = "Log tuning progress (-v: per-tune summaries, -vv: per-generation)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let log_format_conv =
  let parse s =
    match Mcf_obs.Logfmt.format_of_string s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with Mcf_obs.Logfmt.Text -> "text" | Mcf_obs.Logfmt.Json -> "json")
  in
  Arg.conv (parse, print)

let log_format_arg =
  let doc =
    "Log line format: $(b,text) (timestamped, source-tagged lines) or \
     $(b,json) (one JSON object per line, machine-parseable)."
  in
  Arg.(value & opt log_format_conv Mcf_obs.Logfmt.Text
       & info [ "log-format" ] ~docv:"FMT" ~doc)

(* Warnings (such as a JSONL store's skipped malformed lines) show
   without -v; -v and -vv add info and debug. *)
let setup_logs verbose log_format =
  let level =
    match List.length verbose with
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug
  in
  (* [Logs.set_level] (inside [Logfmt.setup]) applies to every existing
     source and becomes the default for sources registered later, so no
     per-source loop is needed — the old [Logs.Src.list] iteration only
     caught sources that already existed at startup and silently missed
     every per-library source registered after it. *)
  Mcf_obs.Logfmt.setup ~format:log_format level

(* Evaluated for effect before every sub-command body; run functions
   take the resulting [()] as their first argument. *)
let setup_term = Term.(const setup_logs $ verbose_arg $ log_format_arg)

(* [~listener:false] drops the --listen/--listen-selfcheck flags: the
   serve daemon owns its listener and reuses the names. *)
let obs_term_gen ~listener =
  let trace_arg =
    let doc =
      "Write a Chrome trace_event JSON of this run to $(docv) (load it in \
       chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let record_arg =
    let doc =
      "Write the search flight recording to $(docv) (JSONL, one event per \
       line; render or diff it with $(b,mcfuser report)).  Recording never \
       changes tuner results."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Dump the full metrics registry (counters, gauges, histograms with \
       p50/p90/p99) as JSON to $(docv) at exit."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let profile_arg =
    let doc =
      "After the sub-command's output, print the per-phase wall-clock table \
       and a dump of all pipeline metrics."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Size of the worker-domain pool used for parallel enumeration and \
       estimation (default: $(b,MCFUSER_JOBS) or the machine's core count, \
       capped at 8).  Results are identical for any value."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let sample_ms_arg =
    let doc =
      "Sample runtime resources (GC heap, allocation rate, domain-pool \
       utilization) every $(docv) milliseconds into [rsrc.*] gauges and, \
       with $(b,--trace), Chrome counter-event timelines.  Off by default; \
       sampling never changes tuner results."
    in
    Arg.(value & opt (some float) None
         & info [ "sample-ms" ] ~docv:"MS" ~doc)
  in
  let progress_arg =
    let doc =
      "Live status line on stderr (current phase, generation progress, \
       ETA).  Automatically suppressed when stdout is not a terminal."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let listen_arg =
    let doc =
      "Serve live telemetry on $(docv) (e.g. $(b,127.0.0.1:9464); port 0 \
       picks a free one) for the duration of the run: $(b,/metrics) \
       (Prometheus text exposition), $(b,/status) (JSON phase/funnel \
       snapshot), $(b,/healthz), $(b,/readyz).  Off by default; the \
       listener is strictly observational, so tuner results are \
       bit-identical with it on or off."
    in
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"ADDR:PORT" ~doc)
  in
  let listen_selfcheck_arg =
    let doc =
      "With $(b,--listen): after the run, fetch $(b,/healthz), \
       $(b,/status) and $(b,/metrics) from the live listener over its \
       real socket, validate them (JSON well-formedness, Prometheus \
       exposition structure) and fail the command if anything is off.  \
       Used by $(b,make telemetry-smoke)."
    in
    Arg.(value & flag & info [ "listen-selfcheck" ] ~doc)
  in
  let listen_arg =
    if listener then listen_arg else Term.const None
  and listen_selfcheck_arg =
    if listener then listen_selfcheck_arg else Term.const false
  in
  Term.(
    const
      (fun trace record metrics profile jobs sample_ms progress listen
           listen_selfcheck ->
        ( jobs,
          { Mcf_obs.Lifecycle.trace; record; metrics; profile; sample_ms;
            progress; listen; listen_selfcheck } ))
    $ trace_arg $ record_arg $ metrics_arg $ profile_arg $ jobs_arg
    $ sample_ms_arg $ progress_arg $ listen_arg $ listen_selfcheck_arg)

let obs_term = obs_term_gen ~listener:true

(* The pool size is the one common flag outside the observability
   lifecycle; body errors and lifecycle errors share the CLI's [`Msg]. *)
let with_obs (jobs, config) f =
  Option.iter Mcf_util.Pool.set_jobs jobs;
  Mcf_obs.Lifecycle.run config (fun () ->
      Result.map_error (fun (`Msg e) -> e) (f ()))
  |> Result.map_error (fun e -> `Msg e)

let with_setup device workload f =
  match spec_of_name device with
  | Error e -> Error e
  | Ok spec -> (
    match Mcf_serve.Protocol.chain_of_workload workload with
    | Error e -> Error (`Msg e)
    | Ok chain -> f spec chain)

let device_arg =
  let doc = "Target device model (A100 or RTX3080)." in
  Arg.(value & opt string "A100" & info [ "d"; "device" ] ~docv:"DEVICE" ~doc)

let workload_arg =
  let doc = "Workload name from Tables II/III, e.g. G4 or S2." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

(* --- tune ---------------------------------------------------------------- *)

(* A stored or served schedule, as a [tune --cache] hit and [submit]
   print it. *)
let print_sched (s : Mcf_serve.Protocol.sched) =
  Printf.printf "best      %s\n" s.cand;
  Printf.printf "kernel    %s\n" (Mcf_util.Table.fmt_time_s s.time_s);
  Printf.printf "tuning    %s virtual, %d measured, %d generations\n"
    (Mcf_util.Table.fmt_time_s s.virtual_s)
    s.measured s.generations

let phase_breakdown (o : Mcf_search.Tuner.outcome) =
  let strip name =
    match String.index_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let timed = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 o.phases in
  let cells =
    List.map
      (fun (name, d) ->
        Printf.sprintf "%s %s" (strip name) (Mcf_util.Table.fmt_time_s d))
      o.phases
    @ [ Printf.sprintf "other %s"
          (Mcf_util.Table.fmt_time_s (Float.max 0.0 (o.tuning_wall_s -. timed))) ]
  in
  String.concat " | " cells

let tune_cmd =
  let cache_arg =
    let doc =
      "Schedule-cache file (JSONL, the format of $(b,serve \
       --schedule-cache)): print the schedule stored for this request, or \
       tune and store it.  Entries are keyed by device fingerprint, chain \
       fingerprint, seed and $(b,--reservoir), so a stored schedule only \
       answers a tune that would reproduce it."
    in
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"FILE" ~doc)
  in
  let reservoir_arg =
    let doc =
      "Keep only the $(docv) best candidates (by analytical estimate) \
       resident during enumeration.  Bounds peak memory on deep chains \
       (D5-D8); unset keeps every valid candidate, the paper's behaviour."
    in
    Arg.(value & opt (some int) None & info [ "reservoir" ] ~docv:"N" ~doc)
  in
  let measure_cache_arg =
    let doc =
      "Measurement-cache file (JSONL): warm-start per-candidate \
       measurements from $(docv) and persist the union back on exit.  \
       Keys are content-addressed (device fingerprint + chain \
       fingerprint + canonical candidate), and hits skip the simulator \
       but charge the virtual clock identically, so tuner results and \
       virtual-time accounting are bit-identical to an uncached run."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "measure-cache" ] ~docv:"FILE" ~doc)
  in
  let run () obs cache reservoir measure_cache device workload =
    with_obs obs (fun () ->
        with_setup device workload (fun spec chain ->
            let mcache =
              Option.map
                (fun path ->
                  let c = Mcf_search.Measure.cache_create () in
                  ignore (Mcf_search.Measure.cache_load c path);
                  (c, path))
                measure_cache
            in
            let measure =
              Option.map
                (fun (c, _) -> Mcf_search.Measure.create ~cache:c spec)
                mcache
            in
            let hits0 = Mcf_obs.Metrics.counter_value "measure.cache.hits" in
            let miss0 = Mcf_obs.Metrics.counter_value "measure.cache.misses" in
            let result =
              Mcf_serve.Protocol.tune ?cache_file:cache ?measure
                { workload; chain; spec; seed = None; reservoir }
            in
            (* Persist whatever was measured, even on failure: those
               simulations are valid warm-start material either way. *)
            Option.iter
              (fun (c, path) -> ignore (Mcf_search.Measure.cache_save c path))
              mcache;
            let cache_line what =
              Option.iter
                (fun path -> Printf.printf "cache     %s: %s\n" path what)
                cache
            in
            match result with
            | Error Mcf_search.Tuner.No_viable_candidate ->
              Error (`Msg "no viable candidate: the chain cannot be fused here")
            | Ok (sched, outcome) -> (
              Printf.printf "workload  %s on %s\n" workload spec.name;
              match outcome with
              | None ->
                print_sched sched;
                cache_line "hit";
                Ok ()
              | Some o ->
                Printf.printf "best      %s\n"
                  (Mcf_ir.Candidate.to_string o.best.cand);
                Printf.printf "kernel    %s\n"
                  (Mcf_util.Table.fmt_time_s o.kernel_time_s);
                Printf.printf "tuning    %s virtual (%.2fs wall), %d measured, \
                               %d generations\n"
                  (Mcf_util.Table.fmt_time_s o.tuning_virtual_s)
                  o.tuning_wall_s o.search_stats.measured
                  o.search_stats.generations;
                Printf.printf "phases    %s\n" (phase_breakdown o);
                Option.iter
                  (fun (c, path) ->
                    Printf.printf
                      "mcache    %s: %d entries (%d hits, %d misses this \
                       run)\n"
                      path
                      (Mcf_search.Measure.cache_size c)
                      (Mcf_obs.Metrics.counter_value "measure.cache.hits"
                      - hits0)
                      (Mcf_obs.Metrics.counter_value "measure.cache.misses"
                      - miss0))
                  mcache;
                cache_line "miss, tuned and stored";
                Printf.printf
                  "space     %d candidates after pruning (raw %.3g)\n\n"
                  o.funnel.candidates_valid o.funnel.candidates_raw;
                print_string (Mcf_search.Tuner.pseudo_code o);
                Ok ())))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ cache_arg
                       $ reservoir_arg $ measure_cache_arg $ device_arg
                       $ workload_arg))
  in
  Cmd.v (Cmd.info "tune" ~doc:"Tune one workload and print the schedule") term

(* --- chain ---------------------------------------------------------------- *)

let chain_cmd =
  let dim name doc = Arg.(required & opt (some int) None & info [ name ] ~doc) in
  let kind_arg =
    let doc = "Chain kind: gemm, attention, mlp or gemm3." in
    Arg.(value & opt string "gemm" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let batch_arg =
    Arg.(value & opt int 1 & info [ "batch" ] ~doc:"Batch / head count.")
  in
  let p_arg =
    Arg.(value & opt int 64 & info [ "p" ] ~doc:"Third output dim (gemm3 only).")
  in
  let run () obs device kind batch m n k h p =
    with_obs obs (fun () ->
        match spec_of_name device with
        | Error e -> Error e
        | Ok spec -> (
          let chain =
            match kind with
            | "gemm" -> Ok (Mcf_ir.Chain.gemm_chain ~batch ~m ~n ~k ~h ())
            | "attention" ->
              Ok (Mcf_ir.Chain.attention ~heads:batch ~m ~n ~k ~h ())
            | "mlp" -> Ok (Mcf_ir.Chain.mlp_chain ~batch ~m ~n ~k ~h ())
            | "gemm3" -> Ok (Mcf_ir.Chain.gemm_chain3 ~batch ~m ~n ~k ~h ~p ())
            | other -> Error (`Msg (Printf.sprintf "unknown chain kind %S" other))
          in
          match chain with
          | Error e -> Error e
          | Ok chain -> (
            match Mcf_search.Tuner.tune spec chain with
            | Error Mcf_search.Tuner.No_viable_candidate ->
              Error (`Msg "no viable candidate: the chain cannot be fused here")
            | Ok o ->
              Printf.printf "best  %s at %s (%d measured, tuning %s virtual)\n"
                (Mcf_ir.Candidate.to_string o.best.cand)
                (Mcf_util.Table.fmt_time_s o.kernel_time_s)
                o.search_stats.measured
                (Mcf_util.Table.fmt_time_s o.tuning_virtual_s);
              Printf.printf "phases %s\n\n" (phase_breakdown o);
              print_string (Mcf_search.Tuner.pseudo_code o);
              Ok ())))
  in
  let term =
    Term.(
      term_result
        (const run $ setup_term $ obs_term $ device_arg $ kind_arg $ batch_arg
        $ dim "m" "M dimension." $ dim "n" "N dimension."
        $ dim "k" "K dimension." $ dim "h" "H dimension." $ p_arg))
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Tune a custom operator chain from dimensions")
    term

(* --- dot ------------------------------------------------------------------ *)

let dot_cmd =
  let run () obs device workload =
    with_obs obs (fun () ->
        with_setup device workload (fun spec chain ->
            match Mcf_search.Tuner.tune spec chain with
            | Error Mcf_search.Tuner.No_viable_candidate ->
              Error (`Msg "no viable candidate")
            | Ok o ->
              print_string
                (Mcf_ir.Program.to_dot
                   (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best)));
              Ok ()))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ device_arg
                       $ workload_arg))
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Graphviz rendering of the winning schedule's loop/statement DAG")
    term

(* --- explain ---------------------------------------------------------------- *)

let explain_cmd =
  let run () obs device workload =
    with_obs obs (fun () ->
        with_setup device workload (fun spec chain ->
            match Mcf_search.Tuner.tune spec chain with
            | Error Mcf_search.Tuner.No_viable_candidate ->
              Error (`Msg "no viable candidate")
            | Ok o ->
              print_string (Mcf_gpu.Sim.explain spec o.kernel);
              let b = Mcf_model.Perf.breakdown spec (Mcf_search.Space.lowered o.best) in
              Printf.printf
                "\nanalytical model (eqs. 2-5): %.2f us = (mem %.2f + comp %.2f) \
                 x alpha %.3f\n"
                (b.t_total *. 1e6) (b.t_mem *. 1e6) (b.t_comp *. 1e6) b.alpha;
              Printf.printf
                "shared memory: eq. (1) estimate %d B, actual allocation %d B\n"
                (Mcf_model.Shmem.estimate_bytes (Mcf_search.Space.lowered o.best))
                o.kernel.smem_bytes;
              Ok ()))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ device_arg
                       $ workload_arg))
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Simulator cost breakdown of the tuned kernel")
    term

(* --- partition --------------------------------------------------------------- *)

let partition_cmd =
  let model_arg =
    let doc = "Model whose encoder layer to partition (bert-small/base/large, vit-base/large)." in
    Arg.(value & opt string "bert-base" & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let run () obs device model =
    with_obs obs (fun () ->
        match spec_of_name device with
        | Error e -> Error e
        | Ok spec -> (
          let cfg =
            match String.lowercase_ascii model with
            | "bert-small" -> Ok Mcf_workloads.Configs.bert_small
            | "bert-base" -> Ok Mcf_workloads.Configs.bert_base
            | "bert-large" -> Ok Mcf_workloads.Configs.bert_large
            | "vit-base" -> Ok Mcf_workloads.Configs.vit_base
            | "vit-large" -> Ok Mcf_workloads.Configs.vit_large
            | other -> Error (`Msg (Printf.sprintf "unknown model %S" other))
          in
          match cfg with
          | Error e -> Error e
          | Ok cfg ->
            let g = Mcf_frontend.Opgraph.bert_layer cfg in
            Printf.printf "# imported operator graph (one encoder layer)\n";
            print_string (Mcf_frontend.Opgraph.to_string g);
            let g', r = Mcf_frontend.Opgraph.partition spec g in
            Printf.printf "\n# after MBCI partitioning\n";
            print_string (Mcf_frontend.Opgraph.to_string g');
            Printf.printf
              "\nfused %d attention pattern(s), %d plain chain(s); rejected %d \
               compute-bound candidate chain(s)\n"
              r.fused_attention r.fused_chains r.rejected_compute_bound;
            Ok ()))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ device_arg
                       $ model_arg))
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Show the graph partitioner segmenting a model into MBCI \
             sub-graphs")
    term

(* --- schedule ------------------------------------------------------------ *)

let schedule_cmd =
  let run () obs device workload =
    with_obs obs (fun () ->
        with_setup device workload (fun spec chain ->
            match Mcf_search.Tuner.tune spec chain with
            | Error Mcf_search.Tuner.No_viable_candidate ->
              Error (`Msg "no viable candidate")
            | Ok o ->
              Printf.printf "# tiling expression pseudo-code (Fig. 4 style)\n";
              print_string (Mcf_search.Tuner.pseudo_code o);
              Printf.printf "\n# generated Triton kernel\n";
              print_string (Mcf_search.Tuner.triton_source o);
              Printf.printf "\n# launch stub\n";
              print_string
                (Mcf_codegen.Emit.launch_stub
                   (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best)));
              Printf.printf "\n# TIR view (SV-B round trip)\n";
              print_string
                (Mcf_ir.Tir.pretty
                   (Mcf_ir.Tir.of_candidate chain o.best.cand));
              Ok ()))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ device_arg
                       $ workload_arg))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Print pseudo-code and Triton source")
    term

(* --- compare ------------------------------------------------------------- *)

let compare_cmd =
  let run () obs device workload =
    with_obs obs (fun () ->
        with_setup device workload (fun spec chain ->
            let backends =
              [ Mcf_baselines.Pytorch.backend;
                Mcf_baselines.Relay.backend;
                Mcf_baselines.Ansor.backend;
                Mcf_baselines.Bolt.backend;
                Mcf_baselines.Flash_attention.backend;
                Mcf_baselines.Chimera.backend;
                Mcf_baselines.Mcfuser_backend.backend ]
            in
            let tbl =
              Mcf_util.Table.create
                ~headers:[ "backend"; "time"; "tuning (virtual)"; "note" ]
            in
            List.iter
              (fun (b : Mcf_baselines.Backend.t) ->
                match b.tune spec chain with
                | Error (Mcf_baselines.Backend.Unsupported msg) ->
                  Mcf_util.Table.add_row tbl [ b.name; "-"; "-"; msg ]
                | Ok o ->
                  Mcf_util.Table.add_row tbl
                    [ b.name;
                      Mcf_util.Table.fmt_time_s o.time_s;
                      Mcf_util.Table.fmt_time_s o.tuning_virtual_s;
                      (match o.note with
                      | Some n -> n
                      | None -> if o.fused then "fused" else "unfused") ])
              backends;
            print_string (Mcf_util.Table.render tbl);
            Ok ()))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ device_arg
                       $ workload_arg))
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run every backend on one workload") term

(* --- experiment ---------------------------------------------------------- *)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id (fig2, fig7, fig8a-d, fig9, fig10, fig11, tab4, ablation)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run () obs id =
    with_obs obs (fun () ->
        match Mcf_experiments.Registry.find id with
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown experiment %S (available: %s)" id
                 (String.concat ", " (Mcf_experiments.Registry.ids ()))))
        | Some e ->
          print_string (e.run ());
          Ok ())
  in
  let term = Term.(term_result (const run $ setup_term $ obs_term $ id_arg)) in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one paper table/figure")
    term

(* --- workloads ----------------------------------------------------------- *)

let workloads_cmd =
  let run () obs =
    with_obs obs (fun () ->
        let tbl =
          Mcf_util.Table.create
            ~headers:[ "name"; "kind"; "batch/heads"; "M"; "N"; "K"; "H"; "network" ]
        in
        List.iter
          (fun (g : Mcf_workloads.Configs.gemm_config) ->
            Mcf_util.Table.add_row tbl
              [ g.gname; "GEMM chain"; string_of_int g.gbatch; string_of_int g.gm;
                string_of_int g.gn; string_of_int g.gk; string_of_int g.gh; "-" ])
          Mcf_workloads.Configs.gemm_chains;
        Mcf_util.Table.add_rule tbl;
        List.iter
          (fun (s : Mcf_workloads.Configs.attention_config) ->
            Mcf_util.Table.add_row tbl
              [ s.sname; "self-attention"; string_of_int s.heads;
                string_of_int s.sm; string_of_int s.sn; string_of_int s.sk;
                string_of_int s.sh; s.network ])
          Mcf_workloads.Configs.attentions;
        Mcf_util.Table.add_rule tbl;
        List.iter
          (fun (d : Mcf_workloads.Configs.deep_config) ->
            Mcf_util.Table.add_row tbl
              [ d.dname; "deep chain"; string_of_int d.dbatch;
                string_of_int d.dm; string_of_int d.ddim;
                string_of_int d.ddim; string_of_int d.ddim;
                Printf.sprintf "%d blocks" d.dblocks ])
          Mcf_workloads.Configs.deep_chains;
        print_string (Mcf_util.Table.render tbl);
        Ok ())
  in
  let term = Term.(term_result (const run $ setup_term $ obs_term)) in
  Cmd.v (Cmd.info "workloads" ~doc:"List the built-in workloads") term

(* --- verify -------------------------------------------------------------- *)

let verify_cmd =
  let run () obs device workload =
    with_obs obs (fun () ->
        with_setup device workload (fun spec chain ->
            (* Scale the chain down so the reference interpreter stays fast,
               keeping the structure (same axes, same epilogues). *)
            let small (a : Mcf_ir.Axis.t) = min a.size 96 in
            let chain =
              match Mcf_workloads.Configs.find_deep workload with
              | Some d ->
                (* Deep chains: shrink every dimension but keep the block
                   count, so the streamed enumeration still faces the full
                   (blocks + 2)! structural space. *)
                Mcf_workloads.Configs.deep_chain
                  { d with dm = min d.dm 96; ddim = min d.ddim 64 }
              | None ->
              match chain.Mcf_ir.Chain.blocks with
              | [ _; b2 ]
                when b2.Mcf_ir.Chain.epilogue = Mcf_ir.Chain.No_epilogue ->
                Mcf_ir.Chain.gemm_chain
                  ~m:(small (Mcf_ir.Chain.axis chain "m"))
                  ~n:(small (Mcf_ir.Chain.axis chain "n"))
                  ~k:(small (Mcf_ir.Chain.axis chain "k"))
                  ~h:(small (Mcf_ir.Chain.axis chain "h"))
                  ()
              | _ ->
                Mcf_ir.Chain.attention
                  ~m:(small (Mcf_ir.Chain.axis chain "m"))
                  ~n:(small (Mcf_ir.Chain.axis chain "n"))
                  ~k:(small (Mcf_ir.Chain.axis chain "k"))
                  ~h:(small (Mcf_ir.Chain.axis chain "h"))
                  ()
            in
            match Mcf_search.Tuner.tune spec chain with
            | Error Mcf_search.Tuner.No_viable_candidate ->
              Error (`Msg "no viable candidate")
            | Ok o ->
              let rng = Mcf_util.Rng.create 7 in
              let inputs =
                List.map
                  (fun (ts : Mcf_ir.Chain.tensor_spec) ->
                    let shape =
                      Array.of_list
                        (List.map (fun (a : Mcf_ir.Axis.t) -> a.size) ts.taxes)
                    in
                    (ts.tname, Mcf_tensor.Tensor.random rng shape))
                  (Mcf_ir.Chain.input_tensors chain)
              in
              let got =
                Mcf_interp.Interp.run ~inputs
                  (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best))
              in
              let want = Mcf_interp.Interp.reference chain ~inputs in
              let diff = Mcf_tensor.Tensor.max_abs_diff got want in
              Printf.printf
                "schedule %s\nmax |fused - reference| = %.3g  ->  %s\n"
                (Mcf_ir.Candidate.to_string o.best.cand)
                diff
                (if Mcf_tensor.Tensor.approx_equal ~tol:1e-3 got want then
                   "PASS"
                 else "FAIL");
              Ok ()))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ device_arg
                       $ workload_arg))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Numerically verify a tuned schedule on a scaled-down instance")
    term

(* --- fuzz ---------------------------------------------------------------- *)

let fuzz_cmd =
  let seed_arg =
    let doc = "Fuzzing seed; the whole run is a pure function of it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Virtual-time budget in seconds, charged from each case's \
       deterministic work estimate (not the wall clock) — a given \
       seed/budget runs the same cases on every machine."
    in
    Arg.(value & opt float 5.0 & info [ "budget-s" ] ~docv:"S" ~doc)
  in
  let cases_arg =
    let doc = "Stop after $(docv) cases (whichever of this and the budget \
               comes first)." in
    Arg.(value & opt (some int) None & info [ "cases" ] ~docv:"N" ~doc)
  in
  let oracle_arg =
    let doc =
      "Run only this oracle (repeatable; default: all).  See \
       $(b,--list-oracles)."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let corpus_arg =
    let doc =
      "Directory minimized failing cases are appended to as replayable \
       case files."
    in
    Arg.(value & opt string "test/corpus"
         & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let no_corpus_arg =
    let doc = "Do not write corpus files on failure." in
    Arg.(value & flag & info [ "no-corpus" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a corpus case file through its recorded oracle instead of \
       fuzzing."
    in
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let list_arg =
    let doc = "List the available oracles and exit." in
    Arg.(value & flag & info [ "list-oracles" ] ~doc)
  in
  let run () obs seed budget_s cases oracle_names corpus no_corpus
      replay list_oracles =
    if list_oracles then begin
      List.iter
        (fun (o : Mcf_fuzz.Oracle.t) ->
          Printf.printf "%-13s %s%s\n" o.name o.doc
            (if o.every > 1 then Printf.sprintf " (every %d cases)" o.every
             else ""))
        Mcf_fuzz.Oracle.all;
      Ok ()
    end
    else
      match replay with
      | Some path ->
        with_obs obs (fun () ->
            match Mcf_fuzz.Corpus.load path with
            | Error e -> Error (`Msg e)
            | Ok entry -> (
              Printf.printf "replay %s: oracle %s, %s\n" path
                entry.Mcf_fuzz.Corpus.oracle
                (Mcf_fuzz.Gen.case_to_string entry.Mcf_fuzz.Corpus.case);
              match Mcf_fuzz.Driver.replay entry with
              | Ok `Pass ->
                print_endline "replay: PASS";
                Ok ()
              | Ok (`Skip m) ->
                Printf.printf "replay: SKIP (%s)\n" m;
                Ok ()
              | Error m -> Error (`Msg ("replay still fails: " ^ m))))
      | None -> (
        let oracles_r =
          match oracle_names with
          | [] -> Ok Mcf_fuzz.Oracle.all
          | names ->
            List.fold_right
              (fun n acc ->
                match (acc, Mcf_fuzz.Oracle.by_name n) with
                | (Error _ as e), _ -> e
                | Ok _, None ->
                  Error
                    (`Msg
                      (Printf.sprintf "unknown oracle %S (available: %s)" n
                         (String.concat ", " (Mcf_fuzz.Oracle.names ()))))
                | Ok os, Some o -> Ok (o :: os))
              names (Ok [])
        in
        match oracles_r with
        | Error _ as e -> e
        | Ok oracles ->
          with_obs obs (fun () ->
              let outcome =
                Mcf_fuzz.Driver.run ~seed ~budget_s
                  ?max_cases:cases ~oracles
                  ?corpus_dir:(if no_corpus then None else Some corpus)
                  ()
              in
              print_string (Mcf_fuzz.Driver.render_summary outcome);
              if outcome.Mcf_fuzz.Driver.failures = [] then Ok ()
              else Error (`Msg "fuzzing found failures (corpus updated)")))
  in
  let term =
    Term.(term_result (const run $ setup_term $ obs_term $ seed_arg
                       $ budget_arg $ cases_arg $ oracle_arg $ corpus_arg
                       $ no_corpus_arg $ replay_arg $ list_arg))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz the whole pipeline on random MBCI chains")
    term

(* --- report -------------------------------------------------------------- *)

let report_cmd =
  let files_arg =
    let doc =
      "Recording file(s) written by $(b,--record): one file to render its \
       post-mortem, two with $(b,--diff) to compare them."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let diff_arg =
    let doc =
      "Compare two recordings: funnel drift, model-fidelity drift, \
       best-measured-time and peak-heap regression, and per-phase \
       wall-time drift (informational).  Exits non-zero when the best \
       time or the peak heap regresses beyond $(b,--tolerance), so it \
       can gate CI."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let tolerance_arg =
    let doc = "Relative best-time regression tolerance for $(b,--diff)." in
    Arg.(value & opt float 0.05 & info [ "tolerance" ] ~docv:"FRAC" ~doc)
  in
  let load path =
    match Mcf_obs.Recorder.load path with
    | Error e -> Error (`Msg e)
    | Ok [] -> Error (`Msg (path ^ ": empty recording"))
    | Ok events -> Ok events
  in
  let run () do_diff tolerance files =
    match (do_diff, files) with
    | false, [ path ] -> (
      match load path with
      | Error _ as e -> e
      | Ok events -> (
        match Mcf_obs.Report.render events with
        | Error e -> Error (`Msg (path ^ ": " ^ e))
        | Ok s ->
          print_string s;
          Ok ()))
    | true, [ a; b ] -> (
      match (load a, load b) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok ea, Ok eb -> (
        match Mcf_obs.Report.diff ~tolerance ea eb with
        | Error e -> Error (`Msg e)
        | Ok d ->
          print_string d.dreport;
          if d.regression then
            Error (`Msg "best measured time regressed beyond tolerance")
          else if d.heap_regression then
            Error (`Msg "peak heap regressed beyond tolerance")
          else Ok ()))
    | false, _ ->
      Error (`Msg "report expects exactly one FILE (or two with --diff)")
    | true, _ -> Error (`Msg "report --diff expects exactly two FILEs")
  in
  let term =
    Term.(term_result (const run $ setup_term $ diff_arg $ tolerance_arg
                       $ files_arg))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a search flight recording, or diff two as a CI gate")
    term

(* --- perf ---------------------------------------------------------------- *)

let perf_cmd =
  let history_arg =
    let doc =
      "Performance-history file (JSONL, one entry per bench workload per \
       run; bench runs append with $(b,--history))."
    in
    Arg.(value & opt string "BENCH_history.jsonl"
         & info [ "history" ] ~docv:"FILE" ~doc)
  in
  let workload_arg =
    let doc = "Only show this workload's trends." in
    Arg.(value & opt (some string) None
         & info [ "workload" ] ~docv:"NAME" ~doc)
  in
  let gate_arg =
    let doc =
      "Regression gate: compare each workload's newest entry against the \
       robust baseline (median + MAD over the trailing $(b,--window) \
       runs recorded with the same core count) and exit non-zero on any \
       regression beyond $(b,--tolerance)."
    in
    Arg.(value & flag & info [ "gate" ] ~doc)
  in
  let tolerance_arg =
    let doc = "Relative regression tolerance for $(b,--gate)." in
    Arg.(value & opt float 0.05 & info [ "tolerance" ] ~docv:"FRAC" ~doc)
  in
  let window_arg =
    let doc = "Baseline window: number of trailing runs the median and MAD \
               are computed over." in
    Arg.(value & opt int 10 & info [ "window" ] ~docv:"N" ~doc)
  in
  let run () history workload gate tolerance window =
    (* The loader warns about malformed lines itself. *)
    let entries, _ = Mcf_obs.History.load history in
    if gate then begin
      let verdicts = Mcf_obs.History.gate ~window ~tolerance entries in
      print_string (Mcf_obs.History.render_gate ~tolerance entries verdicts);
      if List.exists (fun v -> v.Mcf_obs.History.regressed) verdicts then
        Error (`Msg "performance regressed beyond tolerance")
      else Ok ()
    end
    else begin
      print_string (Mcf_obs.History.render ?workload entries);
      Ok ()
    end
  in
  let term =
    Term.(term_result (const run $ setup_term $ history_arg $ workload_arg
                       $ gate_arg $ tolerance_arg $ window_arg))
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Render cross-run performance trends, or gate on regressions")
    term

(* --- top ------------------------------------------------------------------ *)

let jget j path =
  List.fold_left
    (fun acc k ->
      match acc with Some j -> Mcf_util.Json.member k j | None -> None)
    (Some j) path

let jnum j path =
  match jget j path with Some (Mcf_util.Json.Num v) -> v | _ -> 0.0

let jstr j path =
  match jget j path with Some (Mcf_util.Json.Str s) -> s | _ -> ""

(* One dashboard frame.  Every figure comes from the [/status] document
   (and the previous poll's document, for rates) — never from the local
   clock — so rendering is deterministic for fixed inputs and the cram
   test can pin a frame byte-for-byte. *)
let top_frame ~source ~poll ~prev ~heaps status =
  let num path = jnum status path in
  let buf = Buffer.create 512 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  add "mcfuser top - %s (poll %d)" source poll;
  add "";
  let phase = match jstr status [ "phase" ] with "" -> "(idle)" | p -> p in
  let info = jstr status [ "info" ] in
  add "phase     %s%s" phase (if info = "" then "" else " | " ^ info);
  let max_gen = num [ "generation"; "max_gen" ] in
  (if max_gen > 0.0 then begin
     let eta =
       match jget status [ "generation"; "eta_s" ] with
       | Some (Mcf_util.Json.Num v) -> Printf.sprintf ", ETA %.1fs" v
       | _ -> ""
     in
     add "progress  gen %.0f/%.0f, %.0f measured%s, elapsed %.1fs"
       (num [ "generation"; "gen" ])
       max_gen
       (num [ "generation"; "measured" ])
       eta
       (num [ "elapsed_s" ])
   end
   else add "progress  elapsed %.1fs" (num [ "elapsed_s" ]));
  (match prev with
  | Some (t0, prev_status) when num [ "server"; "time" ] -. t0 > 0.0 ->
    let dt = num [ "server"; "time" ] -. t0 in
    let rate path = (num path -. jnum prev_status path) /. dt in
    add "rates     valid %.1f/s, estimates %.1f/s, measures %.1f/s"
      (rate [ "funnel"; "candidates_valid" ])
      (rate [ "funnel"; "estimated" ])
      (rate [ "funnel"; "measured" ])
  | Some _ | None -> add "rates     -");
  add "heap      %.1f Mw (peak %.1f Mw), alloc %.1f Mw/s  %s"
    (num [ "rsrc"; "heap_words" ] /. 1e6)
    (num [ "rsrc"; "heap_words_peak" ] /. 1e6)
    (num [ "rsrc"; "alloc_words_per_s" ] /. 1e6)
    (Mcf_util.Chart.sparkline heaps);
  add "pool      busy %.0f/%.0f domains, %.0f%% utilization"
    (num [ "pool"; "busy" ])
    (num [ "pool"; "domains" ])
    (num [ "pool"; "utilization" ] *. 100.0);
  let cache_cell name h m =
    let tot = h +. m in
    if tot <= 0.0 then Printf.sprintf "%s -" name
    else Printf.sprintf "%s %.0f%% (%.0f/%.0f)" name (h /. tot *. 100.0) h tot
  in
  add "caches    %s, %s, %s"
    (cache_cell "measure"
       (num [ "caches"; "measure"; "hits" ])
       (num [ "caches"; "measure"; "misses" ]))
    (cache_cell "schedule"
       (num [ "caches"; "schedule"; "hits" ])
       (num [ "caches"; "schedule"; "misses" ]))
    (cache_cell "memo"
       (num [ "caches"; "model_memo"; "hits" ])
       (num [ "caches"; "model_memo"; "misses" ]));
  add "funnel    enum %.0f, raw %.0f, lowered %.0f, valid %.0f, estimated \
       %.0f, measured %.0f"
    (num [ "funnel"; "enumerations" ])
    (num [ "funnel"; "tilings_raw" ])
    (num [ "funnel"; "candidates_lowered" ])
    (num [ "funnel"; "candidates_valid" ])
    (num [ "funnel"; "estimated" ])
    (num [ "funnel"; "measured" ]);
  Buffer.contents buf

let top_cmd =
  let url_arg =
    let doc =
      "Telemetry URL of a running mcfuser process — the address printed by \
       $(b,--listen), e.g. http://127.0.0.1:9464.  Optional with \
       $(b,--status-file)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"URL" ~doc)
  in
  let once_arg =
    let doc = "Render a single frame and exit (no screen clearing)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let interval_arg =
    let doc = "Polling interval in milliseconds." in
    Arg.(value & opt float 1000.0 & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let raw_arg =
    let doc =
      "Print the raw $(b,/status) JSON and $(b,/metrics) exposition instead \
       of the dashboard."
    in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let status_file_arg =
    let doc =
      "Render from a saved $(b,/status) JSON document instead of polling a \
       live server (implies $(b,--once); used by the cram tests)."
    in
    Arg.(value & opt (some string) None
         & info [ "status-file" ] ~docv:"FILE" ~doc)
  in
  let metrics_file_arg =
    let doc =
      "With $(b,--status-file): also validate a saved $(b,/metrics) \
       exposition before rendering."
    in
    Arg.(value & opt (some string) None
         & info [ "metrics-file" ] ~docv:"FILE" ~doc)
  in
  let read_file path =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error e -> Error (`Msg e)
  in
  let run () url once interval_ms raw status_file metrics_file =
    match status_file with
    | Some path -> (
      (* Offline mode: deterministic rendering from saved documents. *)
      match read_file path with
      | Error _ as e -> e
      | Ok text -> (
        match Mcf_util.Json.parse (String.trim text) with
        | Error e -> Error (`Msg (path ^ ": " ^ e))
        | Ok status -> (
          let metrics_check =
            match metrics_file with
            | None -> Ok ()
            | Some mpath -> (
              match read_file mpath with
              | Error _ as e -> e
              | Ok mtext -> (
                match Mcf_obs.Export.validate_metrics_text mtext with
                | Error e -> Error (`Msg (mpath ^ ": " ^ e))
                | Ok () -> Ok ()))
          in
          match metrics_check with
          | Error _ as e -> e
          | Ok () ->
            if raw then print_string (Mcf_util.Json.to_string status ^ "\n")
            else
              print_string
                (top_frame ~source:path ~poll:1 ~prev:None
                   ~heaps:[ jnum status [ "rsrc"; "heap_words" ] ]
                   status);
            Ok ())))
    | None -> (
      match url with
      | None ->
        Error (`Msg "URL required (or render offline with --status-file)")
      | Some url ->
        let url =
          let u =
            if String.length url >= 7 && String.sub url 0 7 = "http://" then
              url
            else "http://" ^ url
          in
          if u.[String.length u - 1] = '/' then
            String.sub u 0 (String.length u - 1)
          else u
        in
        let fetch () =
          match Mcf_util.Httpd.Client.get (url ^ "/status") with
          | Error _ as e -> e
          | Ok (status, _) when status <> 200 ->
            Error (Printf.sprintf "/status: HTTP %d" status)
          | Ok (_, body) -> (
            match Mcf_util.Json.parse (String.trim body) with
            | Error e -> Error ("/status: " ^ e)
            | Ok status -> (
              match Mcf_util.Httpd.Client.get (url ^ "/metrics") with
              | Error _ as e -> e
              | Ok (200, text) -> (
                match Mcf_obs.Export.validate_metrics_text text with
                | Error e -> Error ("/metrics: " ^ e)
                | Ok () -> Ok (status, text))
              | Ok (code, _) -> Error (Printf.sprintf "/metrics: HTTP %d" code)))
        in
        let interval_s = Float.max 0.05 (interval_ms /. 1000.0) in
        let clear () =
          if Unix.isatty Unix.stdout then print_string "\027[H\027[2J"
        in
        let rec loop n prev heaps =
          match fetch () with
          | Error e ->
            if n = 0 then Error (`Msg e)
            else begin
              (* The tune we were watching finished and took its listener
                 with it: a clean exit, not an error. *)
              Printf.printf "top: server went away (%s)\n%!" e;
              Ok ()
            end
          | Ok (status, metrics_text) ->
            let heaps = heaps @ [ jnum status [ "rsrc"; "heap_words" ] ] in
            if raw then begin
              print_string (Mcf_util.Json.to_string status ^ "\n");
              print_string metrics_text
            end
            else begin
              if not once then clear ();
              print_string
                (top_frame ~source:url ~poll:(n + 1) ~prev ~heaps status)
            end;
            flush stdout;
            if once then Ok ()
            else begin
              Thread.delay interval_s;
              loop (n + 1)
                (Some (jnum status [ "server"; "time" ], status))
                heaps
            end
        in
        loop 0 None [])
  in
  let term =
    Term.(term_result (const run $ setup_term $ url_arg $ once_arg
                       $ interval_arg $ raw_arg $ status_file_arg
                       $ metrics_file_arg))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal dashboard for a running tune's telemetry endpoint")
    term

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let listen_arg =
    let doc =
      "Listen address, $(b,ADDR:PORT) ($(b,PORT) alone means 127.0.0.1; \
       port 0 asks the kernel — pair with $(b,--port-file))."
    in
    Arg.(value & opt string "127.0.0.1:0"
         & info [ "listen" ] ~docv:"ADDR:PORT" ~doc)
  in
  let workers_arg =
    let doc = "Concurrent tuner sessions (worker threads)." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let schedule_cache_arg =
    let doc =
      "Schedule-cache file (JSONL): warm-start served schedules from \
       $(docv) and persist the cache back on graceful shutdown."
    in
    Arg.(value & opt (some string) None
         & info [ "schedule-cache" ] ~docv:"FILE" ~doc)
  in
  let measure_cache_arg =
    let doc =
      "Measurement-cache file (JSONL): warm-start the per-candidate \
       measurement cache shared by all sessions, persist on shutdown."
    in
    Arg.(value & opt (some string) None
         & info [ "measure-cache" ] ~docv:"FILE" ~doc)
  in
  let port_file_arg =
    let doc =
      "Write the daemon's bound URL to $(docv) once listening (how \
       scripts discover a kernel-assigned port)."
    in
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE" ~doc)
  in
  let read_timeout_arg =
    let doc = "Per-connection receive timeout in seconds." in
    Arg.(value & opt float 5.0 & info [ "read-timeout-s" ] ~docv:"S" ~doc)
  in
  let max_body_arg =
    let doc = "Largest accepted request body in bytes (413 beyond)." in
    Arg.(value & opt int (1024 * 1024)
         & info [ "max-body-bytes" ] ~docv:"N" ~doc)
  in
  let run () obs listen workers schedule_cache measure_cache port_file
      read_timeout_s max_body_bytes =
    with_obs obs (fun () ->
        match Mcf_obs.Export.parse_listen listen with
        | Error e -> Error (`Msg e)
        | Ok (addr, port) -> (
          let config =
            { Mcf_serve.Server.default_config with
              addr;
              port;
              workers;
              read_timeout_s;
              max_body_bytes;
              schedule_cache_file = schedule_cache;
              measure_cache_file = measure_cache }
          in
          match Mcf_serve.Server.start ~config () with
          | Error e -> Error (`Msg e)
          | Ok t ->
            Printf.printf "serve: listening on %s (POST /tune, GET /jobs)\n%!"
              (Mcf_serve.Server.url t);
            Option.iter
              (fun path ->
                Mcf_util.Json.write_atomic path (fun oc ->
                    output_string oc (Mcf_serve.Server.url t);
                    output_char oc '\n'))
              port_file;
            let on_signal _ = Mcf_serve.Server.request_shutdown t in
            (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
             with Invalid_argument _ | Sys_error _ -> ());
            (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
             with Invalid_argument _ | Sys_error _ -> ());
            Mcf_serve.Server.wait_shutdown t;
            Printf.printf "serve: shutdown requested, draining\n%!";
            Mcf_serve.Server.stop t;
            let vs = Mcf_serve.Server.jobs t in
            let count src =
              List.length
                (List.filter
                   (fun (v : Mcf_serve.Server.job_view) -> v.vsource = src)
                   vs)
            in
            Printf.printf
              "serve: drained; %d jobs (%d tuned, %d cached, %d coalesced); \
               schedule cache: %d entries\n%!"
              (List.length vs)
              (count Mcf_serve.Server.Tuned)
              (count Mcf_serve.Server.Cached)
              (count Mcf_serve.Server.Coalesced)
              (Mcf_serve.Server.cache_size t);
            Ok ()))
  in
  let term =
    Term.(
      term_result
        (const run $ setup_term $ obs_term_gen ~listener:false $ listen_arg
        $ workers_arg $ schedule_cache_arg $ measure_cache_arg
        $ port_file_arg $ read_timeout_arg $ max_body_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the tuning-as-a-service daemon (POST /tune, GET /jobs/:id, \
             coalesced sessions, sharded schedule cache)")
    term

(* --- submit ---------------------------------------------------------------- *)

let submit_cmd =
  let url_arg =
    let doc =
      "Base URL of a running $(b,mcfuser serve) daemon, e.g. \
       http://127.0.0.1:9464."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"URL" ~doc)
  in
  let workload_arg =
    let doc = "Workload to tune (G1-G12, S1-S9, D5-D8, network names)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let seed_arg =
    let doc = "Tuner seed (default: derived from chain name + device)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let reservoir_arg =
    let doc = "Enumeration reservoir bound forwarded to the daemon." in
    Arg.(value & opt (some int) None & info [ "reservoir" ] ~docv:"N" ~doc)
  in
  let poll_ms_arg =
    let doc = "Polling interval while waiting for the job, milliseconds." in
    Arg.(value & opt float 50.0 & info [ "poll-ms" ] ~docv:"MS" ~doc)
  in
  let no_wait_arg =
    let doc = "Submit and print the job id without waiting for the result." in
    Arg.(value & flag & info [ "no-wait" ] ~doc)
  in
  let list_arg =
    let doc = "List the daemon's job queue ($(b,GET /jobs)) and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let selfcheck_arg =
    let doc =
      "Probe $(b,/healthz), $(b,/status) and $(b,/metrics) on the daemon \
       and validate them, then exit."
    in
    Arg.(value & flag & info [ "selfcheck" ] ~doc)
  in
  let shutdown_arg =
    let doc = "Request a graceful drain ($(b,POST /shutdown)) and exit." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let normalize_url url =
    let u =
      if String.length url >= 7 && String.sub url 0 7 = "http://" then url
      else "http://" ^ url
    in
    if u.[String.length u - 1] = '/' then String.sub u 0 (String.length u - 1)
    else u
  in
  let source_human = function
    | "cached" -> "cache hit"
    | s -> s
  in
  let print_result job =
    let state = jstr job [ "state" ] in
    Printf.printf "job       %s %s (%s)\n" (jstr job [ "job" ]) state
      (source_human (jstr job [ "source" ]));
    Printf.printf "workload  %s on %s\n"
      (jstr job [ "workload" ])
      (jstr job [ "device" ]);
    match state with
    | "done" -> (
      match
        Option.bind (jget job [ "result" ]) Mcf_serve.Protocol.sched_of_json
      with
      | Some sched ->
        print_sched sched;
        Ok ()
      | None -> Error (`Msg "malformed result in a done job"))
    | "failed" -> Error (`Msg (jstr job [ "error" ]))
    | _ -> Ok ()
  in
  let parse_json body =
    match Mcf_util.Json.parse (String.trim body) with
    | Ok j -> Ok j
    | Error e -> Error (`Msg ("invalid response JSON: " ^ e))
  in
  let run () url workload device seed reservoir poll_ms no_wait list
      selfcheck shutdown =
    let url = normalize_url url in
    if selfcheck then
      match Mcf_obs.Export.selfcheck_url url with
      | Ok () ->
        Printf.printf "selfcheck ok: %s (healthz, status, metrics)\n" url;
        Ok ()
      | Error e -> Error (`Msg ("selfcheck: " ^ e))
    else if shutdown then
      match Mcf_util.Httpd.Client.post (url ^ "/shutdown") ~body:"{}" with
      | Ok (202, _) ->
        Printf.printf "shutdown requested\n";
        Ok ()
      | Ok (code, body) ->
        Error (`Msg (Printf.sprintf "POST /shutdown: HTTP %d %s" code body))
      | Error e -> Error (`Msg ("POST /shutdown: " ^ e))
    else if list then
      match Mcf_util.Httpd.Client.get (url ^ "/jobs") with
      | Error e -> Error (`Msg ("GET /jobs: " ^ e))
      | Ok (code, body) when code <> 200 ->
        Error (`Msg (Printf.sprintf "GET /jobs: HTTP %d %s" code body))
      | Ok (_, body) -> (
        match parse_json body with
        | Error _ as e -> e
        | Ok doc ->
          (match jget doc [ "jobs" ] with
          | Some (Mcf_util.Json.List jobs) ->
            List.iter
              (fun job ->
                Printf.printf "%-6s %-8s %-10s %s on %s\n"
                  (jstr job [ "job" ])
                  (jstr job [ "state" ])
                  (source_human (jstr job [ "source" ]))
                  (jstr job [ "workload" ])
                  (jstr job [ "device" ]))
              jobs
          | _ -> ());
          Printf.printf
            "counts    %.0f queued, %.0f running, %.0f done, %.0f failed\n"
            (jnum doc [ "counts"; "queued" ])
            (jnum doc [ "counts"; "running" ])
            (jnum doc [ "counts"; "done" ])
            (jnum doc [ "counts"; "failed" ]);
          Ok ())
    else
      match workload with
      | None ->
        Error
          (`Msg
            "WORKLOAD required (or use --list, --selfcheck or --shutdown)")
      | Some workload -> (
        let body =
          Mcf_util.Json.to_string
            (Mcf_util.Json.Obj
               ([ ("workload", Mcf_util.Json.Str workload);
                  ("device", Mcf_util.Json.Str device);
                ]
               @ (match seed with
                 | Some s -> [ ("seed", Mcf_util.Json.num_of_int s) ]
                 | None -> [])
               @
               match reservoir with
               | Some r -> [ ("reservoir", Mcf_util.Json.num_of_int r) ]
               | None -> []))
        in
        match Mcf_util.Httpd.Client.post (url ^ "/tune") ~body with
        | Error e -> Error (`Msg ("POST /tune: " ^ e))
        | Ok (code, body) when code <> 200 && code <> 202 ->
          Error (`Msg (Printf.sprintf "POST /tune: HTTP %d %s" code body))
        | Ok (_, body) -> (
          match parse_json body with
          | Error _ as e -> e
          | Ok job -> (
            let jid = jstr job [ "job" ] in
            if no_wait then begin
              Printf.printf "job       %s %s (%s)\n" jid
                (jstr job [ "state" ])
                (source_human (jstr job [ "source" ]));
              Ok ()
            end
            else
              let rec poll job =
                match jstr job [ "state" ] with
                | "done" | "failed" -> print_result job
                | _ -> (
                  Thread.delay (Float.max 0.01 (poll_ms /. 1000.0));
                  match
                    Mcf_util.Httpd.Client.get (url ^ "/jobs/" ^ jid)
                  with
                  | Error e -> Error (`Msg ("GET /jobs/" ^ jid ^ ": " ^ e))
                  | Ok (code, body) when code <> 200 ->
                    Error
                      (`Msg
                        (Printf.sprintf "GET /jobs/%s: HTTP %d %s" jid code
                           body))
                  | Ok (_, body) -> (
                    match parse_json body with
                    | Error _ as e -> e
                    | Ok job -> poll job))
              in
              poll job)))
  in
  let term =
    Term.(
      term_result
        (const run $ setup_term $ url_arg $ workload_arg $ device_arg
        $ seed_arg $ reservoir_arg $ poll_ms_arg $ no_wait_arg $ list_arg
        $ selfcheck_arg $ shutdown_arg))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a tuning request to a running mcfuser serve daemon and \
             wait for the schedule")
    term

let () =
  let info =
    Cmd.info "mcfuser" ~version:"1.0.0"
      ~doc:"MCFuser reproduction: fusion of memory-bound compute-intensive \
            operator chains"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ tune_cmd; chain_cmd; schedule_cmd; dot_cmd; explain_cmd;
            compare_cmd; partition_cmd; experiment_cmd; workloads_cmd;
            verify_cmd; fuzz_cmd; report_cmd; perf_cmd; top_cmd; serve_cmd;
            submit_cmd ]))
