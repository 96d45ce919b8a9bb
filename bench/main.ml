(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (one experiment per artifact, see DESIGN.md), then
   runs Bechamel micro-benchmarks of the compiler machinery itself.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --list       # available experiments
     dune exec bench/main.exe -- --only fig8a,fig11
     dune exec bench/main.exe -- --quick      # reduced Ansor trial budget
     dune exec bench/main.exe -- --no-micro   # skip the Bechamel suite
     dune exec bench/main.exe -- --trace FILE # Chrome trace of the run
     dune exec bench/main.exe -- --record FILE  # search flight recording
     dune exec bench/main.exe -- --metrics FILE # metrics registry as JSON
     dune exec bench/main.exe -- --profile    # phase table + metrics dump

   Search-throughput mode (the tuner's hot path, see `make bench-search`):
     dune exec bench/main.exe -- --mode search --out BENCH_search.json
     dune exec bench/main.exe -- --mode search --jobs 4 --smoke
     dune exec bench/main.exe -- --mode search --smoke --estimate-only
     dune exec bench/main.exe -- --mode search --smoke --measure-only
     dune exec bench/main.exe -- --sample-ms 5      # resource telemetry
     dune exec bench/main.exe -- --mode search --history BENCH_history.jsonl
                                              # append per-workload entries
                                              # for `mcfuser perf` *)

let hr = String.make 78 '='

let run_experiments ids =
  List.iter
    (fun id ->
      match Mcf_experiments.Registry.find id with
      | None ->
        Printf.printf "unknown experiment %S; use --list\n" id;
        exit 1
      | Some e ->
        Printf.printf "%s\n[%s] %s\n%s\n%!" hr e.id e.description hr;
        let t0 = Unix.gettimeofday () in
        print_string (e.run ());
        Printf.printf "(experiment wall time: %.1fs)\n\n%!"
          (Unix.gettimeofday () -. t0))
    ids

(* --- Bechamel micro-benchmarks of the compiler itself ------------------- *)

let micro_tests () =
  let open Bechamel in
  let spec = Mcf_gpu.Spec.a100 in
  let chain = Mcf_ir.Chain.gemm_chain ~m:512 ~n:512 ~k:256 ~h:256 () in
  let ax s = Mcf_ir.Chain.axis chain s in
  let cand =
    Mcf_ir.Candidate.make
      (Mcf_ir.Tiling.Deep [ ax "m"; ax "h"; ax "n"; ax "k" ])
      [ ("m", 64); ("n", 64); ("k", 32); ("h", 64) ]
  in
  let lowered = Mcf_ir.Lower.lower ~elem_bytes:2 chain cand in
  let entries, _ = Mcf_search.Space.enumerate spec chain in
  let entry = List.hd entries in
  let kernel =
    match Mcf_codegen.Compile.compile spec lowered with
    | Ok k -> k
    | Error e -> failwith (Mcf_codegen.Compile.string_of_error e)
  in
  let attention =
    Mcf_ir.Chain.attention ~heads:8 ~m:256 ~n:256 ~k:64 ~h:64 ()
  in
  [ Test.make ~name:"lower-candidate"
      (Staged.stage (fun () ->
           ignore (Mcf_ir.Lower.lower ~elem_bytes:2 chain cand)));
    Test.make ~name:"analytical-model-eq2-5"
      (Staged.stage (fun () ->
           ignore (Mcf_model.Perf.estimate spec lowered)));
    Test.make ~name:"shmem-estimate-eq1"
      (Staged.stage (fun () ->
           ignore (Mcf_model.Shmem.estimate_bytes lowered)));
    Test.make ~name:"codegen-alloc"
      (Staged.stage (fun () ->
           ignore (Mcf_codegen.Alloc.actual_bytes spec lowered)));
    Test.make ~name:"simulator-run"
      (Staged.stage (fun () -> ignore (Mcf_gpu.Sim.run spec kernel)));
    Test.make ~name:"compile-candidate"
      (Staged.stage (fun () ->
           ignore (Mcf_codegen.Compile.compile spec (Mcf_search.Space.lowered entry))));
    Test.make ~name:"space-enumerate-G-mid"
      (Staged.stage (fun () ->
           ignore (Mcf_search.Space.enumerate spec chain)));
    Test.make ~name:"tiling-enumeration-attention"
      (Staged.stage (fun () -> ignore (Mcf_ir.Tiling.enumerate attention)));
    (let tiny = Mcf_ir.Chain.gemm_chain ~m:48 ~n:32 ~k:32 ~h:32 () in
     let tax s = Mcf_ir.Chain.axis tiny s in
     let tcand =
       Mcf_ir.Candidate.make
         (Mcf_ir.Tiling.Deep [ tax "m"; tax "h"; tax "n"; tax "k" ])
         [ ("m", 16); ("n", 16); ("k", 16); ("h", 16) ]
     in
     let tprog = Mcf_ir.Program.build tiny tcand in
     let rng = Mcf_util.Rng.create 99 in
     let tinputs =
       List.map
         (fun (ts : Mcf_ir.Chain.tensor_spec) ->
           let shape =
             Array.of_list
               (List.map (fun (a : Mcf_ir.Axis.t) -> a.size) ts.taxes)
           in
           (ts.tname, Mcf_tensor.Tensor.random rng shape))
         (Mcf_ir.Chain.input_tensors tiny)
     in
     Test.make ~name:"interpreter-48x32x32x32"
       (Staged.stage (fun () ->
            ignore (Mcf_interp.Interp.run tprog ~inputs:tinputs)))) ]

let run_micro () =
  let open Bechamel in
  Printf.printf
    "%s\n[micro] Bechamel micro-benchmarks of the compiler machinery\n%s\n%!"
    hr hr;
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let tests = micro_tests () in
  let tbl = Mcf_util.Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:true
              ~responder:"monotonic-clock" ~predictors:[| "run" |]
              raw.Benchmark.lr
          in
          let time_ns =
            match Analyze.OLS.estimates ols with
            | Some (t :: _) -> t
            | Some [] | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols with Some r -> r | None -> nan
          in
          Mcf_util.Table.add_row tbl
            [ Test.Elt.name elt;
              Mcf_util.Table.fmt_time_s (time_ns *. 1e-9);
              Mcf_util.Table.fmt_float ~digits:3 r2 ])
        (Test.elements test))
    tests;
  print_string (Mcf_util.Table.render tbl)

(* --- search-throughput benchmark (--mode search) ------------------------ *)

(* Enumeration + estimation dominate real tuning wall time (codegen and
   the simulator are virtual-clock); this mode measures exactly that hot
   path, per workload and per pool size, and doubles as an end-to-end
   determinism check: the tuner outcome must be bit-identical at every
   jobs setting. *)

let search_workloads ~smoke =
  let gemm name =
    match Mcf_workloads.Configs.find_gemm name with
    | Some g -> (name, Mcf_workloads.Configs.gemm_chain g)
    | None -> failwith ("unknown gemm workload " ^ name)
  in
  let attn name =
    match Mcf_workloads.Configs.find_attention name with
    | Some s -> (name, Mcf_workloads.Configs.attention s)
    | None -> failwith ("unknown attention workload " ^ name)
  in
  if smoke then [ ("smoke", Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 ()) ]
  else [ gemm "G1"; gemm "G4"; gemm "G10"; attn "S9"; attn "S3" ]

(* S3 (Bert-Large) is the largest attention workload of Table III. *)
let largest_workload ~smoke = if smoke then "smoke" else "S3"

let time_best ~reps f =
  let best = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    last := Some r
  done;
  (Option.get !last, !best)

let outcome_fingerprint (o : Mcf_search.Tuner.outcome) =
  let f = o.funnel in
  let s = o.search_stats in
  Printf.sprintf "%s|%.17g|%d/%d/%d/%g/%g/%d/%d|%d/%d/%d"
    (Mcf_ir.Candidate.key o.best.cand)
    o.kernel_time_s f.tilings_raw f.tilings_rule1 f.tilings_rule2
    f.candidates_raw f.candidates_rule3 f.candidates_rule4 f.candidates_valid
    s.generations s.estimated s.measured

(* Streamed deep-chain enumeration: evidence for the bounded-memory claim.
   Three measurements, in an order that keeps the monotone
   [peak_heap_words] honest: (1) the largest Table workload, for the
   coverage ratio of its funnel; (2) the deep chain streamed through the
   reservoir — its peak includes (1)'s, so the bound is conservative;
   (3) the same deep chain without a reservoir, holding every valid
   entry, whose peak includes (2)'s — it only exceeds the streamed peak
   if holding the whole valid space genuinely needs more live heap than
   the reservoir ever did.  Runs before the per-workload sweeps so later
   allocations cannot inflate any of the three numbers. *)
let run_enumeration_bench spec ~jobs ~reps ~smoke =
  let num = Mcf_util.Json.num_of_int in
  let baseline_name, baseline_chain =
    if smoke then
      ("smoke", Mcf_ir.Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 ())
    else
      match Mcf_workloads.Configs.find_attention "S3" with
      | Some s -> ("S3", Mcf_workloads.Configs.attention s)
      | None -> failwith "unknown attention workload S3"
  in
  let deep_name, deep_chain, reservoir =
    if smoke then
      (* Same 6-block structure as D6 (8-axis tiling space), scaled so the
         smoke run stays under a second. *)
      ( "D6-smoke",
        Mcf_ir.Chain.gemm_chain_n ~m:128
          ~dims:[ 64; 64; 64; 64; 64; 64; 64 ]
          (),
        256 )
    else
      match Mcf_workloads.Configs.find_deep "D6" with
      | Some d -> ("D6", Mcf_workloads.Configs.deep_chain d, 512)
      | None -> failwith "unknown deep workload D6"
  in
  Printf.printf
    "%s\n[enumeration] streamed %s (reservoir %d) vs unbounded\n%s\n%!" hr
    deep_name reservoir hr;
  let t0 = Unix.gettimeofday () in
  let _bentries, bf = Mcf_search.Space.enumerate spec baseline_chain in
  let baseline_s = Unix.gettimeofday () -. t0 in
  let bpoints = bf.Mcf_search.Space.candidates_rule3 in
  let misses0 = Mcf_obs.Metrics.counter_value "model.memo.misses" in
  let t0 = Unix.gettimeofday () in
  let dentries, _scores, df =
    Mcf_search.Space.enumerate_scored ~reservoir spec deep_chain
  in
  let deep_s = Unix.gettimeofday () -. t0 in
  (* Summaries the scorer built: one per (kept tiling, trip=1 pattern of
     the bits a summary reads), a count that is the same at any --jobs. *)
  let summaries =
    float_of_int (Mcf_obs.Metrics.counter_value "model.memo.misses" - misses0)
  in
  let deep_peak = Mcf_obs.Resource.peak_heap_words () in
  let t0 = Unix.gettimeofday () in
  let _uentries, _uscores, _uf =
    Mcf_search.Space.enumerate_scored spec deep_chain
  in
  let unbounded_s = Unix.gettimeofday () -. t0 in
  let unbounded_peak = Mcf_obs.Resource.peak_heap_words () in
  let dpoints = df.Mcf_search.Space.candidates_rule3 in
  let dpoints_per_s = dpoints /. Float.max deep_s 1e-9 in
  let kept = List.length dentries in
  let points_ratio = dpoints /. Float.max bpoints 1e-9 in
  let heap_saving = unbounded_peak /. Float.max deep_peak 1e-9 in
  (* The pool gate's evidence: the same streamed enumeration at one job
     and at [jobs], best of [reps] each.  Each timed region repeats the
     enumeration [per_rep] times so that it runs for 100 ms or more even
     in the smoke run, far above timer and scheduling noise, and the two
     arms alternate region by region, so a spell in which the host runs
     slower hits both.  Runs after both heap readings, so it cannot move
     them.  The 1-job arm also counts the minor-heap words the caller's
     domain allocates per enumeration: at one job every pool task runs in
     that domain, so its words per point are a deterministic count,
     unlike wall time. *)
  let per_rep =
    max 1 (int_of_float (Float.ceil (0.1 /. Float.max deep_s 1e-3)))
  in
  let region j =
    Mcf_util.Pool.set_jobs j;
    ignore (Mcf_util.Pool.get ());
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_rep do
      ignore (Mcf_search.Space.enumerate_scored ~reservoir spec deep_chain)
    done;
    let n = float_of_int per_rep in
    ((Unix.gettimeofday () -. t0) /. n, (Gc.minor_words () -. w0) /. n)
  in
  let stream_seq_s = ref infinity and stream_par_s = ref infinity in
  let seq_words = ref 0.0 in
  for _ = 1 to reps do
    let s, w = region 1 in
    stream_seq_s := Float.min !stream_seq_s s;
    seq_words := w;
    if jobs > 1 then stream_par_s := Float.min !stream_par_s (fst (region jobs))
  done;
  let stream_seq_s = !stream_seq_s in
  let stream_par_s = if jobs > 1 then !stream_par_s else stream_seq_s in
  let stream_speedup = stream_seq_s /. Float.max stream_par_s 1e-9 in
  let alloc_words_per_point = !seq_words /. Float.max dpoints 1.0 in
  Printf.printf
    "  %-9s streamed:     %.3g points in %.3fs (coverage baseline)\n"
    baseline_name bpoints baseline_s;
  Printf.printf
    "  %-9s streamed:     %.3g points in %.3fs (%.0f points/s), peak heap \
     %.3gMw\n"
    deep_name dpoints deep_s dpoints_per_s (deep_peak /. 1e6);
  Printf.printf
    "  %-9s unbounded:    same space in %.3fs, peak heap %.3gMw\n"
    deep_name unbounded_s (unbounded_peak /. 1e6);
  Printf.printf
    "  space %.1fx larger than %s, heap high-water %.2fx lower streamed, \
     reservoir %d/%d kept of %d valid\n%!"
    points_ratio baseline_name heap_saving kept reservoir
    df.Mcf_search.Space.candidates_valid;
  Printf.printf
    "  %-9s streamed at 1 job %.3fs, at %d jobs %.3fs (best of %d): \
     %.2fx; %.0f words allocated per point at 1 job, %.0f summaries per \
     enumeration\n%!"
    deep_name stream_seq_s jobs stream_par_s reps stream_speedup
    alloc_words_per_point summaries;
  let section =
    Mcf_util.Json.Obj
      [ ("baseline",
         Mcf_util.Json.Obj
           [ ("name", Str baseline_name);
             ("points", Num bpoints);
             ("wall_s", Num baseline_s) ]);
        ("deep",
         Mcf_util.Json.Obj
           [ ("name", Str deep_name);
             ("chain", Str deep_chain.Mcf_ir.Chain.cname);
             ("reservoir", num reservoir);
             ("kept", num kept);
             ("valid", num df.Mcf_search.Space.candidates_valid);
             ("points", Num dpoints);
             ("wall_s", Num deep_s);
             ("points_per_s", Num dpoints_per_s);
             ("peak_heap_words", Num deep_peak);
             ("summaries", Num summaries) ]);
        ("deep_unbounded",
         Mcf_util.Json.Obj
           [ ("wall_s", Num unbounded_s);
             ("peak_heap_words", Num unbounded_peak) ]);
        ("points_ratio", Num points_ratio);
        ("heap_saving", Num heap_saving);
        ("jobs_speedup",
         Mcf_util.Json.Obj
           [ ("jobs", num jobs);
             ("seq_wall_s", Num stream_seq_s);
             ("par_wall_s", Num stream_par_s);
             ("speedup", Num stream_speedup);
             ("alloc_words_per_point", Num alloc_words_per_point) ]) ]
  in
  (* A workload-shaped row so [History.of_search_doc] picks the streamed
     run up: the perf gate then tracks its throughput (higher is better),
     heap high-water mark, allocation per point and summaries built
     (lower is better) across runs. *)
  let history_row =
    Mcf_util.Json.Obj
      [ ("name", Str (deep_name ^ "-stream"));
        ("chain", Str deep_chain.Mcf_ir.Chain.cname);
        ("points", Num dpoints);
        ("valid", num df.Mcf_search.Space.candidates_valid);
        ("enumerate",
         List
           [ Mcf_util.Json.Obj
               [ ("jobs", num (Mcf_util.Pool.jobs ()));
                 ("wall_s", Num deep_s);
                 ("points_per_s", Num dpoints_per_s) ] ]);
        ("peak_heap_words", Num deep_peak);
        ("alloc_words_per_point", Num alloc_words_per_point);
        ("summaries_per_enumeration", Num summaries) ]
  in
  (section, history_row, points_ratio, heap_saving, stream_speedup)

(* Closed-form vs lowered-walk estimation throughput on the largest
   workload: the analytic fast path's headline number.  Both passes score
   every enumerated candidate; the closed-form pass goes through a fresh
   [Analytic.Memo] so the reported hit rate is what the search itself
   sees. *)
let run_estimate_bench spec ~smoke =
  let wname = largest_workload ~smoke in
  let chain = List.assoc wname (search_workloads ~smoke) in
  Printf.printf "%s\n[estimate] %s: closed-form vs lowered-walk\n%s\n%!" hr
    wname hr;
  let entries, _ = Mcf_search.Space.enumerate spec chain in
  let pool = Array.of_list entries in
  let n = Array.length pool in
  if n = 0 then failwith ("empty candidate space for " ^ wname);
  let ctx = pool.(0).Mcf_search.Space.ctx in
  let reps = if smoke then 2 else 3 in
  let (), lowered_s =
    time_best ~reps (fun () ->
        Array.iter
          (fun (e : Mcf_search.Space.entry) ->
            let l =
              Mcf_ir.Lower.lower ~rule1:ctx.Mcf_search.Space.rule1
                ~dead_loop_elim:ctx.Mcf_search.Space.dead_loop_elim
                ~hoisting:ctx.Mcf_search.Space.hoisting
                ~elem_bytes:ctx.Mcf_search.Space.elem_bytes
                ctx.Mcf_search.Space.chain e.cand
            in
            ignore (Mcf_model.Perf.estimate spec l))
          pool)
  in
  let hits0 = Mcf_obs.Metrics.counter_value "model.memo.hits" in
  let misses0 = Mcf_obs.Metrics.counter_value "model.memo.misses" in
  let (), closed_s =
    time_best ~reps (fun () ->
        let memo =
          Mcf_model.Analytic.Memo.create ~rule1:ctx.Mcf_search.Space.rule1
            ~dead_loop_elim:ctx.Mcf_search.Space.dead_loop_elim
            ~hoisting:ctx.Mcf_search.Space.hoisting
            ~elem_bytes:ctx.Mcf_search.Space.elem_bytes
            ctx.Mcf_search.Space.chain
        in
        Array.iter
          (fun (e : Mcf_search.Space.entry) ->
            ignore (Mcf_model.Analytic.Memo.estimate memo spec e.cand))
          pool)
  in
  let hits = Mcf_obs.Metrics.counter_value "model.memo.hits" - hits0 in
  let misses = Mcf_obs.Metrics.counter_value "model.memo.misses" - misses0 in
  let hit_rate =
    float_of_int hits /. Float.max 1.0 (float_of_int (hits + misses))
  in
  let fn = float_of_int n in
  let closed_per_s = fn /. Float.max closed_s 1e-9 in
  let lowered_per_s = fn /. Float.max lowered_s 1e-9 in
  let speedup = closed_per_s /. Float.max lowered_per_s 1e-9 in
  Printf.printf
    "  %d candidates: closed-form %.0f/s, lowered walk %.0f/s (%.1fx), memo \
     hit rate %.1f%%\n%!"
    n closed_per_s lowered_per_s speedup (100.0 *. hit_rate);
  let num = Mcf_util.Json.num_of_int in
  Mcf_util.Json.Obj
    [ ("workload", Str wname);
      ("candidates", num n);
      ("closed_form_per_s", Num closed_per_s);
      ("lowered_walk_per_s", Num lowered_per_s);
      ("speedup", Num speedup);
      ("memo_hits", num hits);
      ("memo_misses", num misses);
      ("memo_hit_rate", Num hit_rate) ]

(* Batched measurement throughput and cache effectiveness on the largest
   workload: the measurement engine's headline numbers.  Each timed arm
   rebuilds fresh entries from (ctx, candidate) pairs — the entry's lazy
   lowering cell memoizes, so reusing entries would time a no-op — and
   drives the same rank-ordered batch through one engine on a one-domain
   pool (stage 1 inline) and on the [jobs]-domain pool.  A second pair of
   full tuner runs shares one measurement cache: the cold run misses on
   every distinct key, the warm run should hit on (nearly) all of them. *)
let run_measure_bench spec ~jobs ~smoke =
  let num = Mcf_util.Json.num_of_int in
  let wname = largest_workload ~smoke in
  let chain = List.assoc wname (search_workloads ~smoke) in
  Printf.printf
    "%s\n[measure] %s: batched engine, sequential vs parallel\n%s\n%!" hr
    wname hr;
  let entries, _ = Mcf_search.Space.enumerate spec chain in
  let limit = if smoke then 64 else 256 in
  let cands =
    List.filteri (fun i _ -> i < limit) entries
    |> List.map (fun (e : Mcf_search.Space.entry) -> (e.ctx, e.cand))
  in
  let n = List.length cands in
  if n = 0 then failwith ("empty candidate space for " ^ wname);
  let reps = if smoke then 2 else 3 in
  let batch () =
    List.mapi
      (fun i (ctx, c) -> (i, Mcf_search.Space.make_entry ctx c))
      cands
  in
  let measure_wall engine =
    snd
      (time_best ~reps (fun () ->
           let clock = Mcf_gpu.Clock.create () in
           Mcf_search.Measure.run_batch engine ~clock ~compile_cost_s:0.6
             ~repeats:10
             ~commit:(fun _ _ -> ())
             (batch ())))
  in
  let at_jobs j =
    Mcf_util.Pool.set_jobs j;
    ignore (Mcf_util.Pool.get ());
    measure_wall (Mcf_search.Measure.create spec)
  in
  let seq_s = at_jobs 1 in
  let par_s = at_jobs jobs in
  let fn = float_of_int n in
  let seq_per_s = fn /. Float.max seq_s 1e-9 in
  let par_per_s = fn /. Float.max par_s 1e-9 in
  let speedup = par_per_s /. Float.max seq_per_s 1e-9 in
  let cv = Mcf_obs.Metrics.counter_value in
  let cache = Mcf_search.Measure.cache_create () in
  let tune_measured () =
    match
      Mcf_search.Tuner.tune
        ~measure:(Mcf_search.Measure.create ~cache spec)
        spec chain
    with
    | Ok o -> o.Mcf_search.Tuner.search_stats.Mcf_search.Explore.measured
    | Error _ -> failwith ("tuning failed for " ^ wname)
  in
  let m0 = cv "measure.cache.misses" in
  let cold_measured = tune_measured () in
  let m1 = cv "measure.cache.misses" and h1 = cv "measure.cache.hits" in
  let warm_measured = tune_measured () in
  let m2 = cv "measure.cache.misses" and h2 = cv "measure.cache.hits" in
  let cold_misses = m1 - m0 in
  let warm_misses = m2 - m1 in
  let warm_hits = h2 - h1 in
  let warm_hit_rate =
    float_of_int warm_hits
    /. Float.max 1.0 (float_of_int (warm_hits + warm_misses))
  in
  Printf.printf
    "  %d candidates: sequential %.0f/s, parallel %.0f/s at %d jobs (%.2fx)\n"
    n seq_per_s par_per_s jobs speedup;
  Printf.printf
    "  cache: cold tune %d measured / %d simulated, warm tune %d measured / \
     %d simulated (hit rate %.1f%%)\n%!"
    cold_measured cold_misses warm_measured warm_misses
    (100.0 *. warm_hit_rate);
  let section =
    Mcf_util.Json.Obj
      [ ("workload", Str wname);
        ("candidates", num n);
        ("jobs", num jobs);
        ("sequential_per_s", Num seq_per_s);
        ("measured_per_s", Num par_per_s);
        ("speedup", Num speedup);
        ("cold_measured", num cold_measured);
        ("cold_misses", num cold_misses);
        ("warm_measured", num warm_measured);
        ("warm_misses", num warm_misses);
        ("warm_hits", num warm_hits);
        ("warm_hit_rate", Num warm_hit_rate) ]
  in
  (* A workload-shaped row so [History.of_search_doc] tracks the engine's
     throughput (both arms are [_per_s]: higher is better) across runs. *)
  let history_row =
    Mcf_util.Json.Obj
      [ ("name", Str (wname ^ "-measure"));
        ("chain", Str chain.Mcf_ir.Chain.cname);
        ("measure", section) ]
  in
  (section, history_row, warm_misses, cold_misses, warm_hit_rate)

let run_search_bench ~jobs ~smoke ~estimate_only ~measure_only ~history ~out =
  let spec = Mcf_gpu.Spec.a100 in
  let jobs_list = List.sort_uniq compare [ 1; jobs ] in
  let reps = if smoke then 3 else 2 in
  let num = Mcf_util.Json.num_of_int in
  Mcf_util.Pool.set_jobs jobs;
  ignore (Mcf_util.Pool.get ());
  let enumeration =
    if estimate_only || measure_only then None
    else Some (run_enumeration_bench spec ~jobs ~reps ~smoke)
  in
  let results =
    if estimate_only || measure_only then []
    else List.map
      (fun (name, chain) ->
        Printf.printf "%s\n[search] %s\n%s\n%!" hr name hr;
        let funnel = ref None in
        let fingerprints = ref [] in
        let enum_rows, tune_rows =
          List.split
            (List.map
               (fun j ->
                 Mcf_util.Pool.set_jobs j;
                 ignore (Mcf_util.Pool.get ());
                 let (_, f), enum_s =
                   time_best ~reps (fun () ->
                       Mcf_search.Space.enumerate spec chain)
                 in
                 funnel := Some f;
                 let points = f.Mcf_search.Space.candidates_rule3 in
                 let points_per_s = points /. Float.max enum_s 1e-9 in
                 (* Best of [reps] like the enumeration: a smoke tune
                    takes a few milliseconds, and one shot of that is
                    mostly timer and scheduler noise. *)
                 let outcome, tune_s =
                   time_best ~reps (fun () ->
                       match Mcf_search.Tuner.tune spec chain with
                       | Ok o -> o
                       | Error _ -> failwith ("tuning failed for " ^ name))
                 in
                 fingerprints := outcome_fingerprint outcome :: !fingerprints;
                 let explore_s =
                   match List.assoc_opt "tuner.explore" outcome.phases with
                   | Some s -> s
                   | None -> nan
                 in
                 let stats = outcome.search_stats in
                 Printf.printf
                   "  jobs=%d  enumerate %.3fs (%.0f points/s)  tune %.3fs  \
                    estimated %d\n%!"
                   j enum_s points_per_s tune_s stats.estimated;
                 ( Mcf_util.Json.Obj
                     [ ("jobs", num j);
                       ("wall_s", Num enum_s);
                       ("points_per_s", Num points_per_s) ],
                   Mcf_util.Json.Obj
                     [ ("jobs", num j);
                       ("wall_s", Num tune_s);
                       ("explore_wall_s", Num explore_s);
                       ("estimated", num stats.estimated);
                       ("measured", num stats.measured);
                       ("best_time_s", Num outcome.kernel_time_s) ] ))
               jobs_list)
        in
        let f = Option.get !funnel in
        let identical =
          match !fingerprints with
          | [] -> true
          | fp :: rest -> List.for_all (String.equal fp) rest
        in
        if not identical then
          Printf.eprintf
            "WARNING: %s: tuner outcome differs across --jobs settings!\n%!"
            name;
        let wall_of = function
          | Mcf_util.Json.Obj kvs -> (
            match List.assoc_opt "wall_s" kvs with
            | Some (Mcf_util.Json.Num v) -> v
            | _ -> nan)
          | _ -> nan
        in
        let speedup =
          match (enum_rows, List.rev enum_rows) with
          | first :: _, last :: _ when List.length enum_rows > 1 ->
            wall_of first /. Float.max (wall_of last) 1e-9
          | _ -> 1.0
        in
        ( name,
          speedup,
          Mcf_util.Json.Obj
            [ ("name", Str name);
              ("chain", Str chain.Mcf_ir.Chain.cname);
              ("points", Num f.Mcf_search.Space.candidates_rule3);
              ("lowered", num f.Mcf_search.Space.candidates_rule4);
              ("valid", num f.Mcf_search.Space.candidates_valid);
              ("enumerate", List enum_rows);
              ("enumerate_speedup", Num speedup);
              ("tune", List tune_rows);
              ("identical_across_jobs", Bool identical);
              (* Process-lifetime high-water mark up to this workload: a
                 stable upper bound for the history's memory trend. *)
              ("peak_heap_words", Num (Mcf_obs.Resource.peak_heap_words ())) ] ))
      (search_workloads ~smoke)
  in
  let estimate_json =
    if measure_only then None else Some (run_estimate_bench spec ~smoke)
  in
  let measure =
    if estimate_only then None else Some (run_measure_bench spec ~jobs ~smoke)
  in
  Mcf_obs.Poolstats.sync ();
  let largest = largest_workload ~smoke in
  let largest_speedup =
    List.fold_left
      (fun acc (name, s, _) -> if name = largest then s else acc)
      1.0 results
  in
  let workload_rows =
    List.map (fun (_, _, j) -> j) results
    @ (match enumeration with Some (_, row, _, _, _) -> [ row ] | None -> [])
    @ (match measure with Some (_, row, _, _, _) -> [ row ] | None -> [])
  in
  let doc =
    let open Mcf_util.Json in
    Obj
      ([ ("bench", Str "search");
         ("device", Str spec.name);
         ("smoke", Bool smoke);
         ("jobs", List (List.map num jobs_list));
         ("cores", num (Domain.recommended_domain_count ()));
         ("ocaml", Str Sys.ocaml_version);
         ("workloads", List workload_rows) ]
      @ (match enumeration with
        | Some (section, _, _, _, _) -> [ ("enumeration", section) ]
        | None -> [])
      @ (match estimate_json with
        | Some section -> [ ("estimate", section) ]
        | None -> [])
      @ (match measure with
        | Some (section, _, _, _, _) -> [ ("measure", section) ]
        | None -> [])
      @ [ ("largest_workload", Str largest);
          ("largest_enumerate_speedup", Num largest_speedup) ])
  in
  Mcf_util.Json.write_atomic out (fun oc ->
      output_string oc (Mcf_util.Json.to_string doc);
      output_char oc '\n');
  (match history with
  | None -> ()
  | Some path ->
    let entries = Mcf_obs.History.of_search_doc doc in
    List.iter (Mcf_obs.History.append ~path) entries;
    Printf.printf "appended %d history entr%s to %s (rev %s)\n"
      (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      path
      (Mcf_obs.History.current_rev ()));
  (* Smoke gates for the measurement cache: a warm tuner run must simulate
     strictly fewer candidates than the cold run did, and hit the cache on
     more than 90% of its lookups. *)
  let measure_gate () =
    match measure with
    | Some (_, _, warm_misses, cold_misses, warm_hit_rate) when smoke ->
      if warm_misses >= cold_misses then begin
        Printf.eprintf
          "FAIL: warm tune simulated %d candidates, not strictly below the \
           cold run's %d\n%!"
          warm_misses cold_misses;
        exit 1
      end;
      if warm_hit_rate <= 0.9 then begin
        Printf.eprintf
          "FAIL: warm cache hit rate %.1f%% (threshold 90%%)\n%!"
          (100.0 *. warm_hit_rate);
        exit 1
      end
    | _ -> ()
  in
  if estimate_only then Printf.printf "\nwrote %s (estimate section only)\n" out
  else if measure_only then begin
    Printf.printf "\nwrote %s (measure section only)\n" out;
    measure_gate ()
  end
  else begin
    Printf.printf "\nwrote %s (largest workload %s: %.2fx enumeration \
                   speedup at %d jobs on %d core(s))\n"
      out largest largest_speedup
      (List.fold_left max 1 jobs_list)
      (Domain.recommended_domain_count ());
    (* Smoke gates for the streaming pipeline: the deep chain must cover a
       much larger post-rule-3 space than the largest Table workload, and
       holding every valid entry must cost visibly more heap than the
       reservoir did (the monotone peak makes both directions
       conservative).  The pool regression gate rides on the same chain:
       its streamed enumeration at the requested --jobs must not lose
       more than noise to the 1-job run now that the global pool is
       clamped to the hardware. *)
    (match enumeration with
    | Some (_, _, points_ratio, heap_saving, stream_speedup) when smoke ->
      if stream_speedup < 0.9 then begin
        Printf.eprintf
          "FAIL: streamed deep-chain enumeration at %d jobs is %.2fx the \
           1-job throughput (threshold 0.9)\n%!"
          jobs stream_speedup;
        exit 1
      end;
      if points_ratio < 10.0 then begin
        Printf.eprintf
          "FAIL: deep-chain space is only %.1fx the baseline's (threshold \
           10x)\n%!"
          points_ratio;
        exit 1
      end;
      if heap_saving < 1.5 then begin
        Printf.eprintf
          "FAIL: the unbounded deep-chain stream peaked at only %.2fx the \
           reservoir's high-water mark (threshold 1.5x)\n%!"
          heap_saving;
        exit 1
      end
    | _ -> ());
    measure_gate ()
  end

(* --- serve-throughput benchmark (--mode serve) --------------------------- *)

(* Drives a real [Mcf_serve.Server] over its HTTP socket with concurrent
   client threads: a cold phase establishing the schedule cache (with
   duplicate submissions that should coalesce onto running sessions),
   then a warm phase replaying the same requests, which must be answered
   from the cache.  Reports requests/s and p50/p99 round-trip latency
   per phase, plus the warm-phase cache hit rate that `make
   bench-serve-smoke` gates on. *)

let serve_request_body ~m =
  Mcf_util.Json.to_string
    (Mcf_util.Json.Obj
       [ ( "chain",
           Mcf_util.Json.Obj
             [ ("kind", Mcf_util.Json.Str "gemm");
               ("m", Mcf_util.Json.num_of_int m);
               ("n", Mcf_util.Json.num_of_int 64);
               ("k", Mcf_util.Json.num_of_int 32);
               ("h", Mcf_util.Json.num_of_int 32);
             ] );
         ("device", Mcf_util.Json.Str "A100");
       ])

(* POST one tune request and poll it to completion; returns the wall
   latency, the submit-time source and the final job document. *)
let serve_round_trip url body =
  let t0 = Unix.gettimeofday () in
  match Mcf_util.Httpd.Client.post (url ^ "/tune") ~body with
  | Error e ->
    Printf.eprintf "serve bench: POST /tune: %s\n%!" e;
    exit 1
  | Ok (code, resp) when code <> 200 && code <> 202 ->
    Printf.eprintf "serve bench: POST /tune: HTTP %d %s\n%!" code resp;
    exit 1
  | Ok (_, resp) -> (
    match Mcf_util.Json.parse (String.trim resp) with
    | Error e ->
      Printf.eprintf "serve bench: bad /tune response: %s\n%!" e;
      exit 1
    | Ok job ->
      let jstr path j =
        match
          List.fold_left
            (fun acc k ->
              match acc with
              | Some j -> Mcf_util.Json.member k j
              | None -> None)
            (Some j) path
        with
        | Some (Mcf_util.Json.Str s) -> s
        | _ -> ""
      in
      let jid = jstr [ "job" ] job in
      let source = jstr [ "source" ] job in
      let rec poll job =
        match jstr [ "state" ] job with
        | "done" -> (Unix.gettimeofday () -. t0, source, job)
        | "failed" ->
          Printf.eprintf "serve bench: job %s failed: %s\n%!" jid
            (jstr [ "error" ] job);
          exit 1
        | _ -> (
          Thread.delay 0.01;
          match Mcf_util.Httpd.Client.get (url ^ "/jobs/" ^ jid) with
          | Error e ->
            Printf.eprintf "serve bench: GET /jobs/%s: %s\n%!" jid e;
            exit 1
          | Ok (200, body) -> (
            match Mcf_util.Json.parse (String.trim body) with
            | Ok job -> poll job
            | Error e ->
              Printf.eprintf "serve bench: bad job document: %s\n%!" e;
              exit 1)
          | Ok (code, body) ->
            Printf.eprintf "serve bench: GET /jobs/%s: HTTP %d %s\n%!" jid
              code body;
            exit 1)
      in
      poll job)

(* Run [bodies] through [clients] threads; returns per-request
   (latency, source) in completion order and the phase wall time. *)
let serve_phase url ~clients bodies =
  let results = ref [] in
  let lock = Mutex.create () in
  let next = Atomic.make 0 in
  let bodies = Array.of_list bodies in
  let t0 = Unix.gettimeofday () in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length bodies then begin
        let r = serve_round_trip url bodies.(i) in
        Mutex.lock lock;
        results := r :: !results;
        Mutex.unlock lock;
        go ()
      end
    in
    go ()
  in
  let threads = List.init clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  (!results, Unix.gettimeofday () -. t0)

let serve_phase_json name (results, wall) =
  let lats = List.map (fun (l, _, _) -> l) results in
  let n = List.length results in
  let count src =
    List.length (List.filter (fun (_, s, _) -> s = src) results)
  in
  let rps = if wall > 0.0 then float_of_int n /. wall else 0.0 in
  let open Mcf_util.Json in
  let num = num_of_int in
  ( Obj
      [ ("phase", Str name);
        ("requests", num n);
        ("wall_s", Num wall);
        ("requests_per_s", Num rps);
        ("latency_p50_s", Num (Mcf_util.Stats.percentile 50.0 lats));
        ("latency_p99_s", Num (Mcf_util.Stats.percentile 99.0 lats));
        ("tuned", num (count "tuned"));
        ("coalesced", num (count "coalesced"));
        ("cached", num (count "cached"));
      ],
    rps,
    Mcf_util.Stats.percentile 50.0 lats,
    Mcf_util.Stats.percentile 99.0 lats,
    float_of_int (count "cached") /. float_of_int (max 1 n) )

let run_serve_bench ~jobs ~smoke ~history ~out =
  Mcf_util.Pool.set_jobs jobs;
  let spec = Mcf_gpu.Spec.a100 in
  let distinct = if smoke then 4 else 8 in
  let dups = 2 in
  let clients = 4 in
  let workers = 2 in
  let config = { Mcf_serve.Server.default_config with workers } in
  match Mcf_serve.Server.start ~config () with
  | Error e ->
    Printf.eprintf "serve bench: %s\n%!" e;
    exit 1
  | Ok t ->
    let url = Mcf_serve.Server.url t in
    let ms = List.init distinct (fun i -> 96 + (16 * i)) in
    let bodies = List.map (fun m -> serve_request_body ~m) ms in
    (* Cold: every distinct chain [dups] times, interleaved so duplicate
       submissions land while their session is still in flight. *)
    let cold_bodies = List.concat (List.init dups (fun _ -> bodies)) in
    let cold = serve_phase url ~clients cold_bodies in
    let warm = serve_phase url ~clients cold_bodies in
    (* Bit-identity spot check: the served schedule for the first chain
       must equal a direct one-shot tune of the same request. *)
    let direct_chain =
      Mcf_ir.Chain.gemm_chain ~m:(List.hd ms) ~n:64 ~k:32 ~h:32 ()
    in
    let served_cand, served_time =
      let _, _, job = serve_round_trip url (List.hd bodies) in
      ( (match
           Option.bind
             (Mcf_util.Json.member "result" job)
             (Mcf_util.Json.member "candidate")
         with
        | Some (Mcf_util.Json.Str s) -> s
        | _ -> ""),
        match
          Option.bind
            (Mcf_util.Json.member "result" job)
            (Mcf_util.Json.member "kernel_time_s")
        with
        | Some (Mcf_util.Json.Num v) -> v
        | _ -> nan )
    in
    (match Mcf_search.Tuner.tune spec direct_chain with
    | Error _ ->
      Printf.eprintf "serve bench: direct tune found no candidate\n%!";
      exit 1
    | Ok o ->
      let direct_cand = Mcf_ir.Candidate.serialize o.best.cand in
      if direct_cand <> served_cand || o.kernel_time_s <> served_time then begin
        Printf.eprintf
          "FAIL: served schedule differs from one-shot tune (%s at %.17g vs \
           %s at %.17g)\n%!"
          served_cand served_time direct_cand o.kernel_time_s;
        exit 1
      end);
    Mcf_serve.Server.stop t;
    let cold_json, cold_rps, _, _, _ = serve_phase_json "cold" cold in
    let warm_json, warm_rps, warm_p50, warm_p99, warm_hit_rate =
      serve_phase_json "warm" warm
    in
    let doc =
      let open Mcf_util.Json in
      let num = num_of_int in
      Obj
        [ ("bench", Str "serve");
          ("device", Str spec.name);
          ("smoke", Bool smoke);
          ("jobs", num jobs);
          ("workers", num workers);
          ("clients", num clients);
          ("distinct_chains", num distinct);
          ("duplicates_per_chain", num dups);
          ("cold", cold_json);
          ("warm", warm_json);
          ("warm_hit_rate", Num warm_hit_rate);
        ]
    in
    Mcf_util.Json.write_atomic out (fun oc ->
        output_string oc (Mcf_util.Json.to_string doc);
        output_char oc '\n');
    (match history with
    | None -> ()
    | Some path ->
      let entry =
        { Mcf_obs.History.time = Unix.gettimeofday ();
          rev = Mcf_obs.History.current_rev ();
          device = spec.name;
          workload = (if smoke then "smoke-serve" else "serve");
          cores = Some (Domain.recommended_domain_count ());
          ocaml = Some Sys.ocaml_version;
          metrics =
            [ ("requests_per_s", warm_rps);
              ("latency_p50_s", warm_p50);
              ("latency_p99_s", warm_p99);
            ] }
      in
      Mcf_obs.History.append ~path entry;
      Printf.printf "appended 1 history entry to %s (rev %s)\n" path
        (Mcf_obs.History.current_rev ()));
    Printf.printf
      "\nwrote %s (cold %.1f req/s, warm %.1f req/s, warm hit rate %.0f%%)\n"
      out cold_rps warm_rps (100.0 *. warm_hit_rate);
    if smoke && warm_hit_rate <= 0.9 then begin
      Printf.eprintf
        "FAIL: warm-phase cache hit rate %.1f%% (threshold 90%%)\n%!"
        (100.0 *. warm_hit_rate);
      exit 1
    end

let or_exit = function
  | Ok v -> v
  | Error e ->
    prerr_endline e;
    exit 1

let write_trace path =
  Mcf_obs.Trace.stop ();
  let n = or_exit (Mcf_obs.Trace.write path) in
  Printf.eprintf "trace: wrote %s (%d spans)\n%!" path n

let write_record path =
  Mcf_obs.Recorder.stop ();
  let n = or_exit (Mcf_obs.Recorder.write path) in
  Printf.eprintf "record: wrote %s (%d events)\n%!" path n

let write_metrics path = or_exit (Mcf_obs.Export.write_metrics path)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let only = ref None in
  let quick = ref false in
  let micro = ref true in
  let trace = ref None in
  let record = ref None in
  let metrics = ref None in
  let profile = ref false in
  let mode = ref `Experiments in
  let out = ref "BENCH_search.json" in
  let jobs = ref (max 4 (Mcf_util.Pool.default_jobs ())) in
  let smoke = ref false in
  let estimate_only = ref false in
  let measure_only = ref false in
  let sample_ms = ref None in
  let history = ref None in
  let listen = ref None in
  let log_format = ref Mcf_obs.Logfmt.Text in
  let verbose = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--list" :: _ ->
      List.iter
        (fun (e : Mcf_experiments.Registry.experiment) ->
          Printf.printf "%-10s %s\n" e.id e.description)
        Mcf_experiments.Registry.all;
      exit 0
    | "--only" :: spec :: rest ->
      only := Some (String.split_on_char ',' spec);
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--no-micro" :: rest ->
      micro := false;
      parse rest
    | "--trace" :: path :: rest ->
      trace := Some path;
      parse rest
    | "--record" :: path :: rest ->
      record := Some path;
      parse rest
    | "--metrics" :: path :: rest ->
      metrics := Some path;
      parse rest
    | "--profile" :: rest ->
      profile := true;
      parse rest
    | "--mode" :: "search" :: rest ->
      mode := `Search;
      parse rest
    | "--mode" :: "serve" :: rest ->
      mode := `Serve;
      parse rest
    | "--mode" :: m :: _ ->
      Printf.printf "unknown mode %S (available: search, serve)\n" m;
      exit 1
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v >= 1 ->
        jobs := v;
        parse rest
      | Some _ | None ->
        Printf.printf "bad --jobs value %S\n" n;
        exit 1)
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--estimate-only" :: rest ->
      estimate_only := true;
      parse rest
    | "--measure-only" :: rest ->
      measure_only := true;
      parse rest
    | "--sample-ms" :: ms :: rest -> (
      match float_of_string_opt ms with
      | Some v when v > 0.0 ->
        sample_ms := Some v;
        parse rest
      | Some _ | None ->
        Printf.printf "bad --sample-ms value %S\n" ms;
        exit 1)
    | "--history" :: path :: rest ->
      history := Some path;
      parse rest
    | "--listen" :: addr :: rest ->
      listen := Some addr;
      parse rest
    | "--log-format" :: fmt :: rest -> (
      match Mcf_obs.Logfmt.format_of_string fmt with
      | Ok f ->
        log_format := f;
        parse rest
      | Error e ->
        Printf.printf "%s\n" e;
        exit 1)
    | "-v" :: rest ->
      incr verbose;
      parse rest
    | arg :: _ ->
      Printf.printf "unknown argument %S (try --list)\n" arg;
      exit 1
  in
  parse args;
  (* Same reporter/level setup as the CLI (Mcf_obs.Logfmt): the global
     default covers per-library sources registered later. *)
  Mcf_obs.Logfmt.setup ~format:!log_format
    (match !verbose with 0 -> None | 1 -> Some Logs.Info | _ -> Some Logs.Debug);
  if !quick then Mcf_baselines.Ansor.trials := 200;
  if !profile then Mcf_obs.Profile.enable ();
  if !trace <> None then Mcf_obs.Trace.start ();
  if !record <> None then Mcf_obs.Recorder.start ();
  (match !sample_ms with
  | Some ms -> Mcf_obs.Resource.start ~period_s:(ms *. 1e-3)
  | None -> ());
  let server =
    match !listen with
    | None -> None
    | Some addr -> (
      match Mcf_obs.Export.serve ~listen:addr with
      | Error e ->
        Printf.eprintf "--listen: %s\n" e;
        exit 1
      | Ok t ->
        Printf.eprintf
          "telemetry: listening on %s/ (metrics, status, healthz)\n%!"
          (Mcf_util.Httpd.url t);
        Some t)
  in
  let t0 = Unix.gettimeofday () in
  (match !mode with
  | `Search ->
    run_search_bench ~jobs:!jobs ~smoke:!smoke ~estimate_only:!estimate_only
      ~measure_only:!measure_only ~history:!history ~out:!out
  | `Serve ->
    let out =
      if !out = "BENCH_search.json" then "BENCH_serve.json" else !out
    in
    run_serve_bench ~jobs:!jobs ~smoke:!smoke ~history:!history ~out
  | `Experiments ->
    let ids =
      match !only with
      | Some ids -> ids
      | None -> Mcf_experiments.Registry.ids ()
    in
    run_experiments ids;
    if !micro && !only = None then run_micro ());
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  Option.iter Mcf_obs.Export.shutdown server;
  (* Sampler down before the trace flushes so its closing counter events
     make it into the file. *)
  Mcf_obs.Resource.stop ();
  (match !trace with Some path -> write_trace path | None -> ());
  (match !record with Some path -> write_record path | None -> ());
  (match !metrics with Some path -> write_metrics path | None -> ());
  if !profile then begin
    Mcf_obs.Poolstats.sync ();
    Printf.printf "\n# per-phase wall-clock\n";
    print_string (Mcf_obs.Profile.render ());
    Printf.printf "\n# metrics\n";
    print_string (Mcf_obs.Metrics.render_table ())
  end
