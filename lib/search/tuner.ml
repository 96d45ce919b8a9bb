module Trace = Mcf_obs.Trace

type outcome = {
  chain : Mcf_ir.Chain.t;
  spec : Mcf_gpu.Spec.t;
  best : Space.entry;
  kernel : Mcf_gpu.Kernel.t;
  kernel_time_s : float;
  funnel : Space.funnel;
  search_stats : Explore.stats;
  tuning_virtual_s : float;
  tuning_wall_s : float;
  phases : (string * float) list;
}

type error = No_viable_candidate

let default_seed (spec : Mcf_gpu.Spec.t) (chain : Mcf_ir.Chain.t) =
  Mcf_util.Hashing.seed (String.concat "|" [ chain.cname; spec.name ])

module Log = (val Logs.src_log Explore.log_src : Logs.LOG)

let c_tunes = Mcf_obs.Metrics.counter "tuner.tunes"

let tune ?options ?params ?objective ?seed ?reservoir ?measure
    (spec : Mcf_gpu.Spec.t) (chain : Mcf_ir.Chain.t) =
  let opts = Option.value options ~default:Space.default_options in
  let prm = Option.value params ~default:Explore.default_params in
  let seed =
    match seed with Some s -> s | None -> default_seed spec chain
  in
  let rng = Mcf_util.Rng.create seed in
  let clock = Mcf_gpu.Clock.create () in
  Mcf_obs.Metrics.incr c_tunes;
  (* Flight-recorder run header: everything needed to reproduce the run.
     [time] is the only wall-clock field here; determinism tests strip it. *)
  Mcf_obs.Recorder.emit "run" (fun () ->
      let open Mcf_util.Json in
      [ ("time", Num (Mcf_obs.Recorder.now ()));
        ("device", Str spec.name);
        ("chain", Str chain.Mcf_ir.Chain.cname);
        (* As a string: seeds use 62 bits and would lose precision as a
           JSON number (doubles carry 53 bits of mantissa). *)
        ("seed", Str (string_of_int seed));
        ("jobs", num_of_int (Mcf_util.Pool.jobs ()));
        ("options",
         Obj
           [ ("rule1", Bool opts.Space.rule1);
             ("rule2", Bool opts.rule2);
             ("rule3", Bool opts.rule3);
             ("rule4", Bool opts.rule4);
             ("include_flat", Bool opts.include_flat);
             ("dead_loop_elim", Bool opts.dead_loop_elim);
             ("hoisting", Bool opts.hoisting);
             ("max_padding", Num Space.max_padding);
             ("shmem_slack", Num Space.shmem_slack) ]);
        ("params",
         Obj
           [ ("population", num_of_int prm.Explore.population);
             ("top_k", num_of_int prm.top_k);
             ("epsilon", Num prm.epsilon);
             ("min_generations", num_of_int prm.min_generations);
             ("max_generations", num_of_int prm.max_generations);
             ("measure_repeats", num_of_int prm.measure_repeats);
             ("compile_cost_s", Num prm.compile_cost_s) ]) ]);
  (* Every phase is timed through the same [Trace.timed] call that emits
     its span, so the breakdown below, the trace file and [tuning_wall_s]
     share one measurement and can never disagree.  A phase's body gets a
     callback for the named sub-phases it reports (the enumeration's
     space.precheck, the explore loop's tuner.measure); each is carved out
     of the phase's own duration and listed right after it, so the
     breakdown entries stay non-overlapping and still sum to at most
     [tuning_wall_s]. *)
  let phases = ref [] in
  let phase name f =
    Mcf_obs.Progress.set_phase name;
    (* Cooperative telemetry tick at every phase boundary: with sampling
       on, short phases get at least one sample from the main domain's
       vantage (observational only — see Resource). *)
    Mcf_obs.Resource.sample ();
    let sub = ref [] in
    let r, dur_s =
      Trace.timed name (fun () ->
          f (fun sub_name sub_s -> sub := (sub_name, sub_s) :: !sub))
    in
    let sub = List.rev !sub in
    let own_s = Float.max 0.0 (dur_s -. Mcf_util.Listx.sum_by snd sub) in
    phases := List.rev_append sub ((name, own_s) :: !phases);
    r
  in
  let run () =
    let entries, scores, funnel =
      phase "tuner.enumerate" (fun on_phase ->
          Space.enumerate_scored ~options:opts ?objective ~on_phase ?reservoir
            spec chain)
    in
    Log.info (fun m ->
        m "%s on %s: %d candidates after pruning (raw %.3g)"
          chain.Mcf_ir.Chain.cname spec.name funnel.candidates_valid
          funnel.candidates_raw);
    (* Framework start-up: partitioning, space generation, IR round-trips. *)
    Mcf_gpu.Clock.charge clock 4.0;
    (* The explore phase's measure batches are its sub-phase: this is
       where a warm measurement cache's wall-time saving becomes visible
       in the breakdown. *)
    let explored =
      phase "tuner.explore" (fun on_phase ->
          Explore.run ~params:prm ~scores ?measure ~on_phase ~rng
            ~clock spec entries)
    in
    match explored with
    | None -> Error No_viable_candidate
    | Some { best; best_time_s; stats } -> (
      match
        phase "tuner.codegen" (fun _ ->
            Mcf_codegen.Compile.compile spec (Space.lowered best))
      with
      | Error _ -> Error No_viable_candidate
      | Ok kernel ->
        Log.info (fun m ->
            m "best %s at %.2fus after %d measurements"
              (Mcf_ir.Candidate.to_string best.cand)
              (best_time_s *. 1e6) stats.measured);
        Mcf_obs.Recorder.emit "result" (fun () ->
            let open Mcf_util.Json in
            [ ("best", Str (Mcf_ir.Candidate.to_string best.cand));
              ("best_key", Str (Mcf_ir.Candidate.key best.cand));
              ("kernel_time_s", Num best_time_s);
              ("generations", num_of_int stats.Explore.generations);
              ("estimated", num_of_int stats.estimated);
              ("measured", num_of_int stats.measured);
              ("tuning_virtual_s", Num (Mcf_gpu.Clock.elapsed_s clock)) ]);
        Ok
          { chain;
            spec;
            best;
            kernel;
            kernel_time_s = best_time_s;
            funnel;
            search_stats = stats;
            tuning_virtual_s = Mcf_gpu.Clock.elapsed_s clock;
            tuning_wall_s = 0.0;
            phases = [] })
  in
  let result, wall =
    Trace.timed "tuner.tune"
      ~args:(fun () ->
        [ ("chain", Trace.Str chain.Mcf_ir.Chain.cname);
          ("device", Trace.Str spec.name) ])
      run
  in
  Mcf_obs.Resource.sample ();
  (* Per-phase wall times and the heap high-water mark ride along in the
     [end] event so [mcfuser report --diff] can compare them across
     recordings.  Both are clock-dependent and listed in
     [Recorder.clock_fields], keeping cross-jobs byte-identity intact. *)
  Mcf_obs.Recorder.emit "end" (fun () ->
      let open Mcf_util.Json in
      [ ("wall_s", Num wall);
        ("phases", Obj (List.rev_map (fun (n, s) -> (n, Num s)) !phases));
        ("peak_heap_words", Num (Mcf_obs.Resource.peak_heap_words ())) ]);
  Result.map
    (fun o -> { o with tuning_wall_s = wall; phases = List.rev !phases })
    result

let pseudo_code o =
  Mcf_ir.Program.to_string (Mcf_ir.Lower.program (Space.lowered o.best))

let triton_source o =
  Mcf_codegen.Emit.triton_kernel (Mcf_ir.Lower.program (Space.lowered o.best))
