(* Tests for the search machinery: space enumeration with the four pruning
   rules (Fig. 7 funnel), the evolutionary exploration of Algorithm 1, and
   the top-level tuner. *)

open Mcf_ir

let a100 = Mcf_gpu.Spec.a100
let paper_gemm = Chain.gemm_chain ~m:1024 ~n:1024 ~k:512 ~h:512 ()
let small_gemm = Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 ()
let attn = Chain.attention ~heads:8 ~m:512 ~n:512 ~k:64 ~h:64 ()

(* --- Space ------------------------------------------------------------------ *)

let test_raw_cardinality_paper () =
  (* the paper's 1.09e8 for M=N=1024, K=H=512: 26 x 64^2 x 32^2 *)
  Alcotest.(check (float 1.0)) "raw count" 109051904.0
    (Mcf_search.Space.raw_cardinality paper_gemm)

let test_funnel_paper_example () =
  let _, f = Mcf_search.Space.enumerate a100 paper_gemm in
  Alcotest.(check int) "26 expressions" 26 f.tilings_raw;
  Alcotest.(check bool) "rule 1 dedups hard" true (f.tilings_rule1 <= 5);
  Alcotest.(check bool) "rule 2 drops more" true
    (f.tilings_rule2 < f.tilings_rule1);
  Alcotest.(check bool) "rule 3 kills 99%+" true
    (f.candidates_rule3 < 0.01 *. f.candidates_raw);
  Alcotest.(check bool) "rule 4 prunes further" true
    (float_of_int f.candidates_rule4 <= f.candidates_rule3);
  Alcotest.(check bool) "ends around 1e3-1e4" true
    (f.candidates_valid >= 500 && f.candidates_valid <= 20000)

let test_rule3_power_of_two () =
  let opts = Mcf_search.Space.default_options in
  let choices = Mcf_search.Space.tile_choices opts paper_gemm in
  let m_opts = List.assoc "m" choices in
  (* 1024 is a power of two: only divisors survive *)
  Alcotest.(check (list int)) "divisors only"
    [ 16; 32; 64; 128; 256; 512; 1024 ]
    m_opts

let test_rule3_padding_threshold () =
  (* a non-power-of-two dimension keeps tiles within 5% padding *)
  let odd = Chain.gemm_chain ~m:960 ~n:128 ~k:64 ~h:64 () in
  let choices =
    Mcf_search.Space.tile_choices Mcf_search.Space.default_options odd
  in
  List.iter
    (fun t ->
      let trips = (960 + t - 1) / t in
      let pad = float_of_int ((trips * t) - 960) /. 960.0 in
      Alcotest.(check bool)
        (Printf.sprintf "tile %d pads %.3f" t pad)
        true (pad <= 0.05))
    (List.assoc "m" choices)

(* The distinct tilings of a pool, in stream order, and its funnel.  With
   rule 4 off every rule-2 survivor of a GEMM chain keeps a valid point,
   so these are exactly the tilings rules 1-2 let through. *)
let pool_tilings options chain =
  let entries, f =
    Mcf_search.Space.enumerate ~options:{ options with rule4 = false } a100
      chain
  in
  ( Mcf_util.Listx.dedup_keep_order ~key:Tiling.to_string
      (List.map (fun (e : Mcf_search.Space.entry) -> e.cand.tiling) entries),
    f )

let test_rule2_structural () =
  let opts =
    { Mcf_search.Space.default_options with rule1 = true; rule2 = true }
  in
  let tilings, f = pool_tilings opts paper_gemm in
  Alcotest.(check int) "one pool tiling per rule-2 survivor" f.tilings_rule2
    (List.length tilings);
  (* no surviving expression places k before n in the per-block program *)
  List.iter
    (fun t ->
      let sub = Tiling.sub_tiling paper_gemm t in
      let names = Axis.names (Tiling.axes sub) in
      Alcotest.(check bool)
        ("no kn residency blow-up in " ^ Tiling.to_string t)
        true
        (not
           (String.length names >= 2
           && String.index names 'k' < String.index names 'n')))
    tilings

let test_flat_included_by_default () =
  let opts = Mcf_search.Space.default_options in
  let tilings, _ = pool_tilings opts paper_gemm in
  Alcotest.(check bool) "flat survives pruning" true
    (List.exists Tiling.is_flat tilings);
  let chimera, f =
    pool_tilings { opts with include_flat = false } paper_gemm
  in
  Alcotest.(check int) "deep-only space walks n! tilings" 24 f.tilings_raw;
  Alcotest.(check bool) "deep-only space has no flat" true
    (not (List.exists Tiling.is_flat chimera))

let test_enumerate_all_valid () =
  let entries, _ = Mcf_search.Space.enumerate a100 small_gemm in
  Alcotest.(check bool) "non-empty" true (entries <> []);
  List.iter
    (fun (e : Mcf_search.Space.entry) ->
      let l = Mcf_search.Space.lowered e in
      Alcotest.(check bool) "validity" true (Result.is_ok l.validity);
      Alcotest.(check bool) "rule 4 honoured" true
        (Mcf_model.Shmem.within_budget a100 ~slack:1.2 l))
    entries

let test_enumerate_attention_excludes_partial_softmax () =
  let entries, _ = Mcf_search.Space.enumerate a100 attn in
  List.iter
    (fun (e : Mcf_search.Space.entry) ->
      Alcotest.(check bool) "no invalid softmax schedules" true
        (Result.is_ok
           (Skeleton.validate
              (Mcf_ir.Lower.program (Mcf_search.Space.lowered e)))))
    entries

let test_enumerate_deterministic () =
  let e1, _ = Mcf_search.Space.enumerate a100 small_gemm in
  let e2, _ = Mcf_search.Space.enumerate a100 small_gemm in
  Alcotest.(check (list string)) "same order, same set"
    (List.map (fun (e : Mcf_search.Space.entry) -> Candidate.key e.cand) e1)
    (List.map (fun (e : Mcf_search.Space.entry) -> Candidate.key e.cand) e2)

(* --- Explore ----------------------------------------------------------------- *)

let exhaustive_best entries =
  List.filter_map
    (fun (e : Mcf_search.Space.entry) ->
      match Mcf_codegen.Compile.compile a100 (Mcf_search.Space.lowered e) with
      | Error _ -> None
      | Ok k -> (
        match Mcf_gpu.Sim.run a100 k with
        | Ok v -> Some v.time_s
        | Error _ -> None))
    entries
  |> Mcf_util.Listx.min_by Fun.id

let test_explore_empty () =
  let rng = Mcf_util.Rng.create 1 in
  let clock = Mcf_gpu.Clock.create () in
  Alcotest.(check bool) "empty space" true
    (Mcf_search.Explore.run ~scores:[||] ~rng ~clock a100 [] = None)

let test_explore_rejects_misaligned_scores () =
  (* Scores come from the enumeration and are never recomputed, so a
     length mismatch is a caller bug, not something to paper over. *)
  let entries, scores, _ = Mcf_search.Space.enumerate_scored a100 small_gemm in
  let run scores entries () =
    let rng = Mcf_util.Rng.create 1 in
    let clock = Mcf_gpu.Clock.create () in
    ignore (Mcf_search.Explore.run ~scores ~rng ~clock a100 entries)
  in
  let rejected =
    Invalid_argument "Explore.run: scores are not index-aligned with entries"
  in
  Alcotest.check_raises "one score short" rejected
    (run (Array.sub scores 0 (Array.length scores - 1)) entries);
  Alcotest.check_raises "no scores" rejected (run [||] entries);
  Alcotest.check_raises "scores for an empty space" rejected (run scores [])

let test_explore_rejects_foreign_entries () =
  (* The loop mutates enumeration ranks, so the pool must be one
     enumeration's entries in rank order. *)
  let entries, scores, _ = Mcf_search.Space.enumerate_scored a100 small_gemm in
  let run entries () =
    let rng = Mcf_util.Rng.create 1 in
    let clock = Mcf_gpu.Clock.create () in
    ignore (Mcf_search.Explore.run ~scores ~rng ~clock a100 entries)
  in
  let rejected =
    Invalid_argument "Explore.run: entries are not one enumeration's"
  in
  Alcotest.check_raises "make_entry entries" rejected
    (run
       (List.map
          (fun (e : Mcf_search.Space.entry) ->
            Mcf_search.Space.make_entry e.ctx e.cand)
          entries));
  Alcotest.check_raises "reversed enumeration" rejected (run (List.rev entries))

let test_explore_near_optimal () =
  let entries, scores, _ = Mcf_search.Space.enumerate_scored a100 small_gemm in
  let best = Option.get (exhaustive_best entries) in
  let rng = Mcf_util.Rng.create 2024 in
  let clock = Mcf_gpu.Clock.create () in
  match Mcf_search.Explore.run ~scores ~rng ~clock a100 entries with
  | None -> Alcotest.fail "search found nothing"
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "found %.2fus vs optimum %.2fus" (r.best_time_s *. 1e6)
         (best *. 1e6))
      true
      (r.best_time_s <= best *. 1.15)

let test_explore_charges_clock () =
  let entries, scores, _ = Mcf_search.Space.enumerate_scored a100 small_gemm in
  let rng = Mcf_util.Rng.create 7 in
  let clock = Mcf_gpu.Clock.create () in
  (match Mcf_search.Explore.run ~scores ~rng ~clock a100 entries with
  | Some r ->
    Alcotest.(check bool) "measured some" true (r.stats.measured > 0);
    Alcotest.(check bool) "clock >= compile costs" true
      (Mcf_gpu.Clock.elapsed_s clock
      >= 0.5 *. float_of_int r.stats.measured)
  | None -> Alcotest.fail "search found nothing")

let test_explore_deterministic_given_seed () =
  let entries, scores, _ = Mcf_search.Space.enumerate_scored a100 small_gemm in
  let run seed =
    let rng = Mcf_util.Rng.create seed in
    let clock = Mcf_gpu.Clock.create () in
    match Mcf_search.Explore.run ~scores ~rng ~clock a100 entries with
    | Some r -> Candidate.key r.best.cand
    | None -> "none"
  in
  Alcotest.(check string) "same seed, same result" (run 99) (run 99)

let test_explore_custom_estimator () =
  (* a constant objective degrades ranking but must not break the search *)
  let entries, scores, _ =
    Mcf_search.Space.enumerate_scored ~objective:(fun _ -> 1.0) a100 small_gemm
  in
  let rng = Mcf_util.Rng.create 5 in
  let clock = Mcf_gpu.Clock.create () in
  match Mcf_search.Explore.run ~scores ~rng ~clock a100 entries with
  | Some r -> Alcotest.(check bool) "still returns" true (r.best_time_s > 0.0)
  | None -> Alcotest.fail "search found nothing"

let test_measure_failure_is_none () =
  (* an entry that exceeds the device's block shared-memory limit *)
  let options = { Mcf_search.Space.default_options with rule4 = false } in
  let entries, _ = Mcf_search.Space.enumerate ~options a100 paper_gemm in
  let over =
    List.find_opt
      (fun (e : Mcf_search.Space.entry) ->
        Mcf_codegen.Alloc.actual_bytes a100 (Mcf_search.Space.lowered e)
        > a100.smem_per_block)
      entries
  in
  match over with
  | None -> () (* nothing over budget in this space; vacuous *)
  | Some e ->
    let clock = Mcf_gpu.Clock.create () in
    let committed = ref [] in
    Mcf_search.Measure.run_batch (Mcf_search.Measure.create a100) ~clock
      ~compile_cost_s:0.1 ~repeats:1
      ~commit:(fun id r -> committed := (id, r) :: !committed)
      [ (0, e) ];
    Alcotest.(check (list (pair int (option (float 0.0)))))
      "unlaunchable measures to None" [ (0, None) ] !committed;
    Alcotest.(check (float 0.0)) "only the compile is charged" 0.1
      (Mcf_gpu.Clock.elapsed_s clock)

(* --- Tuner ------------------------------------------------------------------- *)

let test_tuner_gemm () =
  match Mcf_search.Tuner.tune a100 small_gemm with
  | Error _ -> Alcotest.fail "tuner failed"
  | Ok o ->
    Alcotest.(check bool) "positive kernel time" true (o.kernel_time_s > 0.0);
    Alcotest.(check bool) "tuning accounted" true (o.tuning_virtual_s > 0.0);
    Alcotest.(check bool) "wall clock sane" true (o.tuning_wall_s >= 0.0);
    Alcotest.(check bool) "funnel populated" true
      (o.funnel.candidates_valid > 0)

let test_tuner_deterministic () =
  let key () =
    match Mcf_search.Tuner.tune ~seed:31337 a100 small_gemm with
    | Ok o -> Candidate.key o.best.cand
    | Error _ -> "fail"
  in
  Alcotest.(check string) "seeded tuner deterministic" (key ()) (key ())

let test_tuner_attention_valid_schedule () =
  match Mcf_search.Tuner.tune a100 attn with
  | Error _ -> Alcotest.fail "tuner failed on attention"
  | Ok o ->
    Alcotest.(check bool) "winner is a valid schedule" true
      (Result.is_ok
         (Skeleton.validate
            (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best))))

let test_tuner_subsumes_chimera_space () =
  (* MCFuser's space contains Chimera's: the tuned result must not lose to
     the deep-only, movement-ranked configuration by more than noise *)
  let full =
    match Mcf_search.Tuner.tune a100 small_gemm with
    | Ok o -> o.kernel_time_s
    | Error _ -> infinity
  in
  match Mcf_baselines.Chimera.backend.tune a100 small_gemm with
  | Ok chimera ->
    Alcotest.(check bool)
      (Printf.sprintf "full %.2fus vs chimera %.2fus" (full *. 1e6)
         (chimera.time_s *. 1e6))
      true
      (full <= chimera.time_s *. 1.10)
  | Error _ -> ()

let test_tuner_mlp_chain () =
  (* unary-epilogue chains tune through the same pipeline *)
  let mlp = Mcf_ir.Chain.mlp_chain ~m:256 ~n:256 ~k:64 ~h:64 () in
  match Mcf_search.Tuner.tune a100 mlp with
  | Error _ -> Alcotest.fail "tuner failed on mlp chain"
  | Ok o ->
    Alcotest.(check bool) "valid winner" true
      (Result.is_ok
         (Skeleton.validate
            (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best))));
    Alcotest.(check bool) "beats unfused execution" true
      (match Mcf_baselines.Pytorch.backend.tune a100 mlp with
      | Ok py -> o.kernel_time_s < py.time_s
      | Error _ -> false)

(* The winner must not just model well — it must compute the right answer.
   Run the tuned best candidate through the interpreter against the
   reference semantics (the fuzz subsystem runs this differential check on
   random chains; this pins it on tuned winners of paper workloads). *)
let test_tuner_winner_executes () =
  let rng = Mcf_util.Rng.create 424242 in
  let inputs_for (chain : Chain.t) =
    List.map
      (fun (ts : Chain.tensor_spec) ->
        let dims = List.map (fun (a : Axis.t) -> a.size) ts.taxes in
        let shape =
          Array.of_list
            (if chain.Chain.batch > 1 then chain.Chain.batch :: dims
             else dims)
        in
        (ts.tname, Mcf_tensor.Tensor.random rng shape))
      (Chain.input_tensors chain)
  in
  List.iter
    (fun (name, chain) ->
      match Mcf_search.Tuner.tune ~seed:7 a100 chain with
      | Error _ -> Alcotest.failf "tuner failed on %s" name
      | Ok o ->
        let inputs = inputs_for chain in
        let got =
          Mcf_interp.Interp.run_candidate chain o.best.cand ~inputs
        in
        let want = Mcf_interp.Interp.reference chain ~inputs in
        Alcotest.(check bool)
          (Printf.sprintf "%s winner computes the chain (|diff|=%g)" name
             (Mcf_tensor.Tensor.max_abs_diff got want))
          true
          (Mcf_tensor.Tensor.approx_equal ~tol:1e-3 got want))
    [ ("gemm", small_gemm);
      ("attention", Chain.attention ~heads:2 ~m:64 ~n:64 ~k:32 ~h:32 ()) ]

let test_tuner_pseudo_and_triton () =
  match Mcf_search.Tuner.tune a100 small_gemm with
  | Error _ -> Alcotest.fail "tuner failed"
  | Ok o ->
    let pseudo = Mcf_search.Tuner.pseudo_code o in
    let triton = Mcf_search.Tuner.triton_source o in
    Alcotest.(check bool) "pseudo-code mentions grid" true
      (String.length pseudo > 0);
    Alcotest.(check bool) "triton source generated" true
      (String.length triton > 0)

let test_tuner_jobs_equality () =
  (* ISSUE 2 acceptance: the tuner's outcome must be bit-identical whatever
     the global pool size -- same best candidate, same funnel, same RNG
     stream (hence same search stats). *)
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
    (fun () ->
      let run jobs chain =
        Mcf_util.Pool.set_jobs jobs;
        match Mcf_search.Tuner.tune ~seed:7 a100 chain with
        | Error _ -> Alcotest.fail "tuner failed"
        | Ok o -> o
      in
      List.iter
        (fun (name, chain) ->
          let a = run 1 chain in
          let b = run 4 chain in
          Alcotest.(check string) (name ^ ": best candidate")
            (Candidate.key a.Mcf_search.Tuner.best.cand)
            (Candidate.key b.Mcf_search.Tuner.best.cand);
          Alcotest.(check (float 0.0)) (name ^ ": kernel time")
            a.kernel_time_s b.kernel_time_s;
          Alcotest.(check (float 0.0)) (name ^ ": virtual tuning time")
            a.tuning_virtual_s b.tuning_virtual_s;
          Alcotest.(check bool) (name ^ ": funnel") true (a.funnel = b.funnel);
          Alcotest.(check bool) (name ^ ": search stats") true
            (a.search_stats = b.search_stats);
          (* Phase durations are wall-clock and so differ across runs, but
             the breakdown must stay non-overlapping: same named phases
             (space.precheck carved out of tuner.enumerate) summing to at
             most the run's own wall time. *)
          List.iter
            (fun (o : Mcf_search.Tuner.outcome) ->
              Alcotest.(check (list string))
                (name ^ ": phase names")
                [ "tuner.enumerate"; "space.precheck"; "tuner.explore";
                  "tuner.measure"; "tuner.codegen" ]
                (List.map fst o.phases);
              Alcotest.(check bool)
                (name ^ ": phases sum within wall clock")
                true
                (List.fold_left (fun acc (_, d) -> acc +. d) 0.0 o.phases
                <= o.tuning_wall_s +. 1e-6))
            [ a; b ])
        [ ("gemm", small_gemm); ("attention", attn) ])

let test_tuner_sampler_identity () =
  (* ISSUE 6 acceptance: resource sampling is strictly observational.  The
     tuner outcome must be bit-identical with sampling on or off, at any
     pool size — same winner, same virtual clock, same funnel, same
     search stats. *)
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Mcf_obs.Resource.stop ();
      Mcf_util.Pool.set_jobs saved)
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
      let run ~jobs ~sampling =
        Mcf_util.Pool.set_jobs jobs;
        (* An aggressive 1ms period maximizes interleaving with the run. *)
        if sampling then Mcf_obs.Resource.start ~period_s:0.001;
        let r = Mcf_search.Tuner.tune ~seed:7 a100 small_gemm in
        Mcf_obs.Resource.stop ();
        match r with
        | Error _ -> Alcotest.fail "tuner failed"
        | Ok o -> fingerprint o
      in
      let base = run ~jobs:1 ~sampling:false in
      List.iter
        (fun (jobs, sampling) ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d sampling=%b" jobs sampling)
            base
            (run ~jobs ~sampling))
        [ (1, true); (4, false); (4, true) ])

let test_tuner_lowers_lazily () =
  (* ISSUE 3 acceptance: with the closed-form model doing estimation and
     validity, [Lower.lower] runs only for candidates that actually reach
     measurement (the winner's codegen re-uses the memoized lowering). *)
  let before = Mcf_ir.Lower.calls () in
  match Mcf_search.Tuner.tune ~seed:11 a100 small_gemm with
  | Error _ -> Alcotest.fail "tuner failed"
  | Ok o ->
    Alcotest.(check int) "Lower.lower calls == measured candidates"
      o.search_stats.measured
      (Mcf_ir.Lower.calls () - before)

(* Outcome fingerprints of paper workloads, captured before the explorer
   moved to index-space mutation and asserted unchanged since: winner
   key, the bits of kernel_time_s and tuning_virtual_s, and the
   generations/estimated/measured counts.  Any change to what the
   evolutionary loop draws from its RNG, or to which candidate a
   mutation lands on, moves a line of this table. *)
let golden_fingerprint ?reservoir spec name seed =
  let chain =
    match Mcf_serve.Protocol.chain_of_workload name with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let label =
    Printf.sprintf "%s %s seed=%d" name spec.Mcf_gpu.Spec.name seed
  in
  match Mcf_search.Tuner.tune ~seed ?reservoir spec chain with
  | Error _ -> (label, "no viable candidate", "")
  | Ok o ->
    let s = o.search_stats in
    ( label,
      Candidate.key o.best.cand,
      Printf.sprintf "%016Lx %016Lx %d/%d/%d"
        (Int64.bits_of_float o.kernel_time_s)
        (Int64.bits_of_float o.tuning_virtual_s)
        s.generations s.estimated s.measured )

let golden_outcomes () =
  List.concat_map
    (fun spec ->
      List.concat_map
        (fun name ->
          List.map (golden_fingerprint spec name) [ 1; 2; 3 ])
        [ "G1"; "G4"; "G10"; "S3"; "S9" ])
    [ a100; Mcf_gpu.Spec.rtx3080 ]
  @ List.concat_map
      (fun name ->
        List.map (golden_fingerprint ~reservoir:512 a100 name) [ 1; 2; 3 ])
      [ "D5"; "D6" ]

let golden_table =
  [ ( "G1 A100 seed=1",
      "mnkh {h=32 k=32 m=16 n=256}",
      "3ed3f692c9b7181d 403caf2c0574ebf6 7/493/41" );
    ( "G1 A100 seed=2",
      "mnkh {h=32 k=64 m=16 n=128}",
      "3ed3b76b4a52dab5 4039126c768114a2 6/493/35" );
    ( "G1 A100 seed=3",
      "mnkh {h=32 k=64 m=16 n=128}",
      "3ed3b76b4a52dab5 40445cd9cde73b28 10/493/61" );
    ( "G4 A100 seed=1",
      "mnkh {h=128 k=256 m=16 n=128}",
      "3ee19aa0aa445f84 40445ba4cc1045f1 10/1139/61" );
    ( "G4 A100 seed=2",
      "mnkh {h=128 k=256 m=16 n=128}",
      "3ee19aa0aa445f84 4047ab440bd884e2 10/1139/72" );
    ( "G4 A100 seed=3",
      "mnkh {h=128 k=256 m=16 n=128}",
      "3ee19aa0aa445f84 404327988852b7da 10/1139/57" );
    ( "G10 A100 seed=1",
      "mnkh {h=64 k=128 m=32 n=128}",
      "3ee6bd33282d803e 4043289560b4629d 9/898/57" );
    ( "G10 A100 seed=2",
      "mn(k,h) {h=64 k=64 m=16 n=256}",
      "3ee55e793530fb0d 4042db5660125949 10/898/56" );
    ( "G10 A100 seed=3",
      "mn(k,h) {h=128 k=128 m=16 n=128}",
      "3ee54b071984e5b4 40445d511b791635 10/898/61" );
    ( "S3 A100 seed=1",
      "mnkh {h=64 k=64 m=128 n=256}",
      "3eeae68049f1eb29 4044a80f133dc936 10/549/62" );
    ( "S3 A100 seed=2",
      "mn(k,h) {h=32 k=64 m=64 n=128}",
      "3ee69c506fa5a23a 4044f5ea27d7ea31 10/549/63" );
    ( "S3 A100 seed=3",
      "mn(k,h) {h=32 k=64 m=64 n=128}",
      "3ee69c506fa5a23a 4045dd2ea172c817 10/549/66" );
    ( "S9 A100 seed=1",
      "mnkh {h=64 k=64 m=16 n=512}",
      "3ed82d448df6af4e 40410bc27d3e170a 10/561/50" );
    ( "S9 A100 seed=2",
      "mnkh {h=64 k=32 m=16 n=512}",
      "3ed7e906dc19ddcd 40440eeca2e8c5c5 10/561/60" );
    ( "S9 A100 seed=3",
      "mnkh {h=64 k=64 m=16 n=256}",
      "3ed830a474a87aa5 40432778dc9aea96 9/561/57" );
    ( "G1 RTX3080 seed=1",
      "mnkh {h=64 k=64 m=16 n=256}",
      "3ed54ec1d02192b2 4043c2caafe19f7a 10/436/59" );
    ( "G1 RTX3080 seed=2",
      "mnkh {h=32 k=64 m=16 n=256}",
      "3ed649896c533bd2 403f17cac263ee88 6/436/45" );
    ( "G1 RTX3080 seed=3",
      "mnkh {h=32 k=64 m=16 n=256}",
      "3ed649896c533bd2 403e7dae3da32e4a 7/436/44" );
    ( "G4 RTX3080 seed=1",
      "mnkh {h=128 k=256 m=16 n=64}",
      "3ee9bee269d1a5bf 40440f6db38e7ca6 10/869/60" );
    ( "G4 RTX3080 seed=2",
      "mnkh {h=128 k=256 m=16 n=64}",
      "3ee9bee269d1a5bf 404026fc9148c91c 10/869/47" );
    ( "G4 RTX3080 seed=3",
      "mnkh {h=128 k=256 m=16 n=64}",
      "3ee9bee269d1a5bf 4048457499ea50c6 10/869/74" );
    ( "G10 RTX3080 seed=1",
      "mnkh {h=128 k=32 m=16 n=256}",
      "3eefab5c604a92b8 40445d1ff21138b0 10/699/61" );
    ( "G10 RTX3080 seed=2",
      "mnkh {h=128 k=32 m=16 n=256}",
      "3eefab5c604a92b8 4044a9d8bafdf0c0 10/699/62" );
    ( "G10 RTX3080 seed=3",
      "mnkh {h=64 k=128 m=32 n=128}",
      "3eefe88f2fb8211d 40475eb2967e95cb 10/699/71" );
    ( "S3 RTX3080 seed=1",
      "mnkh {h=64 k=64 m=128 n=128}",
      "3ef46667d25bacb0 40484554260ae604 10/469/74" );
    ( "S3 RTX3080 seed=2",
      "mnkh {h=64 k=64 m=128 n=128}",
      "3ef46667d25bacb0 4047f8e089bdde74 10/469/73" );
    ( "S3 RTX3080 seed=3",
      "mnkh {h=64 k=64 m=128 n=128}",
      "3ef46667d25bacb0 404629cbeedae800 10/469/67" );
    ( "S9 RTX3080 seed=1",
      "mn(k,h) {h=32 k=64 m=16 n=256}",
      "3eddffffe5fe1684 404890ffbddde729 10/470/75" );
    ( "S9 RTX3080 seed=2",
      "mn(k,h) {h=32 k=64 m=16 n=256}",
      "3eddffffe5fe1684 404710b921e86580 10/470/70" );
    ( "S9 RTX3080 seed=3",
      "mnkh {h=64 k=64 m=16 n=256}",
      "3edc29564b337fa5 40428ce4703b1a54 10/470/55" );
    ( "D5 A100 seed=1",
      "mx4x3x2x1x0x5 {m=16 x0=32 x1=64 x2=64 x3=64 x4=64 x5=32}",
      "3ed36664d784f6b6 4047125f77f05610 10/512/70" );
    ( "D5 A100 seed=2",
      "mx4x3x2x1x0x5 {m=16 x0=32 x1=64 x2=64 x3=64 x4=64 x5=32}",
      "3ed36664d784f6b6 404543ffff19ac31 10/512/64" );
    ( "D5 A100 seed=3",
      "mx4x3x2x1x0x5 {m=16 x0=64 x1=64 x2=64 x3=64 x4=64 x5=64}",
      "3ed32c9c5c638f38 4045de1f242cfed4 10/512/66" );
    ( "D6 A100 seed=1",
      "mx5x4x3x2x1x0x6 {m=16 x0=64 x1=64 x2=64 x3=64 x4=64 x5=64 x6=32}",
      "3ed3a780b0d946dc 40445cd2b16d1b33 10/512/61" );
    ( "D6 A100 seed=2",
      "mx5x4x3x2x1x0x6 {m=16 x0=64 x1=64 x2=64 x3=64 x4=64 x5=64 x6=32}",
      "3ed3a780b0d946dc 40462b32f2073f90 10/512/67" );
    ( "D6 A100 seed=3",
      "mx5x4x3x2x1(x0,,,,,x6) {m=16 x0=64 x1=64 x2=64 x3=64 x4=64 x5=32 x6=32}",
      "3ed47db6ce5bd121 403c150109232b00 5/512/40" ) ]

let test_tuner_golden_outcomes () =
  Alcotest.(check (list (triple string string string)))
    "outcome fingerprints" golden_table
    (golden_outcomes ())

(* Search regret against the exhaustive optimum: every entry the
   enumeration returns is measured through [Measure], the tuner runs
   with its default seed, and the row records the optimum (ties toward
   the earlier entry), the winner, the regret, the optimum's rank in the
   model's (estimate, entry) order and the measured count.  Besides
   guarding search quality, the table pins the lowering of every
   returned entry, not only of the winners. *)
let table_names =
  List.map
    (fun (g : Mcf_workloads.Configs.gemm_config) -> g.gname)
    Mcf_workloads.Configs.gemm_chains
  @ List.map
      (fun (s : Mcf_workloads.Configs.attention_config) -> s.sname)
      Mcf_workloads.Configs.attentions

let regret_row ?reservoir spec name =
  let chain =
    match Mcf_serve.Protocol.chain_of_workload name with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let entries, scores, _ =
    Mcf_search.Space.enumerate_scored ?reservoir spec chain
  in
  let entries = Array.of_list entries in
  (* The explorer ranks the pool by estimate and by traffic with
     [Idsort.by_key]; each ranking must be [Array.sort]'s whole
     permutation, ties included, or the winners below would move. *)
  List.iter
    (fun (what, proj) ->
      let key = Array.map proj scores in
      let want = Array.init (Array.length key) Fun.id in
      Array.sort (fun a b -> Float.compare key.(a) key.(b)) want;
      let got = Array.init (Array.length key) Fun.id in
      Mcf_util.Idsort.by_key key got;
      Alcotest.(check (array int))
        (Printf.sprintf "%s %s %s ranking" name spec.Mcf_gpu.Spec.name what)
        want got)
    [ ("estimate", fst); ("traffic", snd) ];
  let times = Array.make (Array.length entries) None in
  Mcf_search.Measure.run_batch
    (Mcf_search.Measure.create spec)
    ~clock:(Mcf_gpu.Clock.create ()) ~compile_cost_s:0.0 ~repeats:1
    ~commit:(fun i t -> times.(i) <- t)
    (List.init (Array.length entries) (fun i -> (i, entries.(i))));
  let opt = ref (-1) in
  Array.iteri
    (fun i t ->
      match (t, !opt) with
      | Some t, o when o < 0 || t < Option.get times.(o) -> opt := i
      | _ -> ())
    times;
  let opt = !opt in
  let opt_s = Option.get times.(opt) in
  let before (i : int) =
    let ei = fst scores.(i) and eo = fst scores.(opt) in
    ei < eo || (ei = eo && i < opt)
  in
  let rank =
    Seq.fold_left
      (fun acc i -> if before i then acc + 1 else acc)
      0
      (Seq.init (Array.length entries) Fun.id)
  in
  let label =
    Printf.sprintf "%s %s%s" name spec.Mcf_gpu.Spec.name
      (match reservoir with
      | Some r -> Printf.sprintf " res=%d" r
      | None -> "")
  in
  match Mcf_search.Tuner.tune ?reservoir spec chain with
  | Error _ -> Alcotest.failf "%s: no viable candidate" label
  | Ok o ->
    ( label,
      Printf.sprintf "opt %s %016Lx rank=%d"
        (Candidate.key entries.(opt).cand)
        (Int64.bits_of_float opt_s) rank,
      Printf.sprintf "won %s %016Lx regret=%.2f%% measured=%d"
        (Candidate.key o.best.cand)
        (Int64.bits_of_float o.kernel_time_s)
        (100.0 *. ((o.kernel_time_s /. opt_s) -. 1.0))
        o.search_stats.measured )

let regret_rows () =
  List.concat_map
    (fun spec -> List.map (regret_row spec) table_names)
    [ a100; Mcf_gpu.Spec.rtx3080 ]
  @ List.map (regret_row ~reservoir:512 a100) [ "D5"; "D6" ]

let regret_table =
  [ ( "G1 A100",
      "opt mnkh {h=64 k=64 m=16 n=256} 3ed375fa1a34d133 rank=77",
      "won mnkh {h=32 k=32 m=16 n=256} 3ed3f692c9b7181d regret=2.58% measured=32" );
    ( "G2 A100",
      "opt mnkh {h=64 k=64 m=16 n=256} 3ed4593e539647fe rank=63",
      "won mnkh {h=64 k=64 m=16 n=256} 3ed4593e539647fe regret=0.00% measured=58" );
    ( "G3 A100",
      "opt mnkh {h=128 k=64 m=16 n=256} 3ed5624fd67ed54a rank=124",
      "won mnkh {h=128 k=32 m=16 n=256} 3ed5b395b5b4c472 regret=1.48% measured=57" );
    ( "G4 A100",
      "opt mnkh {h=128 k=256 m=16 n=128} 3ee19aa0aa445f84 rank=52",
      "won mnkh {h=128 k=256 m=16 n=128} 3ee19aa0aa445f84 regret=0.00% measured=64" );
    ( "G5 A100",
      "opt mnkh {h=128 k=512 m=16 n=64} 3ee807f21dc16008 rank=138",
      "won mnkh {h=128 k=256 m=16 n=128} 3ee81875f9ce4a10 regret=0.27% measured=62" );
    ( "G6 A100",
      "opt mn(k,h) {h=256 k=256 m=16 n=128} 3ef20b7394d23b39 rank=136",
      "won mn(k,h) {h=64 k=64 m=16 n=512} 3ef2a6856a0f126a regret=3.36% measured=53" );
    ( "G7 A100",
      "opt mnkh {h=64 k=128 m=16 n=256} 3ed9995f1782148b rank=58",
      "won mnkh {h=64 k=128 m=16 n=128} 3eda67db767b7b21 regret=3.15% measured=50" );
    ( "G8 A100",
      "opt mn(k,h) {h=128 k=128 m=16 n=128} 3edd015d53bbb827 rank=212",
      "won mn(k,h) {h=64 k=32 m=16 n=512} 3edd8da95b47f3da regret=1.89% measured=66" );
    ( "G9 A100",
      "opt mnkh {h=128 k=128 m=32 n=256} 3ee16bddb6fef5f3 rank=57",
      "won mn(k,h) {h=128 k=128 m=32 n=256} 3ee181f95221225d regret=0.50% measured=59" );
    ( "G10 A100",
      "opt mn(k,h) {h=128 k=128 m=16 n=256} 3ee4a1cc0ba42d59 rank=223",
      "won mnkh {h=128 k=128 m=16 n=128} 3ee583bf69152264 regret=4.28% measured=66" );
    ( "G11 A100",
      "opt mn(k,h) {h=64 k=128 m=32 n=64} 3ef2ca37b9f09d55 rank=141",
      "won mnkh {h=128 k=128 m=64 n=128} 3ef4927227fa23cb regret=9.48% measured=62" );
    ( "G12 A100",
      "opt mn(k,h) {h=64 k=128 m=64 n=64} 3efb6484220d0a5d rank=42",
      "won mn(k,h) {h=64 k=128 m=64 n=64} 3efb6484220d0a5d regret=0.00% measured=69" );
    ( "S1 A100",
      "opt mn(k,h) {h=64 k=64 m=32 n=64} 3ee1a1d918da1f8f rank=111",
      "won mn(k,h) {h=32 k=64 m=64 n=256} 3ee2c0982f1fe5e2 regret=6.35% measured=45" );
    ( "S2 A100",
      "opt mnkh {h=64 k=64 m=64 n=256} 3ee3235748dc9b80 rank=13",
      "won mnkh {h=64 k=64 m=64 n=256} 3ee3235748dc9b80 regret=0.00% measured=70" );
    ( "S3 A100",
      "opt mn(k,h) {h=32 k=64 m=64 n=128} 3ee69c506fa5a23a rank=33",
      "won mn(k,h) {h=16 k=16 m=64 n=256} 3eea332af0282578 regret=15.87% measured=54" );
    ( "S4 A100",
      "opt mnkh {h=64 k=64 m=32 n=256} 3ed860eb8d7a6383 rank=35",
      "won mn(k,h) {h=64 k=32 m=32 n=256} 3ed950ef18f5503d regret=3.85% measured=53" );
    ( "S5 A100",
      "opt mn(k,h) {h=64 k=64 m=64 n=256} 3edb86d736a42081 rank=11",
      "won mn(k,h) {h=64 k=64 m=64 n=256} 3edb86d736a42081 regret=0.00% measured=63" );
    ( "S6 A100",
      "opt mn(k,h) {h=80 k=80 m=64 n=256} 3ede28138dc21e98 rank=5",
      "won mn(k,h) {h=80 k=80 m=64 n=256} 3ede28138dc21e98 regret=0.00% measured=62" );
    ( "S7 A100",
      "opt mnkh {h=64 k=64 m=16 n=256} 3ed3e9902e07df16 rank=43",
      "won mnkh {h=32 k=64 m=16 n=256} 3ed41469973fdf00 regret=0.84% measured=61" );
    ( "S8 A100",
      "opt mnkh {h=32 k=64 m=16 n=384} 3ed5a93078a3e50b rank=179",
      "won mnkh {h=32 k=32 m=32 n=384} 3ed7636a303f9bd6 regret=7.97% measured=79" );
    ( "S9 A100",
      "opt mnkh {h=64 k=32 m=16 n=512} 3ed7e906dc19ddcd rank=126",
      "won mnkh {h=64 k=32 m=16 n=512} 3ed7e906dc19ddcd regret=0.00% measured=59" );
    ( "G1 RTX3080",
      "opt mnkh {h=64 k=64 m=16 n=256} 3ed54ec1d02192b2 rank=75",
      "won mnkh {h=32 k=64 m=32 n=256} 3ed65fa910b5841c regret=5.00% measured=59" );
    ( "G2 RTX3080",
      "opt mnkh {h=32 k=64 m=32 n=256} 3ed6e499f29a1fae rank=13",
      "won mnkh {h=32 k=64 m=32 n=256} 3ed6e499f29a1fae regret=0.00% measured=68" );
    ( "G3 RTX3080",
      "opt mnkh {h=64 k=64 m=32 n=128} 3ed9318b3f223e37 rank=23",
      "won mnkh {h=64 k=64 m=32 n=128} 3ed9318b3f223e37 regret=0.00% measured=61" );
    ( "G4 RTX3080",
      "opt mnkh {h=128 k=256 m=16 n=64} 3ee9bee269d1a5bf rank=68",
      "won mnkh {h=128 k=256 m=16 n=64} 3ee9bee269d1a5bf regret=0.00% measured=66" );
    ( "G5 RTX3080",
      "opt mn(k,h) {h=128 k=128 m=16 n=128} 3ef2b4493651b84c rank=134",
      "won mn(k,h) {h=32 k=128 m=16 n=256} 3ef3892842d8fd5f regret=4.45% measured=65" );
    ( "G6 RTX3080",
      "opt mn(k,h) {h=64 k=256 m=16 n=128} 3efb902c6849dc87 rank=111",
      "won mn(k,h) {h=32 k=64 m=16 n=256} 3efdb7278989d4d9 regret=7.81% measured=57" );
    ( "G7 RTX3080",
      "opt mnkh {h=64 k=128 m=16 n=128} 3ee119523cf12fc1 rank=84",
      "won mnkh {h=64 k=32 m=16 n=256} 3ee20896aaa704fb regret=5.47% measured=66" );
    ( "G8 RTX3080",
      "opt mn(k,h) {h=128 k=128 m=16 n=128} 3ee37cd9147fd87d rank=174",
      "won mnkh {h=128 k=128 m=16 n=128} 3ee4225a8d79a41d regret=3.32% measured=69" );
    ( "G9 RTX3080",
      "opt mnkh {h=128 k=128 m=32 n=128} 3ee860e8f0736324 rank=44",
      "won mnkh {h=128 k=128 m=32 n=128} 3ee860e8f0736324 regret=0.00% measured=53" );
    ( "G10 RTX3080",
      "opt mn(k,h) {h=128 k=128 m=16 n=128} 3eedb8cada8215ab rank=174",
      "won mnkh {h=64 k=128 m=32 n=128} 3eefe88f2fb8211d regret=7.36% measured=66" );
    ( "G11 RTX3080",
      "opt mn(k,h) {h=64 k=128 m=64 n=128} 3effcbc02c06debe rank=21",
      "won mn(k,h) {h=64 k=128 m=64 n=128} 3effcbc02c06debe regret=0.00% measured=69" );
    ( "G12 RTX3080",
      "opt mn(k,h) {h=128 k=128 m=128 n=64} 3f0b3ada678b416f rank=14",
      "won mn(k,h) {h=128 k=128 m=128 n=64} 3f0b3ada678b416f regret=0.00% measured=84" );
    ( "S1 RTX3080",
      "opt mn(k,h) {h=32 k=64 m=64 n=256} 3eea02e19fbf7b03 rank=5",
      "won mn(k,h) {h=32 k=64 m=64 n=256} 3eea02e19fbf7b03 regret=0.00% measured=66" );
    ( "S2 RTX3080",
      "opt mn(k,h) {h=32 k=64 m=64 n=64} 3ef2b551a2d56ecb rank=23",
      "won mn(k,h) {h=32 k=64 m=64 n=64} 3ef2b551a2d56ecb regret=0.00% measured=62" );
    ( "S3 RTX3080",
      "opt mnkh {h=64 k=64 m=128 n=128} 3ef46667d25bacb0 rank=3",
      "won mnkh {h=64 k=64 m=128 n=128} 3ef46667d25bacb0 regret=0.00% measured=65" );
    ( "S4 RTX3080",
      "opt mnkh {h=64 k=64 m=32 n=64} 3ee11c35963c6add rank=69",
      "won mnkh {h=64 k=32 m=64 n=256} 3ee1208a5e275379 regret=0.10% measured=59" );
    ( "S5 RTX3080",
      "opt mnkh {h=64 k=64 m=64 n=128} 3ee1658db8381901 rank=15",
      "won mnkh {h=64 k=64 m=64 n=128} 3ee1658db8381901 regret=0.00% measured=66" );
    ( "S6 RTX3080",
      "opt mnkh {h=80 k=80 m=64 n=128} 3ee3dede0e866388 rank=7",
      "won mnkh {h=80 k=80 m=64 n=128} 3ee3dede0e866388 regret=0.00% measured=59" );
    ( "S7 RTX3080",
      "opt mnkh {h=64 k=64 m=16 n=256} 3ed5dd2597999f94 rank=62",
      "won mnkh {h=32 k=64 m=16 n=256} 3ed615546eabe495 regret=1.00% measured=53" );
    ( "S8 RTX3080",
      "opt mnkh {h=64 k=32 m=16 n=384} 3ed90560797f8cc2 rank=260",
      "won mnkh {h=32 k=32 m=32 n=384} 3edcca03a6941f70 regret=15.06% measured=50" );
    ( "S9 RTX3080",
      "opt mnkh {h=64 k=64 m=16 n=256} 3edc29564b337fa5 rank=128",
      "won mn(k,h) {h=64 k=32 m=16 n=256} 3edd4d5b2febcf2b regret=4.05% measured=54" );
    ( "D5 A100 res=512",
      "opt mx4x3x2x1x0x5 {m=16 x0=64 x1=64 x2=64 x3=64 x4=64 x5=64} 3ed32c9c5c638f38 rank=10",
      "won mx4x3x2x1x0x5 {m=16 x0=32 x1=64 x2=64 x3=64 x4=64 x5=32} 3ed36664d784f6b6 regret=1.18% measured=64" );
    ( "D6 A100 res=512",
      "opt mx5x4x3x2x1x0x6 {m=16 x0=64 x1=64 x2=64 x3=64 x4=64 x5=64 x6=32} 3ed3a780b0d946dc rank=61",
      "won mx5x4x3x2x1x0x6 {m=16 x0=64 x1=64 x2=64 x3=64 x4=32 x5=64 x6=32} 3ed445f5b353a1e5 regret=3.15% measured=39" ) ]

let test_tuner_regret () =
  Alcotest.(check (list (triple string string string)))
    "regret rows" regret_table (regret_rows ())

(* Run [f] at pool size [jobs], restoring the old size afterwards. *)
let at_jobs jobs f =
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
    (fun () ->
      Mcf_util.Pool.set_jobs jobs;
      f ())

let workload_chain name =
  match Mcf_serve.Protocol.chain_of_workload name with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let entries_built () = Mcf_obs.Metrics.counter_value "space.entries_built"

(* The tuner builds an entry (candidate plus lowering cell) only for the
   points it measures: the winner is one of them, and the rest of the
   space stays flat ranks and scores.  The adapters still build one per
   point. *)
let test_tuner_builds_measured_entries () =
  List.iter
    (fun jobs ->
      at_jobs jobs (fun () ->
          List.iter
            (fun name ->
              let before = entries_built () in
              match Mcf_search.Tuner.tune a100 (workload_chain name) with
              | Error _ -> Alcotest.failf "%s: no viable candidate" name
              | Ok o ->
                Alcotest.(check int)
                  (Printf.sprintf "%s jobs=%d: entries built = measured" name
                     jobs)
                  o.search_stats.measured
                  (entries_built () - before))
            [ "G1"; "S3" ]))
    [ 1; 4 ];
  let before = entries_built () in
  let entries, _ = Mcf_search.Space.enumerate a100 small_gemm in
  Alcotest.(check int) "enumerate builds one entry per candidate"
    (List.length entries)
    (entries_built () - before)

(* [Explore.run ~scores] over [Space.enumerate_scored]'s entries is the
   path the benchmark's traced replay takes; for the same seed it must
   give the tuner's outcome bit for bit, including the virtual clock
   (the tuner charges 4 s of framework start-up between the stages). *)
let test_adapters_reproduce_tuner () =
  let via_adapters ?reservoir ~seed spec chain =
    let entries, scores, _ =
      Mcf_search.Space.enumerate_scored ?reservoir spec chain
    in
    let rng = Mcf_util.Rng.create seed in
    let clock = Mcf_gpu.Clock.create () in
    Mcf_gpu.Clock.charge clock 4.0;
    match Mcf_search.Explore.run ~scores ~rng ~clock spec entries with
    | None -> "no viable candidate"
    | Some r ->
      Printf.sprintf "%s %h %h %d/%d/%d"
        (Candidate.key r.best.cand)
        r.best_time_s
        (Mcf_gpu.Clock.elapsed_s clock)
        r.stats.generations r.stats.estimated r.stats.measured
  in
  let via_tuner ?reservoir ~seed spec chain =
    match Mcf_search.Tuner.tune ?reservoir ~seed spec chain with
    | Error _ -> "no viable candidate"
    | Ok o ->
      let s = o.search_stats in
      Printf.sprintf "%s %h %h %d/%d/%d"
        (Candidate.key o.best.cand)
        o.kernel_time_s o.tuning_virtual_s s.generations s.estimated
        s.measured
  in
  let keys =
    List.concat_map
      (fun spec -> List.map (fun name -> (spec, name, None)) table_names)
      [ a100; Mcf_gpu.Spec.rtx3080 ]
    @ [ (a100, "D5", Some 64) ]
  in
  List.iter
    (fun jobs ->
      at_jobs jobs (fun () ->
          List.iter
            (fun ((spec : Mcf_gpu.Spec.t), name, reservoir) ->
              let chain = workload_chain name in
              let seed =
                Mcf_util.Hashing.seed (name ^ "|" ^ spec.name ^ "|adapters")
              in
              Alcotest.(check string)
                (Printf.sprintf "%s %s jobs=%d" name spec.name jobs)
                (via_tuner ?reservoir ~seed spec chain)
                (via_adapters ?reservoir ~seed spec chain))
            keys))
    [ 1; 4 ]

let () =
  Alcotest.run "mcf_search"
    [ ( "space",
        [ Alcotest.test_case "paper raw cardinality" `Quick
            test_raw_cardinality_paper;
          Alcotest.test_case "paper funnel" `Quick test_funnel_paper_example;
          Alcotest.test_case "rule 3 power of two" `Quick
            test_rule3_power_of_two;
          Alcotest.test_case "rule 3 padding" `Quick
            test_rule3_padding_threshold;
          Alcotest.test_case "rule 2 structural" `Quick test_rule2_structural;
          Alcotest.test_case "flat in default space" `Quick
            test_flat_included_by_default;
          Alcotest.test_case "entries valid" `Quick test_enumerate_all_valid;
          Alcotest.test_case "attention legality" `Quick
            test_enumerate_attention_excludes_partial_softmax;
          Alcotest.test_case "deterministic" `Quick test_enumerate_deterministic
        ] );
      ( "explore",
        [ Alcotest.test_case "empty space" `Quick test_explore_empty;
          Alcotest.test_case "near optimal" `Quick test_explore_near_optimal;
          Alcotest.test_case "charges clock" `Quick test_explore_charges_clock;
          Alcotest.test_case "deterministic" `Quick
            test_explore_deterministic_given_seed;
          Alcotest.test_case "custom estimator" `Quick
            test_explore_custom_estimator;
          Alcotest.test_case "misaligned scores rejected" `Quick
            test_explore_rejects_misaligned_scores;
          Alcotest.test_case "foreign entries rejected" `Quick
            test_explore_rejects_foreign_entries;
          Alcotest.test_case "unlaunchable candidate" `Quick
            test_measure_failure_is_none ] );
      ( "tuner",
        [ Alcotest.test_case "gemm chain" `Quick test_tuner_gemm;
          Alcotest.test_case "deterministic" `Quick test_tuner_deterministic;
          Alcotest.test_case "attention validity" `Quick
            test_tuner_attention_valid_schedule;
          Alcotest.test_case "subsumes chimera" `Quick
            test_tuner_subsumes_chimera_space;
          Alcotest.test_case "mlp chain" `Quick test_tuner_mlp_chain;
          Alcotest.test_case "winner executes correctly" `Quick
            test_tuner_winner_executes;
          Alcotest.test_case "renders output" `Quick
            test_tuner_pseudo_and_triton;
          Alcotest.test_case "identical at jobs 1 vs 4" `Quick
            test_tuner_jobs_equality;
          Alcotest.test_case "identical with sampling on/off" `Quick
            test_tuner_sampler_identity;
          Alcotest.test_case "lowers lazily" `Quick test_tuner_lowers_lazily;
          Alcotest.test_case "golden outcomes" `Quick
            test_tuner_golden_outcomes;
          Alcotest.test_case "regret" `Quick test_tuner_regret;
          Alcotest.test_case "entries built = measured" `Quick
            test_tuner_builds_measured_entries;
          Alcotest.test_case "adapters reproduce the tuner" `Quick
            test_adapters_reproduce_tuner ] ) ]
