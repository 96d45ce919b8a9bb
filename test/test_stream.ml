(* Tests for the streaming enumeration pipeline: the lazy tiling
   generators, deep-chain workloads, the bounded reservoir, the scores
   the stream hands the explorer, and — the load-bearing property — that
   the streamed pipeline is indistinguishable from the materialized
   reference path: same funnel, same candidate set in the same order,
   same tuner winner, at any pool size. *)

open Mcf_ir
module Space = Mcf_search.Space

let a100 = Mcf_gpu.Spec.a100
let paper_gemm = Chain.gemm_chain ~m:1024 ~n:1024 ~k:512 ~h:512 ()
let small_gemm = Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 ()
let attn = Chain.attention ~heads:8 ~m:512 ~n:512 ~k:64 ~h:64 ()
let gemm3 = Chain.gemm_chain3 ~m:256 ~n:128 ~k:64 ~h:64 ~p:64 ()

let with_jobs jobs f =
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
    (fun () ->
      Mcf_util.Pool.set_jobs jobs;
      f ())

(* --- lazy tiling generators ------------------------------------------------- *)

let tiling_keys l = List.map Tiling.to_string l

let test_seq_matches_enumerate () =
  List.iter
    (fun (name, chain) ->
      Alcotest.(check (list string))
        (name ^ ": seq = enumerate")
        (tiling_keys (Tiling.enumerate chain))
        (tiling_keys (List.of_seq (Tiling.seq chain)));
      Alcotest.(check int)
        (name ^ ": count = |enumerate|")
        (List.length (Tiling.enumerate chain))
        (Tiling.count chain))
    [ ("small_gemm", small_gemm);
      ("attention", attn);
      ("gemm3", gemm3);
      ("deep-5", Chain.gemm_chain_n ~m:32 ~dims:[ 16; 16; 16; 16; 16; 16 ] ())
    ]

let test_count_paper_example () =
  (* The closed form feeds [raw_cardinality]; the paper's 26 expressions
     for the 2-block GEMM chain must survive the streaming rewrite. *)
  Alcotest.(check int) "26 tilings" 26 (Tiling.count paper_gemm)

(* --- deep-chain workloads --------------------------------------------------- *)

let test_deep_configs_validate () =
  List.iter
    (fun (d : Mcf_workloads.Configs.deep_config) ->
      let chain = Mcf_workloads.Configs.deep_chain d in
      (match Chain.validate chain with
      | Ok () -> ()
      | Error e -> Alcotest.fail (d.dname ^ ": " ^ e));
      Alcotest.(check int)
        (d.dname ^ ": blocks")
        d.dblocks
        (List.length chain.Chain.blocks);
      (* blocks + 2 axes: m, x0..x_{blocks}. *)
      Alcotest.(check int)
        (d.dname ^ ": axes")
        (d.dblocks + 2)
        (List.length chain.Chain.axes))
    Mcf_workloads.Configs.deep_chains

let test_deep_chain_reference_execution () =
  (* End-to-end on a scaled-down 5-block chain: tune it (through the
     streaming pipeline, with a reservoir bound), execute the winning
     fused schedule in the interpreter and compare against the
     direct block-by-block reference. *)
  let chain = Chain.gemm_chain_n ~m:32 ~dims:[ 16; 16; 16; 16; 16; 16 ] () in
  match Mcf_search.Tuner.tune ~seed:11 ~reservoir:64 a100 chain with
  | Error _ -> Alcotest.fail "deep chain did not tune"
  | Ok o ->
    let rng = Mcf_util.Rng.create 3 in
    let inputs =
      List.map
        (fun (ts : Chain.tensor_spec) ->
          let shape =
            Array.of_list (List.map (fun (a : Axis.t) -> a.Axis.size) ts.taxes)
          in
          (ts.tname, Mcf_tensor.Tensor.random rng shape))
        (Chain.input_tensors chain)
    in
    let got =
      Mcf_interp.Interp.run (Space.lowered o.best).program ~inputs
    in
    let want = Mcf_interp.Interp.reference chain ~inputs in
    Alcotest.(check bool) "fused matches reference" true
      (Mcf_tensor.Tensor.approx_equal ~tol:1e-3 got want)

(* --- streamed vs materialized equivalence ----------------------------------- *)

let entry_keys = List.map (fun (e : Space.entry) -> Candidate.key e.cand)

let check_funnels name (a : Space.funnel) (b : Space.funnel) =
  Alcotest.(check int) (name ^ ": tilings_raw") a.tilings_raw b.tilings_raw;
  Alcotest.(check int) (name ^ ": tilings_rule1") a.tilings_rule1
    b.tilings_rule1;
  Alcotest.(check int) (name ^ ": tilings_rule2") a.tilings_rule2
    b.tilings_rule2;
  Alcotest.(check (float 0.0)) (name ^ ": candidates_raw") a.candidates_raw
    b.candidates_raw;
  Alcotest.(check (float 0.0)) (name ^ ": candidates_rule3")
    a.candidates_rule3 b.candidates_rule3;
  Alcotest.(check int) (name ^ ": candidates_rule4") a.candidates_rule4
    b.candidates_rule4;
  Alcotest.(check int) (name ^ ": candidates_valid") a.candidates_valid
    b.candidates_valid

let test_stream_equals_materialized () =
  (* The pipeline's contract: for every workload and at every pool size,
     the streamed path reproduces the materialized reference exactly —
     candidate set, order, and funnel. *)
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun (name, chain) ->
              let name = Printf.sprintf "%s@jobs=%d" name jobs in
              let se, sf = Space.enumerate a100 chain in
              let me, mf = Space.enumerate_materialized a100 chain in
              check_funnels name sf mf;
              Alcotest.(check (list string))
                (name ^ ": candidates")
                (entry_keys me) (entry_keys se))
            [ ("small_gemm", small_gemm);
              ("paper_gemm", paper_gemm);
              ("attention", attn);
              ("gemm3", gemm3) ]))
    [ 1; 4 ]

let test_streamed_scores_are_analytic () =
  (* The stream is the search's only scorer: every (estimate, traffic)
     pair it returns must be eq. (2)-(5)'s total time and the
     alpha-scaled traffic of the closed-form model, bit for bit. *)
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun (name, chain) ->
              let entries, scores, _ = Space.enumerate_scored a100 chain in
              Alcotest.(check int)
                (Printf.sprintf "%s@jobs=%d: one score per entry" name jobs)
                (List.length entries) (Array.length scores);
              List.iteri
                (fun i (e : Space.entry) ->
                  let what =
                    Printf.sprintf "%s@jobs=%d: %s" name jobs
                      (Candidate.to_string e.cand)
                  in
                  let ev =
                    Mcf_model.Analytic.eval_candidate
                      ~elem_bytes:a100.elem_bytes chain e.cand
                  in
                  let alpha =
                    (ev.blocks +. float_of_int a100.sm_count) /. ev.blocks
                  in
                  let est, traffic = scores.(i) in
                  Alcotest.(check (float 0.0)) (what ^ " estimate")
                    (Mcf_model.Analytic.breakdown a100 chain e.cand)
                      .Mcf_model.Perf.t_total
                    est;
                  Alcotest.(check (float 0.0)) (what ^ " traffic")
                    (ev.traffic_bytes *. alpha) traffic)
                entries)
            [ ("small_gemm", small_gemm);
              ("paper_gemm", paper_gemm);
              ("attention", attn);
              ("gemm3", gemm3) ]))
    [ 1; 4 ]

let test_reservoir_keeps_best_by_estimate () =
  let full, scores, ff = Space.enumerate_scored a100 small_gemm in
  let cap = 40 in
  let kept, _, kf = Space.enumerate_scored ~reservoir:cap a100 small_gemm in
  (* The funnel still reports the whole space ... *)
  check_funnels "funnel unchanged" ff kf;
  Alcotest.(check int) "reservoir size" cap (List.length kept);
  (* ... and the kept slice is exactly the top-[cap] by (estimate, rank),
     in original enumeration order. *)
  let ranked =
    List.mapi
      (fun i (e : Space.entry) -> (fst scores.(i), i, Candidate.key e.cand))
      full
  in
  let expected =
    List.sort
      (fun (ea, ra, _) (eb, rb, _) ->
        match Float.compare ea eb with 0 -> Int.compare ra rb | c -> c)
      ranked
    |> fun l ->
    List.filteri (fun i _ -> i < cap) l
    |> List.sort (fun (_, ra, _) (_, rb, _) -> Int.compare ra rb)
    |> List.map (fun (_, _, k) -> k)
  in
  Alcotest.(check (list string)) "top slice by estimate" expected
    (entry_keys kept)

let test_reservoir_tuner_winner_unchanged () =
  (* small_gemm has ~100 valid candidates; a reservoir big enough to hold
     the explorer's population must elect the same winner. *)
  let tune reservoir =
    match Mcf_search.Tuner.tune ?reservoir ~seed:7 a100 small_gemm with
    | Error _ -> Alcotest.fail "tuner failed"
    | Ok o -> o
  in
  let full = tune None in
  let bounded = tune (Some 64) in
  Alcotest.(check string) "same winner"
    (Candidate.key full.best.cand)
    (Candidate.key bounded.best.cand)

let () =
  Alcotest.run "mcf_stream"
    [ ( "tiling-seq",
        [ Alcotest.test_case "seq = enumerate" `Quick
            test_seq_matches_enumerate;
          Alcotest.test_case "paper count" `Quick test_count_paper_example ] );
      ( "deep-chains",
        [ Alcotest.test_case "configs validate" `Quick
            test_deep_configs_validate;
          Alcotest.test_case "reference execution" `Quick
            test_deep_chain_reference_execution ] );
      ( "equivalence",
        [ Alcotest.test_case "stream = materialized" `Quick
            test_stream_equals_materialized;
          Alcotest.test_case "streamed scores" `Quick
            test_streamed_scores_are_analytic ] );
      ( "reservoir",
        [ Alcotest.test_case "keeps best by estimate" `Quick
            test_reservoir_keeps_best_by_estimate;
          Alcotest.test_case "tuner winner unchanged" `Quick
            test_reservoir_tuner_winner_unchanged ] ) ]
