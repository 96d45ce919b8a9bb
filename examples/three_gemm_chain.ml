(* Fusing a chain of THREE compute-intensive operators.

     dune exec examples/three_gemm_chain.exe

   The paper's analysis "naturally extends to scenarios with more
   compute-intensive operators" (§III-A); this example exercises that
   extension: G = ((A x B) x D) x F with two intermediates kept in shared
   memory.  The search space now has 5 cross-tile loops (120 deep
   permutations plus flat forms), and the winning schedule is verified
   numerically. *)

let () =
  let spec = Mcf_gpu.Spec.a100 in
  let chain = Mcf_ir.Chain.gemm_chain3 ~m:512 ~n:128 ~k:64 ~h:128 ~p:64 () in
  Printf.printf "chain: %s\n\n" (Format.asprintf "%a" Mcf_ir.Chain.pp chain);

  (* structural space: 5 loops *)
  let deep = List.length (Mcf_ir.Tiling.enumerate_deep chain) in
  let flat = List.length (Mcf_ir.Tiling.enumerate_flat chain) in
  Printf.printf "tiling expressions: %d deep + %d flat\n" deep flat;

  let outcome =
    match Mcf_search.Tuner.tune spec chain with
    | Ok o -> o
    | Error Mcf_search.Tuner.No_viable_candidate -> failwith "unfusable"
  in
  Printf.printf
    "pruned space: %d candidates; best %s at %s (%d measured)\n\n"
    outcome.funnel.candidates_valid
    (Mcf_ir.Candidate.to_string outcome.best.cand)
    (Mcf_util.Table.fmt_time_s outcome.kernel_time_s)
    outcome.search_stats.measured;
  print_string (Mcf_search.Tuner.pseudo_code outcome);

  (* unfused comparison: three library GEMMs *)
  (match Mcf_baselines.Pytorch.backend.tune spec chain with
  | Ok py ->
    Printf.printf "\nunfused 3-GEMM execution: %s -> fused speedup %.2fx\n"
      (Mcf_util.Table.fmt_time_s py.time_s)
      (py.time_s /. outcome.kernel_time_s)
  | Error _ -> ());

  (* numeric verification on a scaled-down instance *)
  let small = Mcf_ir.Chain.gemm_chain3 ~m:64 ~n:48 ~k:32 ~h:48 ~p:32 () in
  let o =
    match Mcf_search.Tuner.tune spec small with
    | Ok o -> o
    | Error _ -> failwith "unfusable"
  in
  let rng = Mcf_util.Rng.create 11 in
  let inputs =
    List.map
      (fun (ts : Mcf_ir.Chain.tensor_spec) ->
        let shape =
          Array.of_list (List.map (fun (a : Mcf_ir.Axis.t) -> a.size) ts.taxes)
        in
        (ts.tname, Mcf_tensor.Tensor.random rng shape))
      (Mcf_ir.Chain.input_tensors small)
  in
  let fused =
    Mcf_interp.Interp.run ~inputs
      (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best))
  in
  let reference = Mcf_interp.Interp.reference small ~inputs in
  Printf.printf "\nnumeric check (64x48x32x48x32): max diff %.2e -> %s\n"
    (Mcf_tensor.Tensor.max_abs_diff fused reference)
    (if Mcf_tensor.Tensor.approx_equal ~tol:1e-3 fused reference then "PASS"
     else "FAIL")
