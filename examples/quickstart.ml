(* Quickstart: fuse a two-GEMM chain with MCFuser.

     dune exec examples/quickstart.exe

   Walks the public API end to end: define an MBCI operator chain, check
   it really is memory-bound on the target device, tune it, inspect the
   winning schedule, and verify the fused kernel numerically against the
   reference operators. *)

let () =
  (* 1. The operator chain:  C = A x B;  E = C x D  (Fig. 3 of the paper),
        with a small reduction dimension K that makes the GEMMs
        memory-bound on an A100. *)
  let chain = Mcf_ir.Chain.gemm_chain ~m:512 ~n:512 ~k:64 ~h:64 () in
  let spec = Mcf_gpu.Spec.a100 in
  Printf.printf "chain: %s\n" (Format.asprintf "%a" Mcf_ir.Chain.pp chain);

  (* 2. Is it MBCI?  Executed operator-by-operator, the intermediate C
        round-trips through global memory; the resulting arithmetic
        intensity against the device roofline is the MBCI test. *)
  let flops = Mcf_ir.Chain.total_flops chain in
  let unfused =
    Mcf_ir.Chain.unfused_traffic_bytes chain ~elem_bytes:spec.elem_bytes
  in
  let fused = Mcf_ir.Chain.min_traffic_bytes chain ~elem_bytes:spec.elem_bytes in
  Printf.printf
    "unfused intensity %.0f FLOPs/byte vs roofline crossover %.0f: %s\n"
    (flops /. unfused)
    (Mcf_gpu.Spec.roofline_ratio spec)
    (if flops /. unfused < Mcf_gpu.Spec.roofline_ratio spec then
       "memory-bound compute-intensive (MBCI) -> fusing helps"
     else "compute-bound -> fusion would not help");
  Printf.printf "perfect fusion cuts traffic %.1fx (%.2g -> %.2g MB)\n\n"
    (unfused /. fused) (unfused /. 1e6) (fused /. 1e6);

  (* 3. Tune. *)
  let outcome =
    match Mcf_search.Tuner.tune spec chain with
    | Ok o -> o
    | Error Mcf_search.Tuner.No_viable_candidate -> failwith "unfusable"
  in
  Printf.printf "best schedule: %s\n"
    (Mcf_ir.Candidate.to_string outcome.best.cand);
  Printf.printf "fused kernel:  %s (%d thread blocks)\n"
    (Mcf_util.Table.fmt_time_s outcome.kernel_time_s)
    outcome.kernel.blocks;
  Printf.printf
    "tuning:        %s virtual, %.2fs wall; %d candidates measured out of %d \
     in the pruned space (raw space %.2g)\n\n"
    (Mcf_util.Table.fmt_time_s outcome.tuning_virtual_s)
    outcome.tuning_wall_s outcome.search_stats.measured
    outcome.funnel.candidates_valid outcome.funnel.candidates_raw;
  print_string (Mcf_search.Tuner.pseudo_code outcome);

  (* 4. Compare against eager execution. *)
  (match Mcf_baselines.Pytorch.backend.tune spec chain with
  | Ok py ->
    Printf.printf "\nPyTorch (unfused): %s -> fused speedup %.2fx\n"
      (Mcf_util.Table.fmt_time_s py.time_s)
      (py.time_s /. outcome.kernel_time_s)
  | Error _ -> ());

  (* 5. Verify the fused schedule on real data (a scaled-down instance so
        the reference interpreter is instant). *)
  let small = Mcf_ir.Chain.gemm_chain ~m:96 ~n:96 ~k:64 ~h:64 () in
  let o =
    match Mcf_search.Tuner.tune spec small with
    | Ok o -> o
    | Error _ -> failwith "unfusable"
  in
  let rng = Mcf_util.Rng.create 42 in
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
  Printf.printf "\nnumeric check on 96x96x64x64: max |fused - reference| = %.2e -> %s\n"
    (Mcf_tensor.Tensor.max_abs_diff fused reference)
    (if Mcf_tensor.Tensor.approx_equal ~tol:1e-3 fused reference then "PASS"
     else "FAIL")
