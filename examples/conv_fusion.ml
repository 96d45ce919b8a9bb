(* Fusing convolutions: conv(3x3) + pointwise conv(1x1) as an MBCI chain.

     dune exec examples/conv_fusion.exe

   Convolution lowers to GEMM through im2col; a k x k convolution followed
   by a 1x1 projection is then exactly the paper's two-GEMM chain, and with
   small channel counts it is memory-bound — the same MBCI structure that
   motivates attention fusion, in CNN clothing.  This example maps the
   convolution pair onto the chain IR, checks the roofline, tunes, and
   verifies the fused schedule against a direct conv2d reference. *)

module T = Mcf_tensor.Tensor
module Ops = Mcf_tensor.Ops

let () =
  let spec = Mcf_gpu.Spec.a100 in
  let height = 66 and width = 66 in
  let c_in = 16 and c_mid = 32 and c_out = 32 in
  let ksize = 3 in
  let chain =
    Mcf_ir.Chain.conv_pointwise_chain ~height ~width ~c_in ~c_mid ~c_out
      ~ksize ()
  in
  Printf.printf "conv(%dx%d, %d->%d) + pointwise(%d->%d) on a %dx%d image\n"
    ksize ksize c_in c_mid c_mid c_out height width;
  Printf.printf "as a GEMM chain: %s\n\n"
    (Format.asprintf "%a" Mcf_ir.Chain.pp chain);

  (* MBCI test *)
  let flops = Mcf_ir.Chain.total_flops chain in
  let unfused =
    Mcf_ir.Chain.unfused_traffic_bytes chain ~elem_bytes:spec.elem_bytes
  in
  Printf.printf
    "unfused intensity %.0f FLOPs/byte vs roofline %.0f -> %s\n\n"
    (flops /. unfused)
    (Mcf_gpu.Spec.roofline_ratio spec)
    (if flops /. unfused < Mcf_gpu.Spec.roofline_ratio spec then
       "memory-bound: fuse it"
     else "compute-bound");

  (* tune a larger instance for the performance story *)
  let big =
    Mcf_ir.Chain.conv_pointwise_chain ~height:130 ~width:130 ~c_in:32
      ~c_mid:64 ~c_out:64 ~ksize ()
  in
  (match Mcf_search.Tuner.tune spec big with
  | Ok o ->
    Printf.printf "tuned 128x128 instance: %s at %s\n"
      (Mcf_ir.Candidate.to_string o.best.cand)
      (Mcf_util.Table.fmt_time_s o.kernel_time_s);
    (match Mcf_baselines.Pytorch.backend.tune spec big with
    | Ok py ->
      Printf.printf "unfused conv + conv1x1:  %s -> fused speedup %.2fx\n\n"
        (Mcf_util.Table.fmt_time_s py.time_s)
        (py.time_s /. o.kernel_time_s)
    | Error _ -> ())
  | Error _ -> print_endline "unfusable");

  (* numeric verification against the direct convolution reference *)
  let rng = Mcf_util.Rng.create 2718 in
  let image = T.random rng [| c_in; height; width |] in
  let w1 = T.random rng [| c_mid; c_in; ksize; ksize |] in
  let w2 = T.random rng [| c_out; c_mid; 1; 1 |] in
  let inputs =
    [ ("A", Ops.im2col ~input:image ~kh:ksize ~kw:ksize);
      ("B", Ops.conv_weights_matrix w1);
      ("D", Ops.conv_weights_matrix w2) ]
  in
  let o =
    match Mcf_search.Tuner.tune spec chain with
    | Ok o -> o
    | Error _ -> failwith "unfusable"
  in
  let fused =
    Mcf_interp.Interp.run ~inputs
      (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best))
  in
  (* direct reference: conv then pointwise conv, flattened to [pixels, c] *)
  let ref_conv = Ops.conv2d ~input:(Ops.conv2d ~input:image ~weights:w1) ~weights:w2 in
  let ho = height - ksize + 1 and wo = width - ksize + 1 in
  let ref_flat =
    T.init [| ho * wo; c_out |] (fun idx ->
        T.get ref_conv [| idx.(1); idx.(0) / wo; idx.(0) mod wo |])
  in
  Printf.printf "fused schedule vs direct conv2d: max diff %.2e -> %s\n"
    (T.max_abs_diff fused ref_flat)
    (if T.approx_equal ~tol:1e-3 fused ref_flat then "PASS" else "FAIL")
