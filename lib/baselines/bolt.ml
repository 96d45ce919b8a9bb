open Mcf_ir

(* (T_m, T_k, T_h) choices; T_n is pinned to N. *)
let template_menu =
  [ (64, 32, 64); (64, 32, 128); (64, 64, 64); (64, 64, 128);
    (128, 32, 64); (128, 32, 128); (128, 64, 64); (128, 64, 128);
    (64, 128, 64); (64, 128, 128); (128, 128, 64); (128, 128, 128);
    (256, 32, 64); (256, 32, 128); (256, 64, 64); (256, 64, 128) ]

let cutlass_compile_s = 1.7
let library_scan_s = 45.0
let measure_repeats = 10

let is_dual_gemm (chain : Chain.t) =
  List.length chain.blocks = 2
  && List.for_all
       (fun (b : Chain.block) ->
         match b.epilogue with
         | Chain.No_epilogue | Chain.Scale _ -> true
         | Chain.Softmax _ | Chain.Unary _ -> false)
       chain.blocks

let fused_candidates (chain : Chain.t) =
  let m = Chain.axis chain "m" in
  let n = Chain.axis chain "n" in
  let k = Chain.axis chain "k" in
  let h = Chain.axis chain "h" in
  let clamp (a : Axis.t) t = min t a.size in
  List.map
    (fun (tm, tk, th) ->
      Candidate.make
        (Tiling.Deep [ m; h; n; k ])
        [ ("m", clamp m tm);
          ("n", n.size);  (* the B2B constraint: full N per block *)
          ("k", clamp k tk);
          ("h", clamp h th) ])
    template_menu

let tune spec (chain : Chain.t) =
  if spec.Mcf_gpu.Spec.compute_capability = "sm86" then
    Error (Backend.Unsupported "BOLT does not support sm86 devices")
  else if not (is_dual_gemm chain) then
    Error
      (Backend.Unsupported
         "no fusion pattern (BOLT cannot fuse self-attention)")
  else begin
    let clock = Mcf_gpu.Clock.create () in
    let run () =
      Mcf_gpu.Clock.charge clock library_scan_s;
      (* The same lowering switches as [Compile.compile_candidate]. *)
      let ctx =
        { Mcf_search.Space.chain;
          rule1 = true;
          dead_loop_elim = true;
          hoisting = true;
          elem_bytes = spec.elem_bytes;
          grid = Mcf_search.Space.(grid default_options chain) }
      in
      let templates =
        List.mapi
          (fun i cand -> (i, Mcf_search.Space.make_entry ctx cand))
          (fused_candidates chain)
      in
      let times = Array.make (List.length templates) None in
      Mcf_search.Measure.run_batch (Mcf_search.Measure.create spec) ~clock
        ~compile_cost_s:cutlass_compile_s ~repeats:measure_repeats
        ~commit:(fun i r -> times.(i) <- r)
        templates;
      let winner =
        Option.bind
          (Mcf_util.Listx.min_by snd
             (List.filter_map
                (fun (i, e) -> Option.map (fun t -> (e, t)) times.(i))
                templates))
          (fun (e, time_s) ->
            Result.to_option
              (Mcf_codegen.Compile.compile spec (Mcf_search.Space.lowered e))
            |> Option.map (fun kernel -> (kernel, time_s)))
      in
      match winner with
      | Some (kernel, time_s) ->
        Ok
          { Backend.backend = "BOLT";
            kernels = [ kernel ];
            time_s;
            tuning_virtual_s = Mcf_gpu.Clock.elapsed_s clock;
            tuning_wall_s = 0.0;
            fused = true;
            note = None }
      | None -> (
        (* No template fits (tensors too large for full-N residency):
           run the chain as separate CUTLASS GEMMs. *)
        let kernels = Pytorch.chain_kernels ~fused_softmax:true spec chain in
        match
          Backend.run_kernels ~dispatch_s:Backend.graph_dispatch_s spec kernels
        with
        | Error msg -> Error (Backend.Unsupported msg)
        | Ok time_s ->
          Ok
            { Backend.backend = "BOLT";
              kernels;
              time_s;
              tuning_virtual_s = Mcf_gpu.Clock.elapsed_s clock;
              tuning_wall_s = 0.0;
              fused = false;
              note = Some "fallback: no template fits, unfused CUTLASS ops" })
    in
    let result, wall = Mcf_gpu.Clock.with_wall_clock run in
    Result.map
      (fun (o : Backend.outcome) -> { o with tuning_wall_s = wall })
      result
  end

let backend = { Backend.name = "BOLT"; tune }
