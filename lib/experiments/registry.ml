let a100 = Mcf_gpu.Spec.a100
let rtx3080 = Mcf_gpu.Spec.rtx3080

let all =
  [ (* SII-A: attention's FLOPs share vs time share across sequence lengths *)
    ("motivation", fun () -> Exp_motivation.render a100);
    (* MatMul K/M sweep: the memory-bound transition *)
    ("fig2", fun () -> Exp_fig2.render a100);
    (* search-space pruning funnel (running example) *)
    ("fig7", fun () -> Exp_fig7.render a100);
    (* GEMM-chain sub-graphs on A100, normalized to PyTorch *)
    ("fig8a", fun () -> Exp_fig8.render a100 Exp_fig8.Gemm_chains);
    (* GEMM-chain sub-graphs on RTX 3080 *)
    ("fig8b", fun () -> Exp_fig8.render rtx3080 Exp_fig8.Gemm_chains);
    (* self-attention sub-graphs on A100 *)
    ("fig8c", fun () -> Exp_fig8.render a100 Exp_fig8.Attention);
    (* self-attention sub-graphs on RTX 3080 *)
    ("fig8d", fun () -> Exp_fig8.render rtx3080 Exp_fig8.Attention);
    (* end-to-end BERT on A100 *)
    ("fig9", fun () -> Exp_fig9.render a100);
    (* tuning times, sub-graph and end-to-end *)
    ("tab4", fun () -> Exp_tab4.render a100);
    (* shared-memory estimate vs actual allocation *)
    ("fig10", fun () -> Exp_fig10.render a100);
    (* analytical model vs measured performance (G1-G4) *)
    ("fig11", fun () -> Exp_fig11.render a100);
    (* MCFuser design choices switched off in isolation *)
    ("ablation", fun () -> Exp_ablation.render a100);
    (* extension: attention fusion benefit across sequence lengths *)
    ("sweep", fun () -> Exp_sweep.render a100);
    (* correctness sweep: tuned schedules vs reference operators *)
    ("verify", fun () -> Exp_verify.render a100);
    (* extension workloads: convolution and MLP chains *)
    ("extension", fun () -> Exp_extension.render a100) ]

let find id = List.assoc_opt id all

let ids () = List.map fst all
