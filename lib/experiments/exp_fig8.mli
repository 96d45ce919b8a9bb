(** Fig. 8 — sub-graph performance normalized to PyTorch.

    Four panels: (a) GEMM chains on A100, (b) GEMM chains on RTX 3080,
    (c) self-attention on A100, (d) self-attention on RTX 3080.  For each
    workload every system is tuned (through {!Evalcache}) and the speedup
    over eager PyTorch reported; the summary lines reproduce the paper's
    headline averages (MCFuser vs PyTorch / Ansor / MCFuser-Chimera /
    BOLT / FlashAttention). *)

type panel = Gemm_chains | Attention

type row = {
  workload : string;
  times : (string * float option) list;  (** backend -> seconds (None = unsupported). *)
}

type result = {
  spec : Mcf_gpu.Spec.t;
  panel : panel;
  backends : string list;
  rows : row list;
}

val backends_for : panel -> Mcf_baselines.Backend.t list

val compute : Mcf_gpu.Spec.t -> panel -> result

val render_result : result -> string

val render : Mcf_gpu.Spec.t -> panel -> string

val geomean_speedup : result -> over:string -> of_:string -> float option
(** Geometric-mean speedup of one backend over another across the rows
    where both ran. *)
