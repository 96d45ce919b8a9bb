(** Extension workloads — MBCI fusion beyond the paper's evaluation set.

    Three convolution+pointwise chains (im2col mapping) and three MLP
    (GEMM -> GELU -> GEMM) blocks, run through the same backend harness as
    Fig. 8: eager PyTorch, MCFuser-Chimera (deep tiling, data-movement
    objective) and MCFuser.  These exercise the unary-epilogue validity
    rules and the conv mapping under search, not just under unit tests. *)

val render : Mcf_gpu.Spec.t -> string
