(** Table IV — tuning times, on the virtual clock (compile + device
    measurement accounting; see DESIGN.md) with OCaml wall-clock shown
    alongside.

    Sub-graph part: average over the Table II GEMM chains and Table III
    attention modules on the A100 for BOLT, Ansor, MCFuser-Chimera and
    MCFuser, with the paper's headline speedups (2.5x vs BOLT, 139x/74x
    vs Ansor).  End-to-end part: the five engines on BERT. *)

val render : Mcf_gpu.Spec.t -> string
