(** Fig. 7 — pruning the search space of the running example
    (GEMM chain, M = N = 1024, K = H = 512).

    Reports the funnel: 26 tiling expressions -> Rule 1 -> Rule 2, and
    ~1.09e8 raw candidates -> Rule 3 -> Rule 4 -> validity, ending around
    10^4 as in the paper.  (Our Rule 1 canonicalization is slightly
    stronger than the paper's, collapsing the expressions to 3 instead of
    5 — see DESIGN.md.) *)

val compute : Mcf_gpu.Spec.t -> Mcf_search.Space.funnel

val render : Mcf_gpu.Spec.t -> string
