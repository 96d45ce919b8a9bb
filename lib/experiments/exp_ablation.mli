(** Ablation study (beyond the paper's figures, justified by its design
    discussion): each MCFuser design choice is switched off in isolation
    and the resulting kernel time / tuning time compared against the full
    system on a representative workload mix.

    Variants:
    - [no-flat]: deep tiling only (Chimera's structural space, §III-A);
    - [no-dead-loop-elim]: hoisting without trivial-loop removal (the
      Ansor/Chimera rule, §III-B);
    - [no-hoisting]: memory statements stay at their default positions;
    - [no-alpha]: the performance model without the eq. (5) slowdown
      factor;
    - [model-only]: trust the analytical model, measure nothing (exposes
      the estimator error Fig. 11 quantifies);
    - [no-rule1/2]: structural pruning off (tuning-time blow-up with the
      same final kernel). *)

type variant = {
  vname : string;
  vdescription : string;
}

val variants : variant list

type cell = {
  kernel_time_s : float option;
  tuning_s : float option;
}

val tune_no_alpha :
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  (Mcf_search.Tuner.outcome, Mcf_search.Tuner.error) result
(** The [no-alpha] variant's tuner run: the full search, ranked by
    [t_mem + t_comp] instead of eq. (2)'s total. *)

val compute :
  Mcf_gpu.Spec.t -> (string * (string * cell) list) list
(** Per workload, per variant. *)

val render : Mcf_gpu.Spec.t -> string
