(** The analytical performance model, eqs. (2)-(5) of §IV-A.

    [t_estm = (t_mem + t_comp) x alpha] where

    - [t_mem] (eq. 3) sums, over every Load/Store statement, tile bytes x
      trip count of all surrounding loops (grid included), divided by the
      memory bandwidth 𝒲;
    - [t_comp] (eq. 4) sums, over every compute statement, tile FLOPs x
      trip count divided by the peak throughput 𝒫;
    - [alpha = (N_block + N_SM) / N_block] (eq. 5) penalizes kernels that
      launch too few thread blocks to fill the GPU.

    The model needs no training and no measurement — replacing Ansor's
    learned cost model with it is what removes the tuning-time bottleneck
    (Table IV).  It knowingly ignores occupancy, L2, coalescing and
    tensor-core efficiency; Fig. 11 quantifies the resulting gap against
    the simulator's "measured" times. *)

type breakdown = {
  t_mem : float;
  t_comp : float;
  alpha : float;
  t_total : float;
}

val of_aggregates :
  Mcf_gpu.Spec.t ->
  traffic_bytes:float ->
  flops_per_block:float ->
  blocks:float ->
  breakdown
(** Eqs. (2)-(5) over the three aggregates they consume: total bytes
    moved (grid included), FLOPs per thread block and the block count.
    The single formula behind both {!breakdown} and the closed-form
    {!Analytic.breakdown_of_eval}. *)

val breakdown : Mcf_gpu.Spec.t -> Mcf_ir.Lower.t -> breakdown
(** {!of_aggregates} over a lowered program's aggregates. *)

val estimate : Mcf_gpu.Spec.t -> Mcf_ir.Lower.t -> float
(** [t_total] only. *)
