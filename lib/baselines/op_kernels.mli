(** Single-operator kernels — the building blocks of the unfused baselines
    (PyTorch/cuBLAS-style execution) and of the non-MBCI parts of
    end-to-end models.

    GEMMs are built through the same chain/lowering machinery as fused
    kernels (a one-block chain), with tile configurations chosen the way a
    vendor library does: the best of a small tuned table, selected
    offline — so no tuning cost is charged at run time.  Memory-bound
    elementwise/normalization operators are modeled directly by their
    traffic. *)

val gemm :
  ?quality:[ `Cublas | `Fixed of int * int * int ] ->
  Mcf_gpu.Spec.t ->
  batch:int ->
  m:int ->
  n:int ->
  k:int ->
  Mcf_gpu.Kernel.t
(** One (batched) GEMM kernel.  [`Cublas] picks the best tile from the
    vendor table via the simulator (cuBLAS's shape-dispatch heuristics);
    [`Fixed] forces one configuration (Relay's untuned templates). *)

val memory_op :
  Mcf_gpu.Spec.t ->
  name:string ->
  read_elems:float ->
  write_elems:float ->
  flops_per_elem:float ->
  Mcf_gpu.Kernel.t
(** A bandwidth-bound kernel (softmax pass, scaling, bias, layernorm,
    residual add, activation) characterized by its element traffic. *)

val softmax_kernels :
  ?fused:bool ->
  Mcf_gpu.Spec.t ->
  rows:float ->
  cols:int ->
  Mcf_gpu.Kernel.t list
(** The softmax of an attention score matrix.  [fused = true] (Relay/XLA
    style) emits one read+write kernel; [fused = false] (eager PyTorch)
    emits the scale / max-subtract-exp / normalize sequence. *)
