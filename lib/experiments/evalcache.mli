(** Process-wide memoization of backend runs, so Fig. 8, Table IV and the
    ablations share tuning work when several experiments run in one
    process.  Keys combine backend name, device and chain identity. *)

val run :
  Mcf_baselines.Backend.t ->
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  (Mcf_baselines.Backend.outcome, Mcf_baselines.Backend.failure) result
