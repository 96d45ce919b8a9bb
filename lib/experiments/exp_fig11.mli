(** Fig. 11 — analytical-model accuracy (§VI-E2).

    For G1-G4, sampled candidates are both estimated (eqs. 2-5) and
    measured (simulator); the paper reports Pearson correlations of 0.86,
    0.92, 0.84 and 0.80 — good enough that measuring the model's top-8
    per generation finds the optimum. *)

type workload_result = {
  wname : string;
  n_points : int;
  pearson : float;
  spearman : float;
  points : (float * float) list;  (** (estimated, measured), microseconds. *)
}

val compute : ?samples:int -> Mcf_gpu.Spec.t -> workload_result list

val render : Mcf_gpu.Spec.t -> string
