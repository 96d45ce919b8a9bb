(** Fig. 10 — shared-memory estimation accuracy (§VI-E1).

    For candidates drawn from the Fig. 8 workloads' spaces (Rules 1-3
    applied; Rule 4 deliberately off so over-budget points remain), the
    eq. (1) estimate is compared with the code generator's actual
    allocation.  Quadrants relative to the 1.2 x Shm_max threshold
    (x-axis) and Shm_max (y-axis):

    - I: kept and launchable (correct);
    - II: kept but unlaunchable — wrongly kept, paper 8.2 %, later
      rejected at PTX lowering;
    - III: pruned and unlaunchable (correct);
    - IV: pruned but launchable — wrongly pruned, paper 1.2 %.

    The paper reports > 90 % of points in I + III and a ~40 % candidate
    reduction by Rule 4. *)

type stats = {
  total : int;
  q1 : int;
  q2 : int;
  q3 : int;
  q4 : int;
  rule4_prune_fraction : float;
}

val compute : ?per_workload:int -> Mcf_gpu.Spec.t -> stats * (float * float) list
(** Quadrant stats and the (estimate, actual) scatter, both normalized to
    Shm_max. *)

val render : Mcf_gpu.Spec.t -> string
