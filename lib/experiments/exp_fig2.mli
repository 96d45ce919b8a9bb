(** Fig. 2 — the MBCI transition.

    A single MatMul at constant work (M x N x K = 1024^3, M = N) swept
    across K/M ratios: the theoretical compute-to-traffic ratio φ for a
    256-tile falls with K, and once φ drops below 𝒫/𝒲 the achieved
    throughput collapses — the compute-intensive operator has become
    memory-bound. *)

type point = {
  m : int;
  k : int;
  ratio : float;  (** K/M. *)
  phi : float;  (** Theoretical FLOPs per byte at tile 256. *)
  achieved_tflops : float;  (** Simulator throughput of the best kernel. *)
}

val compute : Mcf_gpu.Spec.t -> point list

val render : Mcf_gpu.Spec.t -> string
