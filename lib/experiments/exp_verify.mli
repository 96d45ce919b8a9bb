(** Correctness sweep — every tuned schedule checked on real data.

    The paper validates performance; this repository can also validate
    semantics: for a scaled-down instance of every evaluation workload
    (plus the extension chains), the tuner's winning schedule is executed
    by the tile-level interpreter on random inputs and compared against
    the naive reference operators.  The scaled instances keep the full
    structural variety (online softmax, flat tilings, dead loops, padding)
    while staying fast enough to run on every benchmark invocation. *)

val render : Mcf_gpu.Spec.t -> string
