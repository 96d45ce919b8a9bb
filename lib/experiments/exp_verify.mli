(** Correctness sweep — every tuned schedule checked on real data.

    The paper validates performance; this repository can also validate
    semantics: for a scaled-down instance of every evaluation workload
    (plus the extension chains), the tuner's winning schedule is executed
    by the tile-level interpreter on random inputs and compared against
    the naive reference operators.  The scaled instances keep the full
    structural variety (online softmax, flat tilings, dead loops, padding)
    while staying fast enough to run on every benchmark invocation. *)

type check = {
  schedule : string;  (** The winner, {!Mcf_ir.Candidate.to_string}. *)
  max_diff : float;  (** Max |fused - reference| over the output. *)
  pass : bool;  (** Equal within 1e-3. *)
}

val check : Mcf_util.Rng.t -> Mcf_gpu.Spec.t -> Mcf_ir.Chain.t -> check option
(** Tune [chain], interpret the winner's lowering on random inputs drawn
    from [rng] (one tensor per chain input, the batch dimension leading
    when the chain has one) and compare with
    {!Mcf_interp.Interp.reference}.  [None] when no candidate is
    viable; [rng] is then left untouched.  The sweep below and
    [mcfuser verify] both check through it. *)

val render : Mcf_gpu.Spec.t -> string
