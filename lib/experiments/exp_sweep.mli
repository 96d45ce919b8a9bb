(** Extension experiment — fusion benefit across sequence lengths.

    The paper evaluates fixed shapes; this sweep varies the sequence
    length for BERT-style attention.  The chain is memory-bound at every
    length (intensity stays far below the roofline), so fusion wins
    throughout — at short sequences mostly by eliminating the kernel zoo's
    launch/dispatch overhead, at long sequences by eliminating the
    quadratically-growing score-matrix traffic. *)

type row = {
  seq : int;
  pytorch_s : float;
  mcfuser_s : float;
  speedup : float;
  intensity : float;  (** Unfused FLOPs/byte. *)
  best : string;  (** Winning schedule. *)
}

val compute : Mcf_gpu.Spec.t -> row list

val render : Mcf_gpu.Spec.t -> string
