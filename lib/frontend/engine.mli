(** End-to-end execution engines (§VI-C).

    An engine is a compiler configuration for a whole network: how the
    non-MBCI operators are generated (Relay templates, Ansor tuning, BOLT's
    CUTLASS + epilogue fusion) and whether MBCI sub-graphs are routed to
    MCFuser.  The five engines of Fig. 9 are provided: Relay, BOLT,
    Ansor, MCFuser+Relay and MCFuser+Ansor.

    Tuning cost is accounted per {e unique} operator shape (compilers cache
    tuned schedules across identical layers), on the same virtual clock as
    the sub-graph experiments. *)

type kind =
  | Relay_engine
  | Ansor_engine
  | Bolt_engine
  | Mcfuser_with of kind  (** MBCI sub-graphs to MCFuser, rest to [kind]. *)

type report = {
  engine : string;
  model : string;
  latency_s : float;  (** One forward pass. *)
  attention_s : float;  (** Time inside MBCI sub-graphs. *)
  kernel_launches : int;
  tuning_virtual_s : float;
  tuning_wall_s : float;
}

val name : kind -> string

val run : kind -> Mcf_gpu.Spec.t -> Graph.t -> report

val attention_fraction :
  Mcf_gpu.Spec.t -> Graph.t -> flops_fraction:bool -> float
(** §II-A motivation: self-attention's share of FLOPs
    ([flops_fraction = true]) or of eager execution time (false). *)
