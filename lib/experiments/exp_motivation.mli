(** §II-A motivation — the self-attention bottleneck across sequence
    lengths.

    The paper motivates MBCI fusion with Bert-Large at sequence lengths
    512/1024/2048: self-attention contributes only 11 %/14 %/19 % of the
    FLOPs but 39 %/51 %/61 % of the execution time.  This experiment
    regenerates that table on the simulator (eager per-operator execution),
    and shows why: the attention sub-graph's arithmetic intensity sits
    below the device roofline while the projections sit above it. *)

type row = {
  seq : int;
  flops_share : float;
  time_share : float;
  attention_intensity : float;  (** FLOPs/byte of the unfused sub-graph. *)
}

val compute : Mcf_gpu.Spec.t -> Mcf_workloads.Configs.bert_config -> row list

val render : Mcf_gpu.Spec.t -> string
