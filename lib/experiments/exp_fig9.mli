(** Fig. 9 — end-to-end BERT evaluation on the A100.

    The five engines (Relay, BOLT, Ansor, MCFuser+Relay, MCFuser+Ansor)
    on BERT-Small/Base/Large at sequence length 512, reporting forward
    latency normalized to Relay plus the §II-A motivation numbers
    (attention's share of FLOPs vs time). *)

val render : Mcf_gpu.Spec.t -> string
