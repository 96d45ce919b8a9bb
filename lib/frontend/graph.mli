(** Network graphs for end-to-end evaluation (§VI-C).

    A model is a linear sequence of coarse operators — exactly the level a
    graph compiler's partitioner works at.  Self-attention appears as one
    [Mbci_attention] node: the partitioner routes it to MCFuser while the
    remaining operators go to the fallback compiler (Relay/Ansor/BOLT). *)

type op =
  | Dense of { dname : string; m : int; n : int; k : int }
      (** Dense projection \[m,k\] x \[k,n\]; bias handled separately. *)
  | Mbci_attention of { aname : string; cfg : Mcf_workloads.Configs.attention_config }
      (** A fusable self-attention sub-graph (an MBCI chain). *)
  | Bias_gelu of { ename : string; elems : float }
      (** Bias add + GELU over [elems] activations. *)
  | Bias_add of { ename : string; elems : float }
  | Residual_layernorm of { lname : string; rows : float; cols : int }

type t = {
  gname : string;
  ops : op list;
  flops : float;  (** Dense + attention contraction FLOPs, for reporting. *)
}

val bert : Mcf_workloads.Configs.bert_config -> t
(** The encoder stack: per layer QKV projections, self-attention, output
    projection, residual+LN, FFN up (GELU), FFN down, residual+LN. *)

val unique_dense_shapes : t -> (int * int * int) list
(** Distinct (m, n, k) projection shapes — the per-task unit of Ansor's
    and BOLT's end-to-end tuning cost. *)

val attention_configs : t -> Mcf_workloads.Configs.attention_config list
(** Distinct MBCI sub-graphs found by the partitioner. *)

val attention_time_fraction :
  t -> dense_time:(int * int * int -> float) -> attn_time:(Mcf_workloads.Configs.attention_config -> float) -> float
(** Fraction of model time spent in self-attention given per-op costs —
    the §II-A motivation numbers (e.g. 14 % of FLOPs but 51 % of time). *)
