(** GPU hardware descriptions.

    The two evaluation platforms of the paper, reduced to the quantities its
    analysis depends on: peak tensor-core throughput [peak_flops] (the 𝒫 of
    eq. (4)), DRAM bandwidth [mem_bw] (the 𝒲 of eq. (3)), shared-memory
    capacity (Rule 4 / eq. (1)), SM count (the slowdown factor of eq. (5)),
    plus the extra parameters only the simulator uses (L2 size, occupancy
    limits, launch overhead). *)

type t = {
  name : string;
  compute_capability : string;  (** e.g. "sm80"; BOLT refuses "sm86". *)
  sm_count : int;
  peak_flops : float;  (** fp16 tensor-core peak, FLOP/s. *)
  mem_bw : float;  (** DRAM bandwidth, bytes/s. *)
  smem_per_block : int;  (** Max shared memory per thread block, bytes. *)
  smem_per_sm : int;  (** Shared memory per SM, bytes (occupancy limit). *)
  l2_bytes : int;
  max_blocks_per_sm : int;
  launch_overhead_s : float;  (** Per-kernel launch latency. *)
  elem_bytes : int;  (** Tensor element size; 2 for fp16. *)
}

val a100 : t
(** NVIDIA A100-PCIE-40GB. *)

val rtx3080 : t
(** NVIDIA GeForce RTX 3080. *)

val all : t list
(** The evaluation platforms, A100 first. *)

val by_name : string -> t option
(** Case-insensitive lookup by [name] ("a100", "rtx3080"). *)

val roofline_ratio : t -> float
(** 𝒫/𝒲 in FLOPs per byte: operators whose compute/traffic ratio φ falls
    below this are memory-bound (the MBCI criterion of §II-A). *)

val fingerprint : t -> string
(** Content identity over {e every} field (floats rendered exactly, in
    hex) — the device component of content-addressed cache keys.  Two
    specs share a fingerprint iff measurements taken on one are valid
    for the other. *)
