(** Device-kernel descriptions consumed by the simulator.

    A kernel is what code generation produces from a lowered schedule: a
    grid of thread blocks, a shared-memory footprint, and per-block memory
    traffic and compute totals.  Baselines and fused schedules all lower to
    this one representation so the simulator compares them fairly. *)

type direction = Load | Store

type access = {
  label : string;  (** Tensor being moved, for reports. *)
  bytes_per_block : float;
      (** Global-memory traffic issued by one thread block over the kernel's
          lifetime (tile bytes x trip count). *)
  unique_bytes : float;
      (** Footprint of the underlying tensor region touched by the whole
          grid; re-reads beyond this may hit in L2. *)
  row_bytes : int;
      (** Contiguous bytes per row of the transferred tile; determines
          coalescing efficiency. *)
  direction : direction;
}

type compute = {
  clabel : string;
  flops_per_block : float;  (** FLOPs executed by one thread block. *)
  tile_m : int;
  tile_n : int;
  tile_k : int;
      (** Innermost MMA tile extents; determine tensor-core efficiency. *)
}

type t = {
  kname : string;
  blocks : int;  (** Grid size in thread blocks. *)
  smem_bytes : int;  (** Actual shared memory requested per block. *)
  accesses : access list;
  computes : compute list;
  stmt_trips_per_block : float;
      (** Total statement executions per block (loop iterations across all
          statements); models per-iteration instruction/synchronization
          overhead that punishes trivially small tiles. *)
}

val fingerprint : t -> string
(** Stable textual identity used to seed deterministic measurement noise:
    [kname|g<blocks>|s<smem>], then [|<label><L|S><bytes>/<unique>/<row>]
    per access and [|C<clabel><flops>/<m>/<n>/<k>] per compute, ints as
    [%d] and floats as [%.0f].  These bytes fix every noisy measured time,
    so a change to them changes every measurement. *)

val total_flops : t -> float
(** FLOPs across the whole grid. *)

val total_bytes : t -> float
(** Global-memory traffic across the whole grid (ignoring L2 reuse). *)
