(** Dense row-major float tensors.

    These are the ground-truth values behind the compiler: the tile-level
    interpreter ({!Mcf_interp.Interp}) executes fused schedules on real data
    and compares against the reference operators in {!Ops}.  Storage is
    [float array] (fp32); traffic accounting elsewhere uses 2-byte elements
    to mirror the paper's fp16 tensors — the numerics here only serve
    correctness, not cost. *)

type t

val create : int array -> t
(** Zero-filled tensor of the given shape.  Rank 0 is allowed (scalar). *)

val init : int array -> (int array -> float) -> t
(** [init shape f] fills each multi-index with [f index]. *)

val scalar : float -> t
(** Rank-0 tensor. *)

val shape : t -> int array
(** Defensive copy of the shape. *)

val rank : t -> int

val numel : t -> int

val get : t -> int array -> float
(** @raise Invalid_argument on rank mismatch or out-of-bounds indices. *)

val set : t -> int array -> float -> unit

val copy : t -> t

val data : t -> float array
(** The underlying buffer (shared, not copied); row-major layout. *)

val of_array : int array -> float array -> t
(** @raise Invalid_argument when the buffer size does not match the shape. *)

val random : Mcf_util.Rng.t -> int array -> t
(** Entries uniform in \[-1, 1). *)

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** @raise Invalid_argument on shape mismatch. *)

val max_abs_diff : t -> t -> float
(** Largest elementwise absolute difference.
    @raise Invalid_argument on shape mismatch. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Relative-ish tolerance: |a-b| <= tol * (1 + max |a|, |b|).
    Default tol = 1e-4, loose enough for re-associated reductions. *)
