(** Seeded random generation of MBCI chains and schedule candidates.

    A generated chain is described by a {!spec} genome — batch, row-axis
    size, named column axes, per-block epilogues — and built from it with
    {!chain_of_spec}; shrinking edits the genome and rebuilds, so every
    reduction step is structurally valid by construction.  All randomness
    flows through streams keyed by [(seed, case id, purpose)], making the
    case sequence independent of which oracles run and of any
    parallelism. *)

open Mcf_ir

type epi =
  | Enone
  | Escale of float
  | Esoftmax of float  (** The softmax pre-scale (1/sqrt d_k). *)
  | Egelu
  | Erelu

type spec = {
  sbatch : int;
  sm : int;
  cols : (string * int) list;
      (** Column axes c_0..c_L (name, size); block i contracts c_(i-1). *)
  epis : epi list;  (** One per block; length [List.length cols - 1]. *)
}

val n_blocks : spec -> int

val epi_to_string : epi -> string

val epi_of_string : string -> (epi, string) result

val chain_of_spec : spec -> Chain.t
(** @raise Invalid_argument when the genome is malformed (fewer than two
    column axes, or the built chain fails [Chain.validate] — a generator
    bug, not a user error). *)

val random_candidate : Mcf_util.Rng.t -> Chain.t -> Candidate.t
(** Uniform over [Tiling.enumerate chain] crossed with per-axis
    [Candidate.tile_options]. *)

(** One fuzz case: a chain, a candidate, and the build/device flags the
    oracles exercise. *)
type case = {
  id : int;
  seed : int;
  cspec : spec;
  chain : Chain.t;
  cand : Candidate.t;
  rule1 : bool;
  dle : bool;  (** dead-loop elimination *)
  hoist : bool;
  elem_bytes : int;
  device : Mcf_gpu.Spec.t;
}

val case_of_id : seed:int -> int -> case

val respec : case -> spec -> case
(** Rebuild a case around an edited genome, projecting the tiling and
    tile vector onto the surviving axes by name (tiles clamp to the new
    axis sizes; flat tilings fall back to deep when the block count
    changed). *)

val inputs : case -> (string * Mcf_tensor.Tensor.t) list
(** Random input tensors for the case's chain, batch-leading when
    [batch > 1]; drawn from the case's "data" stream so they are stable
    across replays. *)

val interp_work : case -> float
(** Deterministic cost proxy (padded fused points + exact reference
    points) used for the virtual time budget. *)

val case_to_string : case -> string
