(** The differential oracles: cross-layer agreement checks run on every
    generated (chain, candidate) case.

    Each oracle compares two independent computations of the same fact —
    interpreter vs reference semantics, lowering vs the interpreter's
    counts, closed-form model vs lowering, precheck vs full check,
    parallel vs sequential tune, cached vs fresh measurement, emitted text
    vs structural invariants — so a bug in either side surfaces as a
    divergence without needing a hand-written expected value. *)

type verdict =
  | Pass
  | Skip of string  (** Deterministic ineligibility (never a failure). *)
  | Fail of string

type t = {
  name : string;
  doc : string;
  every : int;
      (** Run on case ids divisible by [every] — expensive oracles
          subsample deterministically. *)
  check : Gen.case -> verdict;
}

val interp_transform : (Mcf_ir.Program.t -> Mcf_ir.Program.t) ref
(** Test hook: applied to the built program before the interpreter oracle
    runs it.  Install a deliberately broken pass to prove the oracle +
    shrinker pipeline catches it; reset to [Fun.id] afterwards. *)

val drop_live_loops : Mcf_ir.Program.t -> Mcf_ir.Program.t
(** The canonical synthetic bug for {!interp_transform}: splice every
    in-block loop (dead-loop elimination applied to live loops), dropping
    all but one tile of work. *)

val count_mismatches : Mcf_ir.Lower.t -> string list
(** The parts of a lowering its program contradicts: on a valid program,
    the accesses, computes and [stmt_trips_total] against
    {!Mcf_interp.Interp.count} (statement order, executions, elements
    moved, contraction FLOPs); on any program, each resident tensor's
    Rule-2 multiplier against its producer's Compute path.  Lowering is
    held to it in the analytic oracle and the model tests. *)

val grid_twin :
  Mcf_model.Analytic.Memo.t ->
  Mcf_ir.Chain.t ->
  Mcf_ir.Candidate.t ->
  Mcf_ir.Candidate.t
(** The candidate with the trip=1 bit flipped, where the axis's size
    allows, on every axis the memo's key leaves out
    ({!Mcf_model.Analytic.Memo.relevant}): the same summary key, a
    different candidate.  The analytic oracle queries a fresh memo with
    it before the candidate, so the candidate is scored with the twin's
    summary. *)

val all : t list
(** interp, analytic, shmem, pruning, tuner, measure-cache, emit — in
    that order. *)

val by_name : string -> t option

val names : unit -> string list
