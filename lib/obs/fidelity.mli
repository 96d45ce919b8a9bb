(** Model-fidelity analytics: how well the analytic estimator of
    eqs. (2)-(5) predicts (simulated) measurements.

    The search only needs the model to {e rank} candidates, not to
    predict absolute times, so fidelity is scored on both axes from the
    estimate ↔ measurement pairs of a {!Recorder} recording:

    - {b MAPE}: mean of |est − meas| / meas, in percent — absolute
      accuracy.
    - {b Pairwise rank accuracy}: over all pairs with distinct
      measurements, the fraction the estimator orders the same way.
    - {b Kendall's tau}: (concordant − discordant) / total pairs, in
      [-1, 1]; ties count as neither.
    - {b Top-k recall}: of the k best-measured candidates, the fraction
      the estimator also ranks in its own top k (ties broken by
      candidate name, so the score is deterministic).

    Computed offline from a recording by [mcfuser report]; {!publish}
    mirrors the result into the [fidelity.*] gauges of {!Metrics}. *)

type pair = {
  pcand : string;  (** Candidate label (used only for tie-breaking). *)
  pest : float;  (** Model estimate, seconds. *)
  pmeas : float;  (** Measured time, seconds. *)
}

type t = {
  pairs : int;
  mape : float;  (** Percent; [0.] when there are no pairs. *)
  rank_accuracy : float;
      (** Concordant / (concordant + discordant); [1.] when no pair is
          comparable (nothing was mis-ranked). *)
  kendall_tau : float;  (** [0.] when fewer than two pairs. *)
  topk_recall : (int * float) list;
      (** Per requested k (clamped to the pair count), ascending. *)
}

val of_pairs : ?ks:int list -> pair list -> t
(** Default [ks] is [[1; 5; 10]]. *)

val publish : t -> unit
(** Set the [fidelity.pairs], [fidelity.mape], [fidelity.rank_accuracy],
    [fidelity.kendall_tau] and [fidelity.top<k>_recall] gauges. *)

val render : t -> string
(** One summary table via {!Mcf_util.Table}. *)

val histogram : float array -> (float * int) list
(** Log-scale bucketing of a sample (same layout as {!Metrics}
    histograms): non-empty buckets as (upper bound, count), ascending;
    values [<= 0] land under bound [0.].  Used for the per-generation
    estimate histograms in the recorder stream. *)
