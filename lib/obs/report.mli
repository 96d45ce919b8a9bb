(** Render and diff {!Recorder} recordings — the engine behind the
    [mcfuser report] subcommand.

    {!render} turns one recording into the human-readable post-mortem of
    a tuning run: the Fig. 7 funnel table (bit-identical to the
    [Tuner.outcome.funnel] the run returned), per-rule prune
    attribution with exemplars, the per-generation convergence curve,
    the {!Fidelity} summary of the analytic model against the run's
    measurements (also published to the [fidelity.*] gauges), and the
    final result.  A recording holding several runs (e.g. [compare
    --record]) renders each in order.

    {!diff} compares two recordings for CI gating: funnel drift,
    fidelity drift, and best-measured-time regression beyond a relative
    tolerance.  Works on plain parsed JSON, so today's binary can
    inspect recordings from any build. *)

val render : Mcf_util.Json.t list -> (string, string) result
(** [Error] when the recording contains no events. *)

type diff = {
  dreport : string;  (** Human-readable comparison. *)
  funnel_drift : bool;
  fidelity_drift : bool;
  regression : bool;
      (** Best measured time of B exceeds A's by more than [tolerance]. *)
  wall_drift : bool;
      (** Some phase wall time moved more than [tolerance] either way.
          Informational only — wall clocks are too noisy to gate on. *)
}

val diff :
  ?tolerance:float ->
  Mcf_util.Json.t list ->
  Mcf_util.Json.t list ->
  (diff, string) result
(** Compare the last run of each recording; [tolerance] is the relative
    best-time regression threshold (default [0.05]). *)
