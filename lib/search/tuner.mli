(** MCFuser's top-level tuning entry point.

    [tune spec chain] runs the full pipeline of the paper: enumerate and
    prune the tiling space (§III), then explore it with the analytical
    model + measured top-k loop (§IV), returning the best fused kernel
    found together with the tuning-cost accounting used by Table IV. *)

type outcome = {
  chain : Mcf_ir.Chain.t;
  spec : Mcf_gpu.Spec.t;
  best : Space.entry;
  kernel : Mcf_gpu.Kernel.t;  (** Compiled best candidate. *)
  kernel_time_s : float;  (** Measured (simulated) execution time. *)
  funnel : Space.funnel;
  search_stats : Explore.stats;
  tuning_virtual_s : float;  (** Compile + device-measurement accounting. *)
  tuning_wall_s : float;
      (** Real OCaml wall-clock of the tuner, taken from the [tuner.tune]
          root span ({!Mcf_obs.Trace.timed}) so the trace file and every
          report derive from one measurement. *)
  phases : (string * float) list;
      (** Non-overlapping wall-clock breakdown in execution order, in
          seconds: [tuner.enumerate] (with its [space.precheck]
          sub-phase carved out and listed right after it), then
          [tuner.explore] (likewise with its [tuner.measure] sub-phase —
          the explorer's measurement batches — carved out and listed
          after it) and [tuner.codegen].  The entries sum to at most
          [tuning_wall_s]; the remainder is untimed glue. *)
}

type error =
  | No_viable_candidate
      (** Every candidate was invalid, over shared memory, or failed to
          launch: the chain cannot be fused on this device. *)

val tune :
  ?options:Space.options ->
  ?params:Explore.params ->
  ?objective:(Mcf_model.Perf.breakdown -> float) ->
  ?seed:int ->
  ?reservoir:int ->
  ?measure:Measure.t ->
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  (outcome, error) result
(** Deterministic for a fixed [seed] (default derived from the chain
    name and device).

    [objective] turns a candidate's eq. (2)-(5) breakdown into the score
    the search ranks by (default [t_total]); it is handed to
    {!Space.enumerate_scored}, which applies it while it enumerates, so
    the reservoir also keeps the best points by it.

    [measure] is the batched measurement engine handed to the explorer
    (defaults to a fresh cache-less one); attach a
    {!Measure.cache} there — or pass [--measure-cache FILE] on the CLI —
    to reuse measurements across tuning runs.  Caching never changes the
    outcome: cache hits return the deterministic simulator's value
    bit-for-bit and charge the virtual clock identically.

    [reservoir] bounds how many enumerated candidates stay resident for
    exploration: only the [reservoir] best by analytical estimate are
    kept (see {!Space.enumerate}).  Unset, the explorer sees every valid
    candidate — the paper's behaviour and the bit-identity baseline.
    Deep (5–8-block) chains need a bound: their valid space alone can
    dwarf memory.

    When {!Mcf_obs.Recorder} is recording, [tune] emits the full flight
    record of the run — a ["run"] header (device, chain, options, seed,
    jobs), the enumeration's prune attribution, the explorer's
    per-generation and per-measurement events, and a ["result"]/["end"]
    pair.  Recording never changes the outcome: results are bit-identical
    with the recorder on or off, at any [--jobs]. *)

val pseudo_code : outcome -> string
(** The Fig. 4-style rendering of the winning schedule. *)

val triton_source : outcome -> string
(** The generated Triton kernel for the winning schedule. *)
