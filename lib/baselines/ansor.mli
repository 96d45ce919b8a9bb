(** The Ansor baseline (§VI-A: 1000 tuning trials per sub-graph).

    Modeled with its documented characteristics relative to MCFuser:

    - search space: loop-transformation sketches = deep tiling only, with
      the Ansor/Chimera hoisting rule (no dead-loop elimination — the
      [GetLastReduceIteratorInOutermostReduceTile] limitation of §II-B);
    - exploration: an evolutionary loop guided by a gradient-boosted cost
      model ({!Xgb}) retrained on every measured batch — each of the 1000
      trials pays TVM + nvcc compilation on the virtual clock, which is
      where Table IV's hours come from.  Each round's fresh picks are
      measured as one {!Mcf_search.Measure.run_batch} batch in pick
      order; a revisited pick pays only its compile, charged in pick
      order;
    - code quality: Ansor's generated kernels do not reach tensor-core
      peak (its auto-scheduling targets CUDA cores); math throughput is
      derated to ~1/3 of MMA peak, by the measure engine's [~derate]
      transform, and the winner's kernel is the derated compile of the
      best measured entry;
    - fusion coverage: chains with batch > 4 fall back to unfused
      per-operator execution (the G12 failure of §VI-B). *)

val trials : int ref
(** Measurement budget per sub-graph (paper setting: 1000).  Mutable so
    experiments can shrink it for quick runs. *)

val backend : Backend.t
