(** Shared-memory estimation, eq. (1) of §III-C.

    [Shm_estm = sum over resident tensors of (T_Li x T_Lj)] — the per-block
    working set implied by the tiling expression: one tile per loaded input,
    the resident tiles of intermediates and of the output accumulator
    (including the Rule-2 multiplicity for schedules that must keep several
    partial tiles alive).

    The estimate deliberately ignores what real code generation adds on
    top — pipelined double buffers, bank-conflict padding, softmax
    statistics — which is exactly the estimate-vs-actual gap that Fig. 10
    measures (see [Mcf_codegen.Alloc] for the "actual" side). *)

val estimate_bytes : Mcf_ir.Lower.t -> int
(** Eq. (1) in bytes. *)

val within_budget : Mcf_gpu.Spec.t -> slack:float -> Mcf_ir.Lower.t -> bool
(** Rule 4: [estimate <= slack x Shm_max] with the paper's slack of 1.2
    absorbing estimation error. *)

val footprint_of_candidate :
  ?rule1:bool ->
  ?dead_loop_elim:bool ->
  elem_bytes:int ->
  Mcf_ir.Chain.t ->
  Mcf_ir.Candidate.t ->
  int
(** Closed-form eq. (1): equals
    [estimate_bytes (Lower.lower ?rule1 ?dead_loop_elim ~elem_bytes chain
    cand)] without instantiating a lowering.  It is {!Analytic.footprint}
    over the candidate's compiled {!Mcf_ir.Skeleton.t}, which records, per
    resident tensor, its tile axes and the axes multiplying its residency,
    which depend only on the loop structure (grid split, dead-loop
    splicing, Compute scope descent).  [rule1] and [dead_loop_elim] must match the
    flags later passed to [Lower.lower]; hoisting does not affect the
    estimate.  [Mcf_search.Space] reads the same footprint off its
    memoized summaries as the rule-4 precheck.  The agreement with
    [Lower.lower] is enforced property-test-style in [test/test_model.ml]
    and by the fuzzer's [shmem] oracle; the lowering's Rule-2 multipliers
    are held to the program by [Mcf_fuzz.Oracle.count_mismatches]. *)

val precheck_within_budget :
  Mcf_gpu.Spec.t ->
  slack:float ->
  ?rule1:bool ->
  ?dead_loop_elim:bool ->
  Mcf_ir.Chain.t ->
  Mcf_ir.Candidate.t ->
  bool
(** {!within_budget} on {!footprint_of_candidate}. *)
