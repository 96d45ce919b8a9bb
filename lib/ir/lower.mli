(** Lowering: from a program skeleton and a tile vector to cost-model
    inputs and simulator kernels.

    A lowered candidate instantiates a {!Skeleton.t} with the candidate's
    tile and trip arrays; no axis, tile or statement is looked up by name.
    Every quantity the paper's analysis needs is derived from the
    skeleton's statement paths and the trip counts:

    - data movement per memory statement = tile size x trip count of the
      surrounding loops (§III-B / eq. (3));
    - compute per block statement = tile FLOPs x trip count (eq. (4)),
      which also captures the redundant-computation cost Chimera's model
      neglects;
    - shared-memory residency per tensor, with the Rule-2 multiplier for
      partial-result tiles;
    - thread-block count for the slowdown factor (eq. (5)).

    The placed {!Program.t} itself is built on demand ({!program}), only
    for what reads the loop tree: pseudo-code, {!Mcf_codegen.Emit}, the
    interpreter and the DAG rendering. *)

type direction = Dload | Dstore

type access = {
  tensor : Chain.tensor_spec;
  direction : direction;
  tile_elems : int;  (** Elements moved per execution (incl. residency). *)
  trips : int;  (** Executions per thread block. *)
  row_elems : int;  (** Contiguous innermost run, for coalescing. *)
}

type compute_info = {
  block : Chain.block;
  kind : [ `Contraction | `Epilogue ];
  flops_per_exec : float;
  ctrips : int;
  tile_m : int;
  tile_n : int;
  tile_k : int;
}

type residency_item = {
  rtensor : Chain.tensor_spec;
  tile_bytes : int;  (** One tile, in bytes. *)
  rrow_elems : int;  (** Contiguous innermost run of the tile. *)
  mult : int;  (** Simultaneously-resident tiles (Rule 2 analysis). *)
  double_buffered : bool;
      (** Input tiles streamed inside a loop get pipelined staging buffers
          in real code generation. *)
}

type t = {
  chain : Chain.t;
  cand : Candidate.t;
  program : Program.t Mcf_util.Once.t;
      (** Built on first {!program}, domain-safely. *)
  elem_bytes : int;
  blocks : int;
  accesses : access list;  (** Loads and Stores, in program order. *)
  computes : compute_info list;
      (** Contractions and epilogues, in program order. *)
  residency : residency_item list;  (** In [chain.tensors] order. *)
  online_softmax : bool;
  softmax_rows : int;
      (** Tile rows covered by the running statistics of every softmax
          block, summed. *)
  stmt_trips_total : int;
  validity : (unit, Program.invalid) result;
}

val program : t -> Program.t
(** The placed program (built on first call). *)

val lower :
  ?rule1:bool ->
  ?dead_loop_elim:bool ->
  ?hoisting:bool ->
  elem_bytes:int ->
  Chain.t ->
  Candidate.t ->
  t
(** {!instantiate} from the candidate's own {!Skeleton.make}.  The
    switches mirror {!Program.build}. *)

val instantiate :
  elem_bytes:int ->
  Skeleton.t ->
  Candidate.t ->
  tiles:int array ->
  trips:int array ->
  t
(** Account a candidate from a skeleton it shares (same tiling and trip=1
    pattern) and its tile/trip arrays ({!Skeleton.tile_arrays}).  The
    search instantiates its measured candidates from the skeletons its
    precheck already built, so measurement builds no program. *)

val calls : unit -> int
(** Process-wide cumulative count of lowered candidates ({!lower} and
    {!instantiate}).  The analytic fast path exists so lowering runs only
    for measured/codegen candidates; tests assert that by diffing this
    counter around a tune. *)

val bytes_per_block : t -> float
(** Global-memory traffic of one thread block. *)

val total_traffic_bytes : t -> float
(** Traffic across the grid (no L2 discount). *)

val flops_per_block : t -> float

val to_kernel : t -> smem_bytes:int -> Mcf_gpu.Kernel.t
(** Package for the simulator; [smem_bytes] comes from the code
    generator's allocator (see [Mcf_codegen.Alloc]). *)
