(** The tile-free, index-space skeleton of a placed program.

    One walk over a built {!Program.t} reads everything the cost model,
    the rule-4 footprint and {!Lower} need from it, every axis resolved to
    its index in [chain.axes]: the placed statements with their loop
    paths, their tile, row and MMA axes, the Rule-2 multipliers, the grid
    and softmax axes, and the validity verdict (this module holds the one
    implementation of the validity rules).

    Nothing here depends on tile magnitudes.  A skeleton depends on the
    tiling expression and on which trip counts equal 1 (through dead-loop
    elimination, the blind-epilogue rule and online softmax), so one
    skeleton serves every candidate sharing those — the key of the
    closed-form model's summary memo — and the tile and trip arrays enter
    only when a consumer evaluates or instantiates it. *)

type flavor =
  | Scale
  | Unary of float  (** FLOPs per element. *)
  | Softmax of int list list
      (** The consumers' output axes, whose accumulator tiles online
          softmax rescales. *)

type op =
  | Access of {
      atensor : Chain.tensor_spec;
      store : bool;
      atile : int list;  (** The tensor's axes: its tile is their product. *)
      arow : int;  (** The contiguous (last) axis; -1 for a scalar. *)
      amult : int list;
          (** Store only: the axes whose trips multiply the flushed region
              (the tensor's Rule-2 multiplier); empty for a load. *)
    }
  | Contraction of {
      cblock : Chain.block;
      used : int list;  (** {!Chain.used_axes}. *)
      mma_m : int;  (** First output axis, or -1. *)
      mma_n : int;  (** Last output axis when there are two or more, or -1. *)
      mma_k : int;  (** First reduce axis, or -1. *)
    }
  | Epilogue of { eblock : Chain.block; out : int list; flavor : flavor }

type stmt = {
  op : op;
  path : int list;  (** Enclosing in-block loops, outermost first. *)
}

type resident = {
  rtensor : Chain.tensor_spec;
  rtile : int list;
  rrow : int;
  rmult : int list;
      (** Axes iterating below the producer's reduction on its Compute
          path: one resident tile per iteration (Fig. 6(b)). *)
  double_buffered : bool;
      (** An input loaded inside a loop: real code generation gives it a
          pipelined staging buffer. *)
}

type t = {
  chain : Chain.t;
  build : Candidate.t -> Program.t;
      (** {!Program.build} under the chain and switches it came from. *)
  axes : Axis.t array;  (** [chain.axes]: what the indices index. *)
  grid : int list;  (** Axes bound to blockIdx. *)
  stmts : stmt array;  (** Placed statements, in program order. *)
  residency : resident array;
      (** Eq. (1)'s terms, in [chain.tensors] order: every intermediate,
          the output accumulator and each loaded input. *)
  online : bool;  (** A softmax axis is tiled: online rescaling. *)
  softmax_rows : int list list;
      (** Per softmax block, its output axes but the softmax axis: the
          rows its running statistics cover. *)
  verdict : (unit, Program.invalid) result;
}

val make :
  ?rule1:bool ->
  ?dead_loop_elim:bool ->
  ?hoisting:bool ->
  Chain.t ->
  Candidate.t ->
  t
(** Build the candidate's program ({!Program.build}, switches default
    [true]) and read its skeleton in one walk. *)

val validate : Program.t -> (unit, Program.invalid) result
(** The validity verdict of a program, checked in this order:
    a non-linear epilogue's output consumed inside its producer's
    reduction loop, an epilogue blind to a live loop over its output, a
    consumer computing before the producer's epilogue, and a consumer
    computing before its producer. *)

val tile_arrays : t -> Candidate.t -> int array * int array
(** [(tiles, trips)]: the candidate's tile extent and trip count per
    axis, in [chain.axes] order. *)
