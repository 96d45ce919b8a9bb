(** Placed tensor programs: the loop/statement tree of one thread block.

    Lowering a {!Candidate.t} proceeds exactly as in §III:

    + spatial loops are bound to [blockIdx] (Rule 1's canonical execution;
      for flat tiling only prefix spatial loops may be hoisted to the grid —
      group loops express deliberate within-block sequencing);
    + the remaining loops form the per-block tree; loops whose cross-tile
      trip count is 1 are {e dead} and removed when [dead_loop_elim] is on
      (the optimization Ansor and Chimera miss, Fig. 4(b));
    + each block's Compute is placed at its rightmost related loop, Loads
      immediately before it, the Store after its producer finishes, and
      epilogues (softmax) at the scope where the producer's reduction is
      complete;
    + the hoisting pass moves every memory statement outward past loops
      whose variable does not index its tensor (the DAG scope-dependency
      analysis of Fig. 5).

    The result is a faithful executable structure: the interpreter runs it
    on real tensors, and {!Skeleton} reads its statement paths once, as
    axis indices, for the validity verdict and for the accounting in
    {!Lower}. *)

type stmt =
  | Load of Chain.tensor_spec * Chain.block  (** tensor, consuming block *)
  | Store of Chain.tensor_spec * Chain.block  (** tensor, producing block *)
  | Compute of Chain.block
  | Epilogue of Chain.block

type node = Loop of loop | Stmt of stmt

and loop = {
  laxis : Axis.t;
  extent : int;  (** Cross-tile trip count, ceil(size/tile). *)
  group : int option;  (** Flat-tiling sequential group this loop belongs to. *)
  mutable body : node list;
}

type t = {
  chain : Chain.t;
  cand : Candidate.t;
  grid_axes : Axis.t list;  (** Loops bound to blockIdx, outermost first. *)
  mutable roots : node list;  (** The per-thread-block program. *)
}

type invalid =
  | Nonlinear_partial_consume of { producer : string; loop : string }
      (** A softmax producer's value is consumed inside one of its own
          reduction loops: the partial sums are not yet normalizable. *)
  | Blind_epilogue of { producer : string; axis : string }
      (** The epilogue sits outside a live (trip > 1) loop over one of its
          output-tile axes, so it would only ever touch the tile at
          coordinate 0 of that axis and leave the others untransformed. *)
  | Consumed_before_epilogue of { producer : string; consumer : string }
      (** A consumer's Compute statically precedes the producer's
          epilogue, so it would read pre-epilogue values. *)
  | Consumed_before_produced of { producer : string; consumer : string }
      (** A consumer's Compute statically precedes its producer's Compute:
          the tiling order nests the producer's scope after a loop the
          consumer must descend into, so no interleaving of the fixed
          nest runs the producer first. *)

val build :
  ?rule1:bool ->
  ?dead_loop_elim:bool ->
  ?hoisting:bool ->
  Chain.t ->
  Candidate.t ->
  t
(** Full pipeline with each paper optimization on a switch (all default
    [true]); the switches feed the ablation experiments and the
    Ansor/Chimera-style baselines. *)

val grid_of : rule1:bool -> Tiling.t -> Axis.t list
(** The loops {!build} binds to blockIdx for a tiling, outermost first:
    every spatial loop of the nested part with [rule1], its leading
    spatial run without. *)

val placed_stmts : t -> (Axis.t list * stmt) list
(** Every statement with its surrounding in-block loops (outermost first),
    in execution order. *)

val grid_blocks : t -> int
(** Thread blocks launched: batch x prod of grid-axis trip counts. *)

val online_softmax : t -> bool
(** True when a softmax axis is tiled, forcing online rescaling. *)

val to_string : t -> string
(** Pseudo-code rendering in the style of Fig. 4. *)

val string_of_invalid : invalid -> string

val dag_edges : t -> (string * string) list
(** The DAG view of Fig. 5: scope-dependency edges [loop -> stmt] and
    order-dependency edges [stmt -> stmt], for inspection and tests. *)

val to_dot : t -> string
(** Graphviz rendering of the Fig. 5 DAG: box nodes for loops, ellipses
    for statements, solid edges for scope dependencies and dashed edges
    for order dependencies. *)
