(** Tile-level interpreter for placed programs.

    Executes a {!Mcf_ir.Program.t} on real tensors, faithfully following the
    schedule's structure: tiles move between "global memory" (the input
    tensors) and per-block tile buffers only at Load/Store statements,
    contractions accumulate into resident tiles, and softmax epilogues use
    the online formulation (running max/sum with accumulator rescaling, as
    in FlashAttention) whenever the softmax axis is tiled.

    This is the correctness oracle of the whole compiler: for every valid
    candidate, [run] must agree with the un-tiled {!reference} up to
    floating-point reassociation (the fuzzer's interp oracle).  It also
    catches lowering bugs mechanically — a statement hoisted past a loop
    that actually indexes its tensor would read a stale or missing tile
    and surface as a numeric mismatch or an [Uninitialized_tile] error.

    Batched chains (heads) are supported: when [chain.batch > 1] every
    input and the output carry a leading batch axis, and the per-head
    program runs once per slice (the grid's batch dimension). *)

exception Uninitialized_tile of string
(** A compute statement read a tile that no Load produced under the current
    loop indices — i.e. the schedule is miscompiled.  The message names
    the offending tile ("tensor@[tile coords]") and the full loop-index
    environment at the point of the read
    ("tile T1@[0,2] read before any Load under \{k=1 m=0 n=2\}"), so a
    fuzz reproducer or test failure localizes the bad hoist directly. *)

val run : Mcf_ir.Program.t -> inputs:(string * Mcf_tensor.Tensor.t) list -> Mcf_tensor.Tensor.t
(** Execute the program.  [inputs] maps every chain input tensor name to a
    tensor whose shape matches the chain's axis sizes, with a leading batch
    axis when [chain.batch > 1].  Returns the chain output (same batching).
    @raise Invalid_argument on missing inputs or shape mismatch.
    @raise Uninitialized_tile on a miscompiled schedule. *)

type count = {
  stmt : Mcf_ir.Program.stmt;
  execs : int;  (** Executions per thread block. *)
  moved : int;
      (** Elements a Load or Store moves over those executions (padded
          tiles); 0 for a Compute or Epilogue.  A Store moves one tile
          per resident tile live under the loop indices at that point. *)
  volume : int;
      (** A Compute's tile volume per execution: the product of its used
          axes' tiles; 0 otherwise. *)
}

val count : Mcf_ir.Program.t -> count list
(** Every placed statement of one thread block, in program order, counted
    by [run]'s own loop walk without data: eqs. (3) and (4)'s tile size x
    trip count, as the interpreter executes them. *)

val run_candidate :
  Mcf_ir.Chain.t ->
  Mcf_ir.Candidate.t ->
  inputs:(string * Mcf_tensor.Tensor.t) list ->
  Mcf_tensor.Tensor.t
(** Convenience: build (with all optimizations) then [run]. *)

val reference : Mcf_ir.Chain.t -> inputs:(string * Mcf_tensor.Tensor.t) list -> Mcf_tensor.Tensor.t
(** Direct un-tiled evaluation of the chain semantics (block by block, exact
    softmax), against which [run] is checked. *)
