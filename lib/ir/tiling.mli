(** Tiling expressions (§III-A).

    A tiling expression fixes the structure of the cross-tile loops of a
    fused kernel.  Loops are either nested ([l_j l_i]: [l_i] runs inside
    [l_j]) or sequential ([(l_j, l_i)]: siblings in the same scope).  The
    paper partitions expressions into two families:

    - {b deep tiling}: every pair of loops is nested — one permutation of
      all axes, e.g. [mhnk];
    - {b flat tiling}: a nested prefix of the axes shared between blocks,
      followed by per-block sequential groups of their private axes, e.g.
      [mn(k,h)].

    Chimera's search space is exactly the deep family; including the flat
    family is one of MCFuser's contributions. *)

type t =
  | Deep of Axis.t list  (** Permutation of all chain axes. *)
  | Flat of Axis.t list * Axis.t list list
      (** [Flat (prefix, groups)]: nested shared prefix, then one
          sequential group per block (in block order), each group itself
          nested. *)

val to_string : t -> string
(** Paper notation: ["mhnk"], ["mn(k,h)"]. *)

val axes : t -> Axis.t list
(** All axes, outermost first; sequential groups flattened in order. *)

val enumerate_deep : Chain.t -> t list
(** All permutations of the chain's axes. *)

val enumerate_flat : Chain.t -> t list
(** All flat expressions: permutations of the shared-axis prefix crossed
    with permutations inside each block's private group.  Empty when some
    block has no private axis to separate (flat tiling degenerates to
    deep). *)

val enumerate : Chain.t -> t list
(** Deep then flat — the complete structural search space. *)

val seq : Chain.t -> t Seq.t
(** Lazy [enumerate]: the same expressions in the same order, produced
    on demand.  The search walks this raw stream only with rule 1 off,
    and, when recording, for a short prefix that yields the flight
    recorder's exemplars; with rule 1 on it walks the sub-tilings
    instead ({!first_of_sub_tiling}). *)

val seq_deep : Chain.t -> t Seq.t
(** Lazy [enumerate_deep]. *)

val flat_parts : Chain.t -> (Axis.t list * Axis.t list list) option
(** The flat family's components: the shared axes (the nested prefix)
    and each block's private group, in the orders [enumerate_flat]
    permutes them from; [None] when the family is empty. *)

val count : ?include_flat:bool -> Chain.t -> int
(** [List.length (enumerate chain)] in closed form (n! for the deep
    family plus the flat product), without materializing anything.
    With [~include_flat:false] (default [true]), the deep family's n!
    alone. *)

val count_sub_tilings : ?include_flat:bool -> Chain.t -> int
(** The number of distinct [sub_tiling]s over the same families (rule
    1's classes): r! for the deep family, where r counts the reduce
    axes, plus the product of the factorials of the flat components'
    reduce counts. *)

val first_of_sub_tiling : Chain.t -> t -> t
(** [first_of_sub_tiling chain s] is the first tiling of [seq chain]
    whose [sub_tiling] is [s].  Ordering sub-tilings by their reduce
    axes' positions, family first, then component by component, orders
    their first tilings the same way.
    @raise Invalid_argument for a flat [s] when the chain has no flat
    family. *)

val is_flat : t -> bool

val sub_tiling : Chain.t -> t -> t
(** Rule 1 canonical form: remove the spatial loops (they are bound to
    [blockIdx]); candidates sharing a sub-tiling expression describe the
    same per-thread-block program. *)

val equal : t -> t -> bool
(** Structural equality (axes compared by name). *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by {!equal}.  [to_string] joins axis names without a
    separator, so two distinct tilings can print alike; key by the
    tiling, not by its string. *)
