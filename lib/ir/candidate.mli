(** Schedule candidates: a tiling expression plus a tile size per axis.

    Any point in the search space is fully described by the loop structure
    and the tile-size vector (§III-A); everything downstream — statement
    placement, memory optimization, the performance model, code generation —
    is a pure function of the candidate and the chain. *)

type t = {
  tiling : Tiling.t;
  tiles : (string * int) list;  (** Axis name -> tile extent. *)
}

val make : Tiling.t -> (string * int) list -> t

val tile : t -> Axis.t -> int
(** Tile size for an axis. @raise Not_found when the axis is unbound. *)

val trip : t -> Axis.t -> int
(** Cross-tile trip count: ceil(size / tile). *)

val padded_size : t -> Axis.t -> int
(** trip * tile — the iteration domain after padding. *)

val padding_ratio : t -> Axis.t -> float
(** (padded - size) / size, i.e. the fraction of wasted work on an axis. *)

val tile_options : ?min_tile:int -> int -> int list
(** Viable tile extents for a dimension: multiples of 16 (the tensor-core
    minimum) no larger than the dimension; the dimension itself is always
    included, and dimensions below 16 get a single full-size option. *)

val to_string : t -> string
(** e.g. "mh(n,k) \{m=64 n=128 k=32 h=64\}". *)

val key : t -> string
(** Stable identity for dedup/memo tables. *)

val serialize : t -> string
(** One-line machine format, e.g. ["deep:m,h,n,k;h=32,k=16,m=64,n=32"] —
    the ["candidate"] field of served and cached schedules
    ([Mcf_serve.Protocol.sched]) and the tiling component of
    measurement-cache keys.  The format is stable:
    cache files on disk depend on it. *)

val equal : t -> t -> bool
