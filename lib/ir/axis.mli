(** Cross-tile loop axes.

    An MBCI operator chain is decomposed into computation blocks surrounded
    by cross-tile loops (§III-A); each loop iterates over tiles of one named
    axis.  An axis is [Spatial] when it indexes the chain's final output
    (its iterations are independent, so it may be bound to [blockIdx]) and
    [Reduce] when some block sums over it. *)

type role = Spatial | Reduce

type t = { name : string; size : int; role : role }

val spatial : string -> int -> t
val reduce : string -> int -> t

val is_spatial : t -> bool
val is_reduce : t -> bool

val equal : t -> t -> bool
(** Structural equality; axes are compared by name (names are unique within
    a chain). *)

val find : string -> t list -> t
(** @raise Not_found when no axis has that name. *)

val mem : t -> t list -> bool

val names : t list -> string
(** Concatenated axis names, e.g. "mhnk" — the paper's notation for deep
    tiling expressions. *)

val pp : Format.formatter -> t -> unit
