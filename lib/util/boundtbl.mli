(** A string-keyed table holding at most a fixed number of entries.

    Past the bound the oldest insertion goes first, whatever has been
    read since.  The table takes no lock: its owner serialises access
    (the measurement cache under its own mutex, serve's schedule table
    under the server lock). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] defaults to 2^20 entries.
    @raise Invalid_argument when it is < 1. *)

val find : 'a t -> string -> 'a option

val add : 'a t -> string -> 'a -> unit
(** Insert, evicting the oldest entry beyond the bound; a key already
    present keeps its place in the eviction order and takes the new
    value. *)

val length : 'a t -> int

val to_list : 'a t -> (string * 'a) list
(** Every entry, in no particular order. *)
