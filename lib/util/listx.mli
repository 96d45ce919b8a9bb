(** Small list/array combinators the standard library lacks, used heavily by
    the search-space enumeration (permutations, cartesian products). *)

val permutations : 'a list -> 'a list list
(** All permutations; n! results, callers keep n small (loop counts). *)

val cartesian : 'a list list -> 'a list list
(** Cartesian product of a list of choice lists, in lexicographic order of
    the input lists.  [cartesian []] is [[[]]]. *)

val seq_permutations : 'a list -> 'a list Seq.t
(** Lazy [permutations]: same elements in the same order, but produced
    on demand so n! never has to be resident at once.  The elements must
    be pairwise distinct (the axes of a loop nest always are). *)

val seq_cartesian : 'a list list -> 'a list Seq.t
(** Lazy [cartesian]: same tuples in the same (first-axis-slowest)
    order, produced on demand. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (fewer when the list is shorter). *)

val drop : int -> 'a list -> 'a list
(** The list without its first [n] elements. *)

val index_of : ('a -> bool) -> 'a list -> int option
(** Index of the first element satisfying the predicate. *)

val dedup : compare:('a -> 'a -> int) -> 'a list -> 'a list
(** Sorted deduplication; result is sorted by [compare]. *)

val dedup_keep_order : key:('a -> string) -> 'a list -> 'a list
(** Deduplicate by string key, keeping the first occurrence order. *)

val sum_by : ('a -> float) -> 'a list -> float
(** Sum of a projection. *)

val max_by : ('a -> float) -> 'a list -> 'a option
(** Element maximizing a projection; [None] on the empty list. *)

val min_by : ('a -> float) -> 'a list -> 'a option
(** Element minimizing a projection; [None] on the empty list. *)

val range : int -> int list
(** [range n] is [[0; 1; ...; n-1]]. *)

val interleavings : 'a list -> 'a list -> 'a list list
(** All order-preserving interleavings of two lists. *)
