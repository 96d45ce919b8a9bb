(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction (search initialization,
    mutation, simulator noise, synthetic tensor data) draw from this module so
    that every experiment is reproducible bit-for-bit from its seed.  The
    generator is xoshiro256** seeded through splitmix64, following the
    reference implementations by Blackman and Vigna. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** Uniform coin flip. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal deviate. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array.  @raise Invalid_argument on [||]. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val weighted_sampler : t -> float array -> unit -> int
(** [weighted_sampler t weights] is a sampler that draws an index
    proportionally to [weights], treating negative weights as 0 and
    falling back to uniform when the total mass is not positive.  The
    prefix sums are built once, here; each call then draws one
    {!float} (or one {!int} in the uniform case) from [t] and
    binary-searches them, allocating nothing, so [k] draws from one weight vector cost
    O(n + k log n) instead of O(k n).  The weights are read when the
    sampler is built; later writes to the array do not affect it.
    @raise Invalid_argument on [||]. *)

val weighted_index : t -> float array -> int
(** [weighted_index t weights] is [weighted_sampler t weights ()]: one
    draw, same index and same RNG advance.  Build a sampler instead when
    drawing repeatedly from the same weights. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [min k n] distinct indices
    from \[0, n), in random order. *)
