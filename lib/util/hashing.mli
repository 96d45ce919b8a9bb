(** FNV-1a hashing, used to derive deterministic per-candidate simulator
    noise and stable identifiers for schedule candidates. *)

val fnv1a64 : string -> int64
(** 64-bit FNV-1a of a string. *)

val combine : int64 -> string -> int64
(** Continue an FNV-1a stream with more bytes. *)

val to_unit_float : int64 -> float
(** Map a hash to a float in \[0, 1), uniformly over 53 bits. *)

val seed : string -> int
(** The low 62 bits of {!fnv1a64}: a non-negative [int] seed derived
    from a string, for {!Rng.create}. *)
