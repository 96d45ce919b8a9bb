(** MCFuser itself packaged behind the common backend interface, so the
    evaluation harness runs all systems through one code path. *)

val backend : Backend.t
