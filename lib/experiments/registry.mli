(** The experiment registry: every paper table and figure, plus the
    ablation and the extensions, as a named, runnable unit.
    [mcfuser experiment ID...] runs them. *)

val find : string -> (unit -> string) option
(** The experiment's runner, which returns its rendered report. *)

val ids : unit -> string list
(** Every experiment id, in registry order. *)
