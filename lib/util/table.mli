(** ASCII table rendering for experiment output.

    The benchmark harness prints one table per paper table/figure; this
    module keeps the formatting consistent (column alignment, separators,
    optional markdown output for EXPERIMENTS.md). *)

type t
(** A table under construction. *)

val create : headers:string list -> t
(** Column count is fixed by [headers]. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the arity differs from the headers. *)

val add_rule : t -> unit
(** Insert a horizontal separator at the current position. *)

val render : t -> string
(** Boxed ASCII rendering, trailing newline included. *)

val render_markdown : t -> string
(** GitHub-flavoured markdown rendering, trailing newline included. *)

val fmt_float : ?digits:int -> float -> string
(** Fixed-point float with [digits] decimals (default 2). *)

val fmt_time_s : float -> string
(** Human scale for seconds: "12.3us", "4.56ms", "7.89s", "1.2h". *)

val fmt_sci : float -> string
(** Scientific notation with two significant decimals, e.g. "1.09e8". *)
