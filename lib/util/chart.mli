(** ASCII chart rendering so that "figure" experiments produce a visual
    artifact directly in the terminal: grouped bar charts (Fig. 8/9),
    scatter plots (Figs. 10/11) and line series (Fig. 2). *)

val sparkline : ?max_width:int -> float list -> string
(** One character per value, eight ASCII density levels ([_.:-=+*#])
    scaled to the series min/max; a flat series renders as [-].  Series
    longer than [max_width] (default 40) keep their most recent values.
    Used by [mcfuser top] for the heap trend. *)

val bar :
  ?width:int ->
  title:string ->
  unit_label:string ->
  (string * float) list ->
  string
(** Horizontal bar chart; bars scale to the maximum value. *)

val grouped_bar :
  ?width:int ->
  title:string ->
  unit_label:string ->
  series:string list ->
  (string * float list) list ->
  string
(** [grouped_bar ~series rows] draws, per row label, one bar per series
    member.  Row value list arity must match [series]. *)

val scatter :
  ?width:int ->
  ?height:int ->
  title:string ->
  x_label:string ->
  y_label:string ->
  (float * float) list ->
  string
(** Scatter plot on linear axes.  Point density is shown with [.:*#]. *)

val line :
  ?width:int ->
  ?height:int ->
  title:string ->
  x_label:string ->
  (string * (float * float) list) list ->
  string
(** Multiple line series on shared axes, one glyph per series. *)
