(** Shared [Logs] reporter for every CLI sub-command, the [serve]
    daemon included: timestamped, source-tagged lines in either
    human-readable text or machine-parseable JSON lines
    ([--log-format text|json]).

    Text:  [2026-08-07T12:34:56.789Z WARN [mcfuser.jsonl] msg]
    JSON:  [{"time":"...","level":"warn","src":"mcfuser.jsonl","msg":"..."}]

    Timestamps are UTC ISO-8601 with millisecond precision.  Everything
    goes to one formatter (stderr by default) regardless of level, so
    stdout stays reserved for results. *)

type format =
  | Text
  | Json

val format_of_string : string -> (format, string) result
(** ["text"] or ["json"] (case-insensitive). *)

val reporter : ?ppf:Format.formatter -> format -> Logs.reporter
(** [?ppf] defaults to [Format.err_formatter]; tests pass a buffer
    formatter to capture output. *)

val setup : ?ppf:Format.formatter -> ?format:format -> Logs.level option -> unit
(** Install {!reporter} and set the global level with
    [Logs.set_level ~all:true] — which also becomes the default for
    sources registered {e later}, so per-library sources created after
    startup inherit the chosen level (the reason the old
    [Logs.Src.list] loop was both insufficient and unnecessary). *)
