(** Hierarchical wall-clock tracer.

    [with_span ~name f] wraps [f] in a span: begin/end timestamps, the
    calling domain, the ancestry of enclosing spans, and optional
    key/value arguments.  Completed spans land in a domain-safe in-memory
    buffer and can be exported as Chrome [trace_event] JSON (open in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}).

    Tracing is off by default and zero-cost when off: [with_span] is one
    atomic load and a branch, no allocation, no clock read.  Span
    arguments are passed as a thunk so that building them is also free
    when nothing records.  Recorded data is never read back by the
    search, so tracing cannot perturb tuning results. *)

type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  name : string;
  path : string list;  (** Root-first ancestry, self included. *)
  ts_us : float;  (** Start, microseconds since {!start}. *)
  dur_us : float;
  tid : int;  (** Domain id. *)
  args : (string * arg) list;
}

val start : unit -> unit
(** Clear the buffer and begin recording (timestamps restart at 0). *)

val stop : unit -> unit
(** Stop recording; the buffer is kept for export. *)

val enabled : unit -> bool
(** Recording into the buffer? *)

val active : unit -> bool
(** [enabled () || Profile.enabled ()] — spans are being consumed by
    someone.  Instrumentation that must pay a clock read (e.g. timing an
    estimator call for a histogram) should gate on this. *)

val reset : unit -> unit
(** Drop all buffered events. *)

val events : unit -> event list
(** Buffered events sorted by start timestamp. *)

type counter_event = {
  kname : string;  (** Series name, e.g. [rsrc.heap_words]. *)
  kts_us : float;  (** Sample time, microseconds since {!start}. *)
  ktid : int;  (** Domain id of the sampler. *)
  kvalues : (string * float) list;  (** Sub-series name/value pairs. *)
}

val counter : string -> (unit -> (string * float) list) -> unit
(** [counter name values] records one counter sample (a ["ph":"C"] event
    in the Chrome export: Perfetto draws each named series as a stacked
    timeline under the spans).  Like {!with_span}, one atomic load and a
    branch when not recording; the value thunk is never evaluated then.
    The resource telemetry sampler ({!Resource}) is the main emitter. *)

val counter_events : unit -> counter_event list
(** Buffered counter samples sorted by timestamp. *)

val with_span :
  ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a named span.  The span is recorded (buffer and/or
    {!Profile}) even if the thunk raises. *)

val timed :
  ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a * float
(** Like {!with_span} but always measures and returns the wall-clock
    duration in seconds, whether or not anything records — the caller
    keeps a single source of truth for both its own accounting and the
    trace (used for [Tuner.tune]'s [tuning_wall_s]). *)

val observe_timed : Metrics.histogram -> (unit -> 'a) -> 'a
(** When {!active}, time the thunk and feed the duration (seconds) to the
    histogram; otherwise just run it.  No span is recorded — this is for
    per-call latency distributions on paths too hot for spans. *)

val ancestry : unit -> string list
(** The calling domain's current enclosing-span stack (innermost first),
    for handing to {!with_ancestry} in a pool task. *)

val with_ancestry : string list -> (unit -> 'a) -> 'a
(** Run the thunk with this domain's span stack seeded from an ancestry
    captured elsewhere with {!ancestry}: spans opened inside nest under
    the capturing domain's path instead of becoming new roots.  The
    previous stack is restored on exit, even on raise.  Used by pipeline
    stages whose work runs on other domains (the measurement engine's
    pool tasks) so the trace keeps one logical tree. *)

val to_chrome_json : unit -> Mcf_util.Json.t
(** Chrome [trace_event] document: ["X"] (complete) events under
    [traceEvents], timestamps in microseconds, one [tid] per domain. *)

val write : string -> (int, string) result
(** Write {!to_chrome_json} to a file, atomically
    ({!Mcf_util.Json.write_atomic}), after parsing the document back;
    returns the number of spans.  The error says which step failed. *)
