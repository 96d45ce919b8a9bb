(** The one start/stop sequence of a process's observability: what the
    CLI's [--trace], [--record], [--metrics], [--profile],
    [--sample-ms], [--progress] and [--listen] flags (and the same flags
    of [bench/main.exe]) switch on around a run.

    {!run} starts, in order, the {!Profile} aggregator, the {!Trace}
    buffer, the {!Recorder}, the {!Resource} sampler, the {!Progress}
    line (only when stdout is a tty) and the telemetry listener
    ({!Export.serve}).  After the body it runs the listener selfcheck,
    shuts the listener down, erases the progress line and stops the
    sampler {e before} the trace is flushed, so the sampler's closing
    counter events land in the file; then it writes the trace, the
    recording and the metrics dump (each write reported on stderr) and
    prints the profile's phase table and metrics table on stdout. *)

type config = {
  trace : string option;  (** Chrome trace_event JSON path *)
  record : string option;  (** search flight recording (JSONL) path *)
  metrics : string option;  (** {!Metrics.to_json} dump path *)
  profile : bool;  (** print the phase and metrics tables at the end *)
  sample_ms : float option;  (** {!Resource} sampling period *)
  progress : bool;  (** live status line on a tty *)
  listen : string option;  (** telemetry listener [ADDR:PORT] *)
  listen_selfcheck : bool;  (** probe the listener after the body *)
}

val off : config
(** Everything off: {!run} [off f] is [f ()]. *)

val run : config -> (unit -> ('a, string) result) -> ('a, string) result
(** [run config body] brackets [body] with the sequence above and
    returns the first error among: the listener failing to start (then
    [body] does not run), [body] itself, the trace, recording and
    metrics writes (in that order; a failed write does not skip the
    later ones) and the listener selfcheck.  Otherwise it returns
    [body]'s value. *)
