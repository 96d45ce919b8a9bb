(** Live status line for interactive [mcfuser tune] runs.

    With [--progress], the CLI enables this module and the search phases
    feed it: the current phase name ({!set_phase}), a free-form detail
    such as the enumerated point count ({!set_info}), and per-generation
    exploration progress with an ETA ({!generation}).  The line is drawn
    on {e stderr} with carriage-return + clear-to-eol, so stdout (JSON
    results, metrics dumps) stays pipeable; the CLI only enables it when
    stdout is a tty, and {!disable} erases the line before normal output
    resumes.

    Rendering is throttled (at most one redraw per 100ms for the
    per-generation hot path), and every entry point is a single atomic
    load when disabled — the default — so the search itself is
    unaffected.  Purely observational: nothing in the tuner reads this
    state back, so results are bit-identical with or without
    [--progress]. *)

val enable : unit -> unit
(** Reset state and start accepting updates.  No-op when already on. *)

val disable : unit -> unit
(** Stop accepting updates and erase the status line if one was drawn.
    No-op when already off. *)

val set_phase : string -> unit
(** Announce a new phase (e.g. ["space.enumerate"]).  Clears the info
    field and forces a redraw. *)

val set_info : string -> unit
(** Attach a detail to the current phase (e.g. ["1724 points"]). *)

val generation : gen:int -> max_gen:int -> measured:int -> unit
(** Exploration progress: generation [gen] of at most [max_gen], with
    [measured] schedules measured so far.  From the second call on, the
    line includes a worst-case ETA extrapolated from the mean generation
    time ([max_gen] is an upper bound — convergence may stop earlier). *)

val track : unit -> unit
(** Start recording phase/generation state {e without} drawing anything:
    the telemetry listener enables tracking so [/status] can report the
    live phase even when [--progress] is off.  Independent of
    {!enable}/{!disable}; resets state unless a TTY line is already
    recording.  When neither tracking nor the TTY line is on, every
    update entry point stays at two atomic loads. *)

val untrack : unit -> unit

type snapshot = {
  sphase : string;  (** [""] before the first {!set_phase}. *)
  sinfo : string;
  sgen : int;
  smax_gen : int;  (** [0] outside the exploration loop. *)
  smeasured : int;
  selapsed_s : float;  (** Since {!enable}/{!track}; [0.] if neither ran. *)
  seta_s : float option;
      (** Worst-case ETA (same extrapolation as the TTY line); [None]
          before the second generation. *)
}

val snapshot : unit -> snapshot
(** Point-in-time copy of the recorded state, for [/status]. *)
