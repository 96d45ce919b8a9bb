(** Process-wide metrics registry: counters, gauges, log-scale histograms.

    Metrics are always on — a counter bump is one atomic add, cheap enough
    for every hot path in the tuner — and strictly observational: nothing
    in the search ever reads them back, so enabling/disabling observability
    cannot perturb tuning results.  All operations are thread/domain-safe;
    counter totals are deterministic under {!Mcf_util.Pool.init}.

    Naming convention: [<subsystem>.<what>] with subsystems matching the
    per-library log sources — [space.*], [explore.*], [sim.*], [cache.*],
    [codegen.*], [tuner.*]. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or fetch) a counter by name.  Raises [Invalid_argument] if
    the name is already registered as a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram
(** Log-scale histogram: one bucket per power of two.  An observation [v]
    lands in the bucket with upper bound [2^e] such that
    [2^(e-1) < v <= 2^e]; non-positive values land in an underflow
    bucket, [infinity] in an overflow bucket, NaN is dropped. *)

val observe : histogram -> float -> unit

type hist_summary = {
  hcount : int;
  hsum : float;
  hmin : float;  (** [infinity] when empty. *)
  hmax : float;  (** [neg_infinity] when empty. *)
  hp50 : float;
      (** Median estimate by log-scale bucket interpolation: the value
          sits geometrically within its (bound/2, bound] bucket at its
          rank fraction, clamped to [[hmin, hmax]]; [0.] when empty. *)
  hp90 : float;
  hp99 : float;
  hbuckets : (float * int) list;
      (** Non-empty buckets as (upper bound, count), ascending; the
          underflow bucket reports bound [0.], overflow [infinity]. *)
}

val summary : histogram -> hist_summary

val counter_value : string -> int
(** By name; [0] when the counter was never registered. *)

type snapshot_item =
  | Scounter of int
  | Sgauge of float
  | Shist of hist_summary

val snapshot : unit -> (string * snapshot_item) list
(** Point-in-time registry dump, sorted by name.  Counters and gauges
    are single atomic reads; histograms are summarized under their own
    lock.  The whole snapshot is not one atomic cut across metrics —
    fine for exposition, not for invariant checking. *)

val reset : unit -> unit
(** Zero every registered metric (registrations survive). *)

val to_json : unit -> Mcf_util.Json.t
(** Deterministic snapshot: metrics sorted by name, grouped by kind. *)

val render_table : unit -> string
(** Pretty dump of all non-zero metrics via {!Mcf_util.Table}. *)
