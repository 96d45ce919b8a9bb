(** One tuning session — the unit of request coalescing.

    Every job whose request derives the same {!Protocol.key} attaches to
    the same session; the session runs {!Protocol.tune} exactly once and
    its result fans out to all attached jobs.  The mutable fields are
    guarded by the owning {!Server}'s lock; {!run} executes outside it
    (it is the long part). *)

type state =
  | Queued
  | Running
  | Done of Protocol.sched
  | Failed of string

type t = {
  skey : string;
  sreq : Protocol.tune_request;
  mutable sstate : state;
  mutable sjobs : string list;  (** Attached job ids, newest first. *)
}

val make : key:string -> req:Protocol.tune_request -> job:string -> t
val attach : t -> string -> unit

val run : ?measure:Mcf_search.Measure.t -> t -> (Protocol.sched, string) result
(** Run the tuner for this session's request.  Deterministic for a fixed
    request (the seed defaults from the chain name + device), so equal
    keys always yield bit-identical schedules.  Never raises: tuner
    errors and exceptions become [Error]. *)
