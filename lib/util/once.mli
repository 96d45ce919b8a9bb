(** Domain-safe memoized thunks.

    [Lazy.t] raises [RacyLazy] when two domains force the same suspension
    concurrently, so it cannot back a lazily-lowered search-space entry
    that batched measurement forces from inside a {!Pool} job.  [Once]
    is the mutex-guarded equivalent: the thunk runs at most once, every
    caller observes the same result, and a raising thunk re-raises the
    same exception on every subsequent force. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make f] suspends [f]; nothing runs until the first {!force}. *)

val force : 'a t -> 'a
(** Run the thunk on first call (under the cell's mutex — the thunk must
    not force the same cell reentrantly) and return the memoized result
    afterwards.  Safe to call from any number of domains concurrently. *)

val is_forced : 'a t -> bool
(** Whether the thunk has already run (also true when it raised). *)
