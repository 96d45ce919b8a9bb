(** Sharded, string-keyed concurrent map with per-shard LRU eviction and
    in-flight computation dedup.

    Keys are distributed over N independent shards (own mutex, hashtable
    and LRU list each), so lookups on different shards never contend —
    the multi-tenant backing store for content-addressed caches shared
    across pool domains ({!Mcf_search} measurement cache, the planned
    [mcfuser serve] schedule cache).

    {!find_or_compute} guarantees a key's thunk runs at most once at a
    time process-wide: the first caller installs a pending placeholder
    and computes {e outside} the shard lock; concurrent callers for the
    same key wait on the shard's condition variable and receive the
    computed value.  Pending entries are never evicted; the LRU bound
    applies to completed entries only. *)

type 'a t

(** How {!find_or_compute} obtained its value: [Hit] — already cached;
    [Waited] — another domain was computing it, we blocked for the
    result; [Computed] — this caller ran the thunk. *)
type outcome = Hit | Waited | Computed

val create : ?shards:int -> ?capacity_per_shard:int -> unit -> 'a t
(** [shards] defaults to 16; [capacity_per_shard] (completed entries
    kept per shard, least-recently-used evicted beyond it) defaults to
    unbounded.  @raise Invalid_argument when either is < 1. *)

val find : 'a t -> string -> 'a option
(** [None] for absent {e and} pending keys (never blocks); a hit
    freshens the entry's LRU position. *)

val set : 'a t -> string -> 'a -> unit
(** Insert or overwrite (waking any waiters if the key was pending) —
    the warm-start path when loading a persisted cache. *)

val find_or_compute : 'a t -> string -> (unit -> 'a) -> outcome * 'a
(** Cached value, or run the thunk (outside the shard lock) and cache
    its result.  If the thunk raises, the pending entry is removed,
    waiters are woken (one of them recomputes), and the exception
    propagates to this caller only. *)

val length : 'a t -> int
(** Completed entries across all shards. *)

val fold : 'a t -> (string -> 'a -> 'acc -> 'acc) -> 'acc -> 'acc
(** Fold over a snapshot of completed entries (order unspecified); [f]
    runs outside the shard locks. *)
