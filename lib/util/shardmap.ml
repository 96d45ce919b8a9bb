(* A string-keyed concurrent map sharded by key hash.  Each shard holds
   its own mutex, hashtable and intrusive LRU list, so concurrent
   lookups on different shards never contend; [find_or_compute] runs the
   supplied thunk OUTSIDE the shard lock with a Pending placeholder in
   the table, so two domains asking for the same key never compute it
   twice — the second waits on the shard's condvar for the first. *)

type 'a slot = Pending | Ready of 'a

type 'a node = {
  nkey : string;
  mutable slot : 'a slot;
  (* Intrusive doubly-linked LRU list over Ready nodes only; Pending
     nodes live in the table but are never evictable. *)
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable linked : bool;
}

type 'a shard = {
  m : Mutex.t;
  cv : Condition.t;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* eviction end *)
  mutable ready : int;  (* linked (Ready) node count *)
}

type 'a t = {
  shards : 'a shard array;
  capacity : int;  (* per shard; max_int when unbounded *)
}

type outcome = Hit | Waited | Computed

let create ?(shards = 16) ?(capacity_per_shard = max_int) () =
  if shards < 1 then invalid_arg "Shardmap.create: shards < 1";
  if capacity_per_shard < 1 then
    invalid_arg "Shardmap.create: capacity_per_shard < 1";
  { shards =
      Array.init shards (fun _ ->
          { m = Mutex.create ();
            cv = Condition.create ();
            tbl = Hashtbl.create 64;
            head = None;
            tail = None;
            ready = 0 });
    capacity = capacity_per_shard }

let shard_of t key =
  let h = Int64.to_int (Hashing.fnv1a64 key) land max_int in
  t.shards.(h mod Array.length t.shards)

(* --- LRU list (all under the shard lock) ------------------------------- *)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.linked <- false;
  s.ready <- s.ready - 1

let push_front s n =
  n.prev <- None;
  n.next <- s.head;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n;
  n.linked <- true;
  s.ready <- s.ready + 1

let touch s n =
  if n.linked then
    match s.head with
    | Some h when h == n -> ()
    | _ ->
      unlink s n;
      push_front s n

let evict_over t s =
  while s.ready > t.capacity do
    match s.tail with
    | None -> s.ready <- 0 (* unreachable: ready counts linked nodes *)
    | Some n ->
      unlink s n;
      Hashtbl.remove s.tbl n.nkey
  done

(* --- operations -------------------------------------------------------- *)

let with_lock s f =
  Mutex.lock s.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.m) f

let find t key =
  let s = shard_of t key in
  with_lock s (fun () ->
      match Hashtbl.find_opt s.tbl key with
      | Some ({ slot = Ready v; _ } as n) ->
        touch s n;
        Some v
      | Some { slot = Pending; _ } | None -> None)

let set t key v =
  let s = shard_of t key in
  with_lock s (fun () ->
      (match Hashtbl.find_opt s.tbl key with
      | Some n ->
        (* Overwrite; waiters (if it was Pending) see the new value. *)
        n.slot <- Ready v;
        if n.linked then touch s n else push_front s n;
        Condition.broadcast s.cv
      | None ->
        let n =
          { nkey = key; slot = Ready v; prev = None; next = None;
            linked = false }
        in
        Hashtbl.replace s.tbl key n;
        push_front s n);
      evict_over t s)

let find_or_compute t key f =
  let s = shard_of t key in
  Mutex.lock s.m;
  let rec loop waited =
    match Hashtbl.find_opt s.tbl key with
    | Some ({ slot = Ready v; _ } as n) ->
      touch s n;
      Mutex.unlock s.m;
      ((if waited then Waited else Hit), v)
    | Some { slot = Pending; _ } ->
      Condition.wait s.cv s.m;
      loop true
    | None -> (
      (* Claim the key with a Pending placeholder and compute outside
         the lock; concurrent callers for the same key block above.  A
         waiter that wakes to find the key gone (the computer raised, or
         the entry was evicted between broadcast and wake-up) claims it
         and computes itself. *)
      let n =
        { nkey = key; slot = Pending; prev = None; next = None;
          linked = false }
      in
      Hashtbl.replace s.tbl key n;
      Mutex.unlock s.m;
      match f () with
      | exception e ->
        Mutex.lock s.m;
        (match Hashtbl.find_opt s.tbl key with
        | Some n' when n' == n -> Hashtbl.remove s.tbl key
        | _ -> ());
        Condition.broadcast s.cv;
        Mutex.unlock s.m;
        raise e
      | v ->
        Mutex.lock s.m;
        n.slot <- Ready v;
        push_front s n;
        evict_over t s;
        Condition.broadcast s.cv;
        Mutex.unlock s.m;
        (Computed, v))
  in
  loop false

let length t =
  Array.fold_left (fun acc s -> acc + with_lock s (fun () -> s.ready)) 0
    t.shards

let fold t f acc =
  Array.fold_left
    (fun acc s ->
      (* Snapshot under the lock, fold outside it: [f] may be slow (it
         serializes entries to disk) and must not block other shardmap
         users. *)
      let pairs =
        with_lock s (fun () ->
            Hashtbl.fold
              (fun k n acc ->
                match n.slot with
                | Ready v -> (k, v) :: acc
                | Pending -> acc)
              s.tbl [])
      in
      List.fold_left (fun acc (k, v) -> f k v acc) acc pairs)
    acc t.shards
