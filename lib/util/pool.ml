(* Persistent domain pool.  See pool.mli for the contract.

   A job is a chunked index range [0, n).  Every participant, the caller
   included, claims the next chunk index from one shared atomic counter
   and runs it, until the counter passes the last chunk: chunks of one
   job cost about the same, so handing out the next one does the job of
   per-participant queues.  Workers park on a condition variable between
   jobs; the caller publishes a job by bumping [epoch] and
   broadcasting. *)

(* --- process-wide cumulative counters (see stats) ----------------------- *)

let spawned_total = Atomic.make 0
let jobs_total = Atomic.make 0
let chunks_total = Atomic.make 0
let idle_ns_total = Atomic.make 0

(* Instantaneous scheduler state, sampled by the resource telemetry
   layer: how many participants are currently inside [run_chunks].
   Strictly observational — nothing in the pool reads it back. *)
let busy_now = Atomic.make 0

type stats = {
  domains : int;
  spawned : int;
  jobs : int;
  chunks : int;
  idle_ns : int;
  busy : int;
}

(* --- jobs --------------------------------------------------------------- *)

type job = {
  jrun : int -> int -> unit;
  jn : int;  (* range length *)
  jcsize : int;  (* chunk size *)
  jnchunks : int;
  jnext : int Atomic.t;  (* next chunk index to claim *)
  jpending : int Atomic.t;  (* chunks not yet executed *)
  jfail : exn option Atomic.t;  (* first exception wins (CAS) *)
  jm : Mutex.t;
  jdone : Condition.t;  (* caller waits here for stragglers *)
}

type t = {
  size : int;
  mutable workers : unit Domain.t list;
  lock : Mutex.t;
  work_cv : Condition.t;
  mutable job : job option;
  mutable epoch : int;
  mutable quit : bool;
}

(* True while the current domain is executing a pool task: nested calls
   must run sequentially instead of waiting on the pool they occupy. *)
let in_task = Domain.DLS.new_key (fun () -> false)

let run_chunks job =
  let exec j =
    Atomic.incr busy_now;
    (* After a failure, drain remaining chunks without running them so
       the caller is released promptly. *)
    (if Atomic.get job.jfail = None then
       try job.jrun (j * job.jcsize) (min job.jn ((j + 1) * job.jcsize))
       with e -> ignore (Atomic.compare_and_set job.jfail None (Some e)));
    Atomic.incr chunks_total;
    (* Leave [busy] before counting the chunk down: once the caller sees
       the job drained, no participant is still counted as busy. *)
    Atomic.decr busy_now;
    if Atomic.fetch_and_add job.jpending (-1) = 1 then begin
      Mutex.lock job.jm;
      Condition.broadcast job.jdone;
      Mutex.unlock job.jm
    end
  in
  let rec loop () =
    let j = Atomic.fetch_and_add job.jnext 1 in
    if j < job.jnchunks then begin
      exec j;
      loop ()
    end
  in
  Domain.DLS.set in_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_task false) loop

let worker t () =
  let seen = ref 0 in
  Mutex.lock t.lock;
  let rec loop () =
    if t.quit then Mutex.unlock t.lock
    else if t.epoch <> !seen then begin
      seen := t.epoch;
      let job = t.job in
      Mutex.unlock t.lock;
      (match job with Some j -> run_chunks j | None -> ());
      Mutex.lock t.lock;
      loop ()
    end
    else begin
      Condition.wait t.work_cv t.lock;
      loop ()
    end
  in
  loop ()

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

let create ?domains () =
  let size =
    match domains with
    | Some d -> max 1 d
    | None -> default_jobs ()
  in
  let t =
    { size;
      workers = [];
      lock = Mutex.create ();
      work_cv = Condition.create ();
      job = None;
      epoch = 0;
      quit = false }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker t));
  Atomic.fetch_and_add spawned_total (size - 1) |> ignore;
  t

let shutdown t =
  Mutex.lock t.lock;
  t.quit <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let size t = t.size

let with_pool ~jobs f =
  let p = create ~domains:jobs () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let run_range ~min_chunk_work t n body =
  (* The sequential cutoff IS [min_chunk_work]: callers with expensive
     per-item bodies (device measurement batches of ~top_k items) pass
     [~min_chunk_work:1] to parallelize even tiny ranges, while cheap
     bodies pass a coarser cutoff. *)
  let cutoff = max 1 min_chunk_work in
  if n <= 0 then ()
  else if t.size = 1 || t.quit || n < cutoff || Domain.DLS.get in_task then
    body 0 n
  else begin
    Atomic.incr jobs_total;
    (* A few chunks per participant so fast participants pick up the
       tail while slow ones finish, without per-element scheduling
       overhead — but never chunks smaller than [min_chunk_work]: when
       per-item work is tiny, handoff (claims, condvar wakeups) dominates
       any speedup, so cheap jobs run in coarser pieces. *)
    let csize = max cutoff ((n + (t.size * 4) - 1) / (t.size * 4)) in
    let nchunks = (n + csize - 1) / csize in
    let job =
      { jrun = body;
        jn = n;
        jcsize = csize;
        jnchunks = nchunks;
        jnext = Atomic.make 0;
        jpending = Atomic.make nchunks;
        jfail = Atomic.make None;
        jm = Mutex.create ();
        jdone = Condition.create () }
    in
    Mutex.lock t.lock;
    t.job <- Some job;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.lock;
    run_chunks job;
    if Atomic.get job.jpending > 0 then begin
      let t0 = now_ns () in
      Mutex.lock job.jm;
      while Atomic.get job.jpending > 0 do
        Condition.wait job.jdone job.jm
      done;
      Mutex.unlock job.jm;
      Atomic.fetch_and_add idle_ns_total (now_ns () - t0) |> ignore
    end;
    match Atomic.get job.jfail with Some e -> raise e | None -> ()
  end

let init ~min_chunk_work t n f =
  if n <= 0 then [||]
  else begin
    (* Computing the first element up front gives Array.make a value of
       the right type (no Obj.magic) and keeps float arrays unboxed. *)
    let first = f 0 in
    let res = Array.make n first in
    run_range ~min_chunk_work t (n - 1) (fun lo hi ->
        for i = lo to hi - 1 do
          res.(i + 1) <- f (i + 1)
        done);
    res
  end

(* --- the shared global pool --------------------------------------------- *)

let requested = ref None

let env_jobs () =
  match Sys.getenv_opt "MCFUSER_JOBS" with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some j -> Some (max 1 j)
    | None -> None)

let jobs () =
  match !requested with
  | Some j -> j
  | None -> ( match env_jobs () with Some j -> j | None -> default_jobs ())

let set_jobs j = requested := Some (max 1 j)

(* Oversubscribing a small machine is strictly worse than sequential for
   the tuner's short jobs (domains contend for the same cores and the
   caller parks on stragglers), so the *global* pool never spawns more
   participants than the hardware offers.  Explicit [create ~domains] is
   left unclamped: tests and callers that want oversubscription on
   purpose can still ask for it. *)
let effective_jobs () =
  min (jobs ()) (max 1 (Domain.recommended_domain_count ()))

let global = ref None
let global_lock = Mutex.create ()

let get () =
  Mutex.lock global_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock global_lock)
    (fun () ->
      let want = effective_jobs () in
      match !global with
      | Some p when p.size = want -> p
      | prev ->
        (match prev with Some p -> shutdown p | None -> ());
        let p = create ~domains:want () in
        global := Some p;
        p)

let () =
  at_exit (fun () -> match !global with Some p -> shutdown p | None -> ())

let stats () =
  { domains = (match !global with Some p -> p.size | None -> 0);
    spawned = Atomic.get spawned_total;
    jobs = Atomic.get jobs_total;
    chunks = Atomic.get chunks_total;
    idle_ns = Atomic.get idle_ns_total;
    busy = Atomic.get busy_now }
