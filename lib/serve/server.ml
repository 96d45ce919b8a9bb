module Json = Mcf_util.Json
module Httpd = Mcf_util.Httpd
module Shardmap = Mcf_util.Shardmap
module Metrics = Mcf_obs.Metrics

(* The tuning-as-a-service daemon.  See server.mli for the contract.

   Concurrency layout: one mutex guards the job table, the session
   table, the session queue and all state transitions; tuner sessions
   run on plain worker threads *outside* the lock (the pool domains
   underneath Tuner.tune do the actual parallel work, and Pool.run_range
   is safe under concurrent callers).  The schedule cache is a Shardmap
   with its own per-shard locks, so /tune cache hits never touch the
   server lock's hot path for longer than a table insert. *)

let log_src = Logs.Src.create "mcfuser.serve" ~doc:"Tuning service daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_requests = Metrics.counter "serve.requests"
let c_coalesced = Metrics.counter "serve.coalesced"
let c_cache_hits = Metrics.counter "serve.cache.hits"
let c_cache_misses = Metrics.counter "serve.cache.misses"
let c_rejected = Metrics.counter "serve.rejected"
let c_sessions = Metrics.counter "serve.sessions"
let c_jobs_done = Metrics.counter "serve.jobs_done"
let h_latency = Metrics.histogram "serve.latency_s"

type config = {
  addr : string;
  port : int;
  workers : int;
  max_connections : int;
  read_timeout_s : float;
  max_body_bytes : int;
  cache_shards : int;
  cache_capacity : int;
  schedule_cache_file : string option;
  measure_cache_file : string option;
}

let default_config =
  { addr = "127.0.0.1";
    port = 0;
    workers = 2;
    max_connections = 16;
    read_timeout_s = 5.0;
    max_body_bytes = 1024 * 1024;
    cache_shards = 16;
    cache_capacity = 65536;
    schedule_cache_file = None;
    measure_cache_file = None }

type source = Tuned | Cached | Coalesced

let source_string = function
  | Tuned -> "tuned"
  | Cached -> "cached"
  | Coalesced -> "coalesced"

type job_status =
  | Queued
  | Running
  | Done of Protocol.sched
  | Failed of string

type job = {
  jid : string;
  jseq : int;  (* submission order *)
  jkey : string;
  jworkload : string;
  jdevice : string;
  jsource : source;
  jsubmit_s : float;
  mutable jstatus : job_status;
}

type job_view = {
  vid : string;
  vkey : string;
  vworkload : string;
  vdevice : string;
  vsource : source;
  vstatus : job_status;
}

type lifecycle = Serving | Draining | Stopped

type t = {
  cfg : config;
  lock : Mutex.t;
  wake : Condition.t;  (* workers: queue became non-empty / draining *)
  done_cv : Condition.t;  (* awaiters: some job finished *)
  jobs_tbl : (string, job) Hashtbl.t;
  finished : string Queue.t;  (* finished job ids, oldest first *)
  sessions : (string, Session.t) Hashtbl.t;  (* in-flight, by key *)
  queue : Session.t Queue.t;
  mutable next_id : int;
  mutable state : lifecycle;
  mutable worker_threads : Thread.t list;
  cache : Protocol.sched Shardmap.t;
  measure_cache : Mcf_search.Measure.cache;
  mutable httpd : Httpd.t option;
  shutdown_requested : bool Atomic.t;
  stop_started : bool Atomic.t;
}

let url t = match t.httpd with Some h -> Httpd.url h | None -> ""
let port t = match t.httpd with Some h -> Httpd.port h | None -> 0

let view_of_job (j : job) =
  { vid = j.jid;
    vkey = j.jkey;
    vworkload = j.jworkload;
    vdevice = j.jdevice;
    vsource = j.jsource;
    vstatus = j.jstatus }

(* --- job completion ---------------------------------------------------- *)

(* Finished jobs the table keeps answering for.  Every request, cache
   hits included, adds a job, so a long-running daemon drops the oldest
   finished ones past this bound; queued and running jobs are never
   dropped, and a dropped id answers as an unknown one. *)
let max_finished_jobs = 4096

(* Caller holds t.lock. *)
let finish_job t (j : job) status =
  j.jstatus <- status;
  match status with
  | Done _ | Failed _ ->
    Metrics.incr c_jobs_done;
    Metrics.observe h_latency (Unix.gettimeofday () -. j.jsubmit_s);
    Queue.push j.jid t.finished;
    if Queue.length t.finished > max_finished_jobs then
      Hashtbl.remove t.jobs_tbl (Queue.pop t.finished)
  | Queued | Running -> ()

(* --- worker loop -------------------------------------------------------- *)

let session_jobs t (sess : Session.t) =
  List.filter_map (Hashtbl.find_opt t.jobs_tbl) sess.Session.sjobs

let rec worker_loop t () =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && t.state = Serving do
    Condition.wait t.wake t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock
    (* draining and nothing left: exit *)
  else begin
    let sess = Queue.pop t.queue in
    sess.Session.sstate <- Session.Running;
    List.iter (fun j -> j.jstatus <- Running) (session_jobs t sess);
    Mutex.unlock t.lock;
    let measure =
      Mcf_search.Measure.create ~cache:t.measure_cache
        sess.Session.sreq.Protocol.spec
    in
    let result = Session.run ~measure sess in
    Mutex.lock t.lock;
    (match result with
    | Ok sched ->
      Shardmap.set t.cache sess.Session.skey sched;
      sess.Session.sstate <- Session.Done sched;
      List.iter (fun j -> finish_job t j (Done sched)) (session_jobs t sess)
    | Error msg ->
      sess.Session.sstate <- Session.Failed msg;
      List.iter (fun j -> finish_job t j (Failed msg)) (session_jobs t sess));
    Hashtbl.remove t.sessions sess.Session.skey;
    Condition.broadcast t.done_cv;
    Mutex.unlock t.lock;
    worker_loop t ()
  end

(* --- submission --------------------------------------------------------- *)

let submit t (req : Protocol.tune_request) =
  let key = Protocol.key req in
  Mutex.lock t.lock;
  if t.state <> Serving then begin
    Mutex.unlock t.lock;
    Metrics.incr c_rejected;
    Error "server is shutting down"
  end
  else begin
    Metrics.incr c_requests;
    t.next_id <- t.next_id + 1;
    let jid = Printf.sprintf "j%d" t.next_id in
    let mk source status =
      let j =
        { jid;
          jseq = t.next_id;
          jkey = key;
          jworkload = req.workload;
          jdevice = req.spec.name;
          jsource = source;
          jsubmit_s = Unix.gettimeofday ();
          jstatus = status }
      in
      Hashtbl.replace t.jobs_tbl jid j;
      j
    in
    match Shardmap.find t.cache key with
    | Some sched ->
      Metrics.incr c_cache_hits;
      let j = mk Cached Queued in
      finish_job t j (Done sched);
      Condition.broadcast t.done_cv;
      Mutex.unlock t.lock;
      Ok (jid, Cached)
    | None -> (
      match Hashtbl.find_opt t.sessions key with
      | Some sess ->
        Metrics.incr c_coalesced;
        Session.attach sess jid;
        let status =
          match sess.Session.sstate with
          | Session.Running -> Running
          | _ -> Queued
        in
        ignore (mk Coalesced status);
        Mutex.unlock t.lock;
        Ok (jid, Coalesced)
      | None ->
        Metrics.incr c_cache_misses;
        Metrics.incr c_sessions;
        let sess = Session.make ~key ~req ~job:jid in
        Hashtbl.add t.sessions key sess;
        Queue.push sess t.queue;
        ignore (mk Tuned Queued);
        Condition.signal t.wake;
        Mutex.unlock t.lock;
        Ok (jid, Tuned))
  end

let job t jid =
  Mutex.lock t.lock;
  let v = Option.map view_of_job (Hashtbl.find_opt t.jobs_tbl jid) in
  Mutex.unlock t.lock;
  v

let await t jid =
  Mutex.lock t.lock;
  let rec go () =
    match Hashtbl.find_opt t.jobs_tbl jid with
    | None ->
      Mutex.unlock t.lock;
      None
    | Some j -> (
      match j.jstatus with
      | Done _ | Failed _ ->
        let v = view_of_job j in
        Mutex.unlock t.lock;
        Some v
      | Queued | Running ->
        Condition.wait t.done_cv t.lock;
        go ())
  in
  go ()

let jobs t =
  Mutex.lock t.lock;
  let vs =
    Hashtbl.fold (fun _ j acc -> (j.jseq, view_of_job j) :: acc) t.jobs_tbl []
  in
  Mutex.unlock t.lock;
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) vs)

let cache_size t = Shardmap.length t.cache

(* --- shutdown ----------------------------------------------------------- *)

(* Signal-safe: only flips an atomic (no locks), so it can run from a
   SIGINT/SIGTERM handler at any safe point.  {!wait_shutdown} polls. *)
let request_shutdown t = Atomic.set t.shutdown_requested true

let shutdown_requested t = Atomic.get t.shutdown_requested

let wait_shutdown t =
  while not (Atomic.get t.shutdown_requested) do
    Thread.delay 0.05
  done

let stop t =
  if not (Atomic.exchange t.stop_started true) then begin
    Mutex.lock t.lock;
    if t.state = Serving then t.state <- Draining;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    (* Workers keep pulling queued sessions until the queue is dry, so a
       stop mid-burst drains every accepted job before returning. *)
    List.iter Thread.join t.worker_threads;
    (match t.httpd with Some h -> Httpd.stop h | None -> ());
    Mutex.lock t.lock;
    t.state <- Stopped;
    Mutex.unlock t.lock;
    (match t.cfg.schedule_cache_file with
    | Some path ->
      let n =
        Protocol.persist_cache path
          (Shardmap.fold t.cache (fun k v acc -> (k, v) :: acc) [])
      in
      Log.info (fun m -> m "persisted %d schedule cache entries to %s" n path)
    | None -> ());
    match t.cfg.measure_cache_file with
    | Some path ->
      let n = Mcf_search.Measure.cache_save t.measure_cache path in
      Log.info (fun m -> m "persisted %d measurements to %s" n path)
    | None -> ()
  end

(* --- HTTP surface -------------------------------------------------------- *)

let job_json t (v : job_view) =
  let state, extra =
    match v.vstatus with
    | Queued -> ("queued", [])
    | Running -> ("running", [])
    | Done s -> ("done", [ ("result", Protocol.sched_json s) ])
    | Failed msg -> ("failed", [ ("error", Json.Str msg) ])
  in
  ignore t;
  Json.Obj
    ([ ("job", Json.Str v.vid);
       ("workload", Json.Str v.vworkload);
       ("device", Json.Str v.vdevice);
       ("source", Json.Str (source_string v.vsource));
       ("state", Json.Str state);
       ("key", Json.Str v.vkey);
     ]
    @ extra)

let jobs_json t =
  let vs = jobs t in
  let count p = List.length (List.filter p vs) in
  Json.Obj
    [ ( "jobs",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [ ("job", Json.Str v.vid);
                   ("workload", Json.Str v.vworkload);
                   ("device", Json.Str v.vdevice);
                   ("source", Json.Str (source_string v.vsource));
                   ( "state",
                     Json.Str
                       (match v.vstatus with
                       | Queued -> "queued"
                       | Running -> "running"
                       | Done _ -> "done"
                       | Failed _ -> "failed") );
                 ])
             vs) );
      ( "counts",
        Json.Obj
          [ ( "queued",
              Json.num_of_int
                (count (fun v -> v.vstatus = Queued)) );
            ( "running",
              Json.num_of_int
                (count (fun v -> v.vstatus = Running)) );
            ( "done",
              Json.num_of_int
                (count (fun v ->
                     match v.vstatus with Done _ -> true | _ -> false)) );
            ( "failed",
              Json.num_of_int
                (count (fun v ->
                     match v.vstatus with Failed _ -> true | _ -> false)) );
          ] );
    ]

let serve_status_json t =
  Mutex.lock t.lock;
  let queued = Queue.length t.queue in
  let in_flight = Hashtbl.length t.sessions in
  let total = Hashtbl.length t.jobs_tbl in
  let state = t.state in
  Mutex.unlock t.lock;
  Json.Obj
    [ ( "state",
        Json.Str
          (match state with
          | Serving -> "serving"
          | Draining -> "draining"
          | Stopped -> "stopped") );
      ("workers", Json.num_of_int t.cfg.workers);
      ("queued_sessions", Json.num_of_int queued);
      ("inflight_sessions", Json.num_of_int in_flight);
      ("jobs", Json.num_of_int total);
      ("cache_entries", Json.num_of_int (cache_size t));
    ]

let json_response ?(status = 200) j =
  Httpd.response ~status ~content_type:"application/json"
    (Json.to_string j ^ "\n")

let error_response status msg =
  json_response ~status (Json.Obj [ ("error", Json.Str msg) ])

let strip_prefix p s =
  let lp = String.length p in
  if String.length s > lp && String.sub s 0 lp = p then
    Some (String.sub s lp (String.length s - lp))
  else None

(* A job evicted from the table (even one just submitted, should the
   bound have passed it meanwhile) answers as an unknown id. *)
let job_response ?status t jid =
  match job t jid with
  | None -> error_response 404 (Printf.sprintf "unknown job %S" jid)
  | Some v -> json_response ?status (job_json t v)

let handler t (req : Httpd.request) =
  match (req.meth, req.path) with
  | "POST", "/tune" -> (
    match Protocol.parse_tune_request req.body with
    | Error msg ->
      Metrics.incr c_rejected;
      error_response 400 msg
    | Ok treq -> (
      match submit t treq with
      | Error msg -> error_response 503 msg
      | Ok (jid, source) ->
        let status = match source with Cached -> 200 | _ -> 202 in
        job_response ~status t jid))
  | "GET", "/tune" ->
    Httpd.response ~status:405 "method not allowed (POST /tune)\n"
  | "GET", "/jobs" -> json_response (jobs_json t)
  | "GET", path when strip_prefix "/jobs/" path <> None -> (
    job_response t (Option.get (strip_prefix "/jobs/" path)))
  | "POST", "/shutdown" ->
    request_shutdown t;
    json_response ~status:202 (Json.Obj [ ("state", Json.Str "draining") ])
  | "GET", "/status" -> (
    (* The observability /status document plus a serve section. *)
    match Mcf_obs.Export.status_json () with
    | Json.Obj kvs ->
      json_response (Json.Obj (kvs @ [ ("serve", serve_status_json t) ]))
    | j -> json_response j)
  | _ -> Mcf_obs.Export.handler req

(* --- startup ------------------------------------------------------------- *)

let start ?(config = default_config) () =
  let cfg = { config with workers = max 1 config.workers } in
  let t =
    { cfg;
      lock = Mutex.create ();
      wake = Condition.create ();
      done_cv = Condition.create ();
      jobs_tbl = Hashtbl.create 64;
      finished = Queue.create ();
      sessions = Hashtbl.create 16;
      queue = Queue.create ();
      next_id = 0;
      state = Serving;
      worker_threads = [];
      cache =
        Shardmap.create ~shards:cfg.cache_shards
          ~capacity_per_shard:cfg.cache_capacity ();
      measure_cache = Mcf_search.Measure.cache_create ();
      httpd = None;
      shutdown_requested = Atomic.make false;
      stop_started = Atomic.make false }
  in
  (match cfg.schedule_cache_file with
  | Some path when Sys.file_exists path ->
    let entries, malformed = Protocol.load_cache path in
    List.iter (fun (key, sched) -> Shardmap.set t.cache key sched) entries;
    Log.info (fun m ->
        m "schedule cache warm-start: %d entries from %s (%d malformed)"
          (List.length entries) path malformed)
  | _ -> ());
  (match cfg.measure_cache_file with
  | Some path when Sys.file_exists path ->
    let loaded, malformed =
      Mcf_search.Measure.cache_load t.measure_cache path
    in
    Log.info (fun m ->
        m "measure cache warm-start: %d entries from %s (%d malformed)" loaded
          path malformed)
  | _ -> ());
  match
    Httpd.start ~max_connections:cfg.max_connections
      ~read_timeout_s:cfg.read_timeout_s ~max_body_bytes:cfg.max_body_bytes
      ~addr:cfg.addr ~port:cfg.port ~handler:(fun req -> handler t req) ()
  with
  | Error msg -> Error msg
  | Ok h ->
    t.httpd <- Some h;
    t.worker_threads <-
      List.init cfg.workers (fun _ -> Thread.create (worker_loop t) ());
    Ok t
