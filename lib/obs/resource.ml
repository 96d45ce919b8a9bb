(* Runtime resource telemetry.  See resource.mli for the contract.

   One sampler thread wakes every [period_s], snapshots the GC and the
   domain pool, and publishes the snapshot twice: as [rsrc.*] gauges in
   the metrics registry (latest value / high-water mark) and as Chrome
   trace counter events ("ph":"C") so --trace output shows heap and
   pool-utilization timelines under the phase spans.  Instrumented code
   can additionally call [sample] at phase boundaries (a cooperative
   tick), which both tightens the timeline around short phases and
   contributes the main domain's minor-heap vantage (in OCaml 5,
   [Gc.quick_stat] minor figures are per-domain; major-heap words and
   the [top_heap_words] high-water mark are process-global). *)

let g_heap_words = Metrics.gauge "rsrc.heap_words"
let g_heap_words_peak = Metrics.gauge "rsrc.heap_words_peak"
let g_minor_collections = Metrics.gauge "rsrc.minor_collections"
let g_major_collections = Metrics.gauge "rsrc.major_collections"
let g_promoted_words = Metrics.gauge "rsrc.promoted_words"
let g_alloc_rate = Metrics.gauge "rsrc.alloc_words_per_s"
let c_samples = Metrics.counter "rsrc.samples"

(* [Mcf_util.Pool] cannot push into the registry (mcf_obs sits on top of
   mcf_util), so its cumulative counters are pulled into these gauges. *)
let g_pool_domains = Metrics.gauge "pool.domains"
let g_pool_spawned = Metrics.gauge "pool.spawned"
let g_pool_jobs = Metrics.gauge "pool.jobs"
let g_pool_chunks = Metrics.gauge "pool.chunks"
let g_pool_idle_s = Metrics.gauge "pool.idle_s"
let g_pool_busy = Metrics.gauge "pool.busy"
let g_pool_util = Metrics.gauge "pool.utilization"

let set_pool_gauges (s : Mcf_util.Pool.stats) =
  Metrics.set g_pool_domains (float_of_int s.domains);
  Metrics.set g_pool_spawned (float_of_int s.spawned);
  Metrics.set g_pool_jobs (float_of_int s.jobs);
  Metrics.set g_pool_chunks (float_of_int s.chunks);
  Metrics.set g_pool_idle_s (float_of_int s.idle_ns *. 1e-9);
  Metrics.set g_pool_busy (float_of_int s.busy);
  Metrics.set g_pool_util
    (float_of_int s.busy /. float_of_int (max 1 s.domains))

let sync_pool () = set_pool_gauges (Mcf_util.Pool.stats ())

let running = Atomic.make false
let sampler : Thread.t option ref = ref None

(* High-water mark across the sampling session, in words.  Kept outside
   the gauge so [Metrics.reset] in tests cannot erase the mark mid-run. *)
let peak_words = Atomic.make 0.0

let rec raise_peak v =
  let cur = Atomic.get peak_words in
  if v > cur && not (Atomic.compare_and_set peak_words cur v) then
    raise_peak v

(* Allocation rate: delta of cumulative allocated words between two
   samples, whoever took them.  Guarded by a mutex — the sampler thread
   and cooperative ticks race on it. *)
let rate_lock = Mutex.create ()
let last_sample = ref None (* (time_s, allocated_words) *)

let peak_heap_words () =
  let q = Gc.quick_stat () in
  Float.max (Atomic.get peak_words) (float_of_int q.Gc.top_heap_words)

let sample_now () =
  let q = Gc.quick_stat () in
  let t = Unix.gettimeofday () in
  let heap = float_of_int q.Gc.heap_words in
  raise_peak (Float.max heap (float_of_int q.Gc.top_heap_words));
  let peak = Atomic.get peak_words in
  Metrics.incr c_samples;
  Metrics.set g_heap_words heap;
  Metrics.set g_heap_words_peak peak;
  Metrics.set g_minor_collections (float_of_int q.Gc.minor_collections);
  Metrics.set g_major_collections (float_of_int q.Gc.major_collections);
  Metrics.set g_promoted_words q.Gc.promoted_words;
  let allocated = q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words in
  let rate =
    Mutex.lock rate_lock;
    let r =
      match !last_sample with
      | Some (t0, a0) when t > t0 && allocated >= a0 ->
        Some ((allocated -. a0) /. (t -. t0))
      | _ -> None
    in
    last_sample := Some (t, allocated);
    Mutex.unlock rate_lock;
    r
  in
  (match rate with Some r -> Metrics.set g_alloc_rate r | None -> ());
  (* Pool gauges go live on every tick (not just at teardown), so short
     phases show up in metrics output too. *)
  let s = Mcf_util.Pool.stats () in
  set_pool_gauges s;
  let busy = float_of_int s.Mcf_util.Pool.busy in
  let domains = float_of_int (max 1 s.Mcf_util.Pool.domains) in
  Trace.counter "rsrc.heap_words" (fun () ->
      [ ("heap", heap); ("peak", peak) ]);
  Trace.counter "rsrc.pool_util" (fun () ->
      [ ("busy", busy); ("utilization", busy /. domains) ]);
  Trace.counter "rsrc.alloc_words_per_s" (fun () ->
      [ ("rate", match rate with Some r -> r | None -> 0.0) ]);
  Trace.counter "rsrc.gc" (fun () ->
      [ ("minor", float_of_int q.Gc.minor_collections);
        ("major", float_of_int q.Gc.major_collections) ])

let sample () = if Atomic.get running then sample_now ()

let loop period_s () =
  while Atomic.get running do
    Thread.delay period_s;
    if Atomic.get running then sample_now ()
  done

let start ~period_s =
  if not (Atomic.get running) then begin
    Atomic.set peak_words 0.0;
    Mutex.lock rate_lock;
    last_sample := None;
    Mutex.unlock rate_lock;
    Atomic.set running true;
    (* One sample up front: even a run shorter than the period gets a
       complete set of series. *)
    sample_now ();
    sampler := Some (Thread.create (loop (Float.max 1e-4 period_s)) ())
  end

let stop () =
  if Atomic.get running then begin
    Atomic.set running false;
    (match !sampler with Some t -> Thread.join t | None -> ());
    sampler := None;
    (* Closing sample so the gauges reflect the end of the run. *)
    sample_now ()
  end

let active () = Atomic.get running
