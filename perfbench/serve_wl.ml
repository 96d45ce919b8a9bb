(* serve-open: an open-loop load generator against a separately launched
   [mcfuser serve], plus the serve-layer measurements the tune workloads'
   traced runs reuse.

   Latency is timed from each request's scheduled send time to the moment
   the generator sees the job complete, so a stalled sender or a queue in
   the daemon shows up in every request scheduled behind it.  The
   generator runs two threads, a sender and a poller, each with at most
   one connection open. *)

module Json = Mcf_util.Json
module Client = Mcf_util.Httpd.Client
module Protocol = Mcf_serve.Protocol
module Rng = Mcf_util.Rng

(* Daemon size: tuner worker threads and pool domains, both within the
   two cores of the reference machine. *)
let workers = 2
let jobs = 2

type slot = {
  at : float;  (* scheduled send, seconds after the schedule starts *)
  body : string;
  mutable due : float;  (* absolute scheduled send time *)
  mutable sent : float;
  mutable post_rtt : float;
  mutable status : int;  (* HTTP status of the POST; 0 without a response *)
  mutable source : string;
  mutable jid : string;
  mutable key : string;
  mutable done_at : float;  (* when the generator saw the job complete *)
  mutable sched : Protocol.sched option;
  mutable failed : bool;
}

let slot ~at body =
  { at;
    body;
    due = nan;
    sent = nan;
    post_rtt = nan;
    status = 0;
    source = "";
    jid = "";
    key = "";
    done_at = nan;
    sched = None;
    failed = false }

let ok s = (not s.failed) && Option.is_some s.sched
let latency s = s.done_at -. s.due

let complete s t j =
  match
    ( Daemon.jstr j "state",
      Option.bind (Json.member "result" j) Protocol.sched_of_json )
  with
  | "done", (Some _ as sched) ->
    s.done_at <- t;
    s.sched <- sched
  | _ -> s.failed <- true

(* POST one request; true when it was accepted (202) and must be polled. *)
let post url s =
  s.sent <- Common.now ();
  match Client.post ~timeout_s:30.0 (url ^ "/tune") ~body:s.body with
  | Error _ ->
    s.failed <- true;
    false
  | Ok (code, body) -> (
    let t = Common.now () in
    s.post_rtt <- t -. s.sent;
    s.status <- code;
    match Daemon.parse body with
    | Some j when code = 200 || code = 202 ->
      s.source <- Daemon.jstr j "source";
      s.jid <- Daemon.jstr j "job";
      s.key <- Daemon.jstr j "key";
      if code = 200 then complete s t j;
      code = 202
    | _ ->
      s.failed <- true;
      false)

(* One GET /jobs/:id; true while the job is still queued or running. *)
let poll url rtts s =
  let t0 = Common.now () in
  match Client.get ~timeout_s:30.0 (url ^ "/jobs/" ^ s.jid) with
  | Ok (200, body) -> (
    let t = Common.now () in
    rtts := (t -. t0) :: !rtts;
    match Daemon.parse body with
    | Some j -> (
      match Daemon.jstr j "state" with
      | "queued" | "running" -> true
      | _ ->
        complete s t j;
        false)
    | None ->
      s.failed <- true;
      false)
  | _ ->
    s.failed <- true;
    false

(* The pause between polling sweeps bounds how finely completion times
   are observed: well under a millisecond plus one round trip. *)
let sweep_pause_s = 0.0005

let rec wait_all url rtts pending =
  match List.filter (poll url rtts) pending with
  | [] -> ()
  | still ->
    Thread.delay sweep_pause_s;
    wait_all url rtts still

(* Send [slots] on their schedule and poll accepted jobs to completion;
   returns the schedule's start time and the poll round trips. *)
let run_open_loop url slots ~give_up_s =
  let lock = Mutex.create () in
  let pending = ref [] in
  let sender_done = Atomic.make false in
  let rtts = ref [] in
  let t0 = Common.now () +. 0.05 in
  let sender () =
    Array.iter
      (fun s ->
        s.due <- t0 +. s.at;
        let d = s.due -. Common.now () in
        if d > 0.0 then Thread.delay d;
        if post url s then begin
          Mutex.lock lock;
          pending := s :: !pending;
          Mutex.unlock lock
        end)
      slots;
    Atomic.set sender_done true
  in
  let poller () =
    let rec loop () =
      let finished = Atomic.get sender_done in
      Mutex.lock lock;
      let batch = !pending in
      pending := [];
      Mutex.unlock lock;
      let still = List.filter (poll url rtts) batch in
      Mutex.lock lock;
      pending := still @ !pending;
      let idle = match !pending with [] -> true | _ -> false in
      if Common.now () > t0 +. give_up_s then
        List.iter (fun s -> s.failed <- true) !pending;
      Mutex.unlock lock;
      if not ((finished && idle) || Common.now () > t0 +. give_up_s) then begin
        Thread.delay sweep_pause_s;
        loop ()
      end
    in
    loop ()
  in
  let ts = Thread.create sender () in
  let tp = Thread.create poller () in
  Thread.join ts;
  Thread.join tp;
  (t0, !rtts)

(* --- the serve-open schedule ------------------------------------------- *)

type profile = {
  rate : float;  (* base Poisson arrivals per second *)
  cold_frac : float;  (* share of base arrivals that are fresh chains *)
  hot_keys : int;  (* built-in (workload, device) pairs in the hot set *)
  limit_s : float;  (* latency limit for goodput *)
}

(* About one base arrival in eight is a fresh chain: 144 in a 20 s run,
   every (chain, device) of the pool three times. *)
let full_profile = { rate = 60.0; cold_frac = 0.12; hot_keys = 6; limit_s = 0.25 }
let tiny_profile = { rate = 10.0; cold_frac = 0.2; hot_keys = 2; limit_s = 1.0 }

let builtin_body ?seed ?reservoir ~device name =
  let opt k = function Some v -> [ (k, Json.num_of_int v) ] | None -> [] in
  Json.to_string
    (Json.Obj
       ([ ("workload", Json.Str name); ("device", Json.Str device) ]
       @ opt "seed" seed @ opt "reservoir" reservoir))

(* The fresh inline chains, (device, kind, batch or heads, m, n, k = h):
   small dims, so the interpreter can check every winner.  A run walks
   the pool from a seeded offset with fresh tuner seeds, so every seed
   tunes the same mix of chains, each request is a new session, and
   repeated dims read the shared measurement cache as well as write it. *)
let cold_pool =
  let gemm =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun n -> List.map (fun kh -> ("gemm", 1, m, n, kh)) [ 16; 32 ])
          [ 32; 64 ])
      [ 32; 64; 128 ]
  in
  let attention =
    List.concat_map
      (fun heads ->
        List.concat_map
          (fun m -> List.map (fun kh -> ("attention", heads, m, 64, kh)) [ 16; 32 ])
          [ 32; 64; 128 ])
      [ 1; 2 ]
  in
  Array.of_list
    (List.concat_map
       (fun device -> List.map (fun c -> (device, c)) (gemm @ attention))
       [ "A100"; "RTX3080" ])

let inline_body rng (device, (kind, batch, m, n, kh)) =
  let num = Json.num_of_int in
  Json.to_string
    (Json.Obj
       [ ( "chain",
           Json.Obj
             [ ("kind", Json.Str kind);
               ("batch", num batch);
               ("m", num m);
               ("n", num n);
               ("k", num kh);
               ("h", num kh) ] );
         ("device", Json.Str device);
         ("seed", num (Rng.int rng 1_000_000_000)) ])

(* Base arrivals are a Poisson process conditioned on its count (sorted
   uniform times), so every seed offers the same number of requests.  Most
   repeat the hot set; a fixed share are fresh chains, each followed 2 ms
   and 4 ms later by a duplicate that joins its in-flight session. *)
let schedule rng prof ~seconds =
  let names = Array.of_list Common.table_names in
  let devices = [| "A100"; "RTX3080" |] in
  let hot =
    Array.of_list
      (List.map
         (fun i ->
           builtin_body
             ~seed:(Rng.int rng 1_000_000_000)
             ~device:devices.(i mod 2)
             names.(i / 2))
         (Rng.sample_without_replacement rng prof.hot_keys
            (2 * Array.length names)))
  in
  let n = max 1 (int_of_float (prof.rate *. seconds)) in
  let times = Array.init n (fun _ -> Rng.float rng seconds) in
  Array.sort Float.compare times;
  (* Whole cycles through the pool, so every seed tunes the same mix. *)
  let pool = Array.length cold_pool in
  let n_cold =
    min (n / 2)
      (pool * max 1 (int_of_float (Float.round (prof.cold_frac *. float_of_int n /. float_of_int pool))))
  in
  let cold = Array.init n (fun i -> i < n_cold) in
  Rng.shuffle rng cold;
  let next = ref (Rng.int rng pool) in
  let slots = ref [] in
  Array.iteri
    (fun i at ->
      if cold.(i) then begin
        let body = inline_body rng cold_pool.(!next mod pool) in
        incr next;
        slots :=
          slot ~at:(at +. 0.004) body
          :: slot ~at:(at +. 0.002) body
          :: slot ~at body :: !slots
      end
      else slots := slot ~at (Rng.pick rng hot) :: !slots)
    times;
  let slots = Array.of_list (List.rev !slots) in
  Array.stable_sort (fun a b -> Float.compare a.at b.at) slots;
  (hot, slots)

(* Prime a schedule cache with the hot set through one daemon (untimed),
   then time [reps] launches that warm-start from it until [/readyz]
   answers; the last daemon stays up to serve the run. *)
let setup ~dir ~reps hot =
  let cache = Filename.concat dir "schedules.jsonl" in
  match Daemon.launch ~dir ~workers ~jobs ~schedule_cache:cache () with
  | Error e -> Error e
  | Ok d ->
    let primed = Array.to_list (Array.map (fun body -> slot ~at:0.0 body) hot) in
    List.iter (fun s -> s.due <- Common.now ()) primed;
    wait_all d.url (ref []) (List.filter (post d.url) primed);
    let primed_stopped = Daemon.stop d in
    let rec launch i times =
      match
        Common.timed (fun () ->
            Daemon.launch ~dir ~workers ~jobs ~schedule_cache:cache ())
      with
      | Error e, _ -> Error e
      | Ok d, dt ->
        if i + 1 < reps then begin
          ignore (Daemon.stop d);
          launch (i + 1) (dt :: times)
        end
        else Ok (d, Common.median (dt :: times), primed, primed_stopped)
    in
    launch 0 []

(* --- serve-layer metrics ----------------------------------------------- *)

(* Per-call cost of the wire layer over a workload's request bodies,
   repeated until the timed region is long enough to read. *)
let protocol_us bodies =
  let per_call f xs =
    let n = List.length xs in
    if n = 0 then 0.0
    else begin
      let calls = ref 0 in
      let (), dt =
        Common.timed (fun () ->
            let t_end = Common.now () +. 0.05 in
            while Common.now () < t_end do
              List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
              calls := !calls + n
            done)
      in
      1e6 *. dt /. float_of_int !calls
    end
  in
  let reqs =
    List.filter_map
      (fun b -> Result.to_option (Protocol.parse_tune_request b))
      bodies
  in
  (per_call Protocol.parse_tune_request bodies, per_call Protocol.key reqs)

(* [direct] maps a request key to the untraced Tuner.tune seconds of the
   same request; the difference to a tuned request's latency is the time
   spent queueing and in transport. *)
let layer_metrics ~slots ~poll_rtts ~daemon_samples ~direct ~lag_p99_s ~bodies =
  let oks = List.filter ok slots in
  let n_ok = float_of_int (List.length oks) in
  let rtt_of code =
    List.filter_map
      (fun s -> if s.status = code then Some s.post_rtt else None)
      slots
  in
  let source src = List.filter (fun s -> s.source = src) oks in
  let count src = float_of_int (List.length (source src)) in
  let overheads =
    List.filter_map
      (fun s ->
        Option.map (fun d -> latency s -. d) (Hashtbl.find_opt direct s.key))
      (source "tuned")
  in
  let hits = Daemon.sample daemon_samples "mcfuser_measure_cache_hits" in
  let misses = Daemon.sample daemon_samples "mcfuser_measure_cache_misses" in
  let parse_us, key_us = protocol_us bodies in
  Common.
    [ m "protocol.parse_us" "us" parse_us;
      m "protocol.key_us" "us" key_us;
      m "httpd.post_rtt_200_s" "s" (median (rtt_of 200));
      m "httpd.post_rtt_202_s" "s" (median (rtt_of 202));
      m "httpd.poll_rtt_s" "s" (median poll_rtts);
      m "server.hit_ratio" "ratio" (ratio (count "cached") n_ok);
      m "server.coalesced_ratio" "ratio" (ratio (count "coalesced") n_ok);
      m "server.sessions" "count" (count "tuned");
      m "server.tuned_overhead_s" "s" (median overheads);
      m "measure.cache_hit_ratio" "ratio" (ratio hits (hits +. misses));
      m "loadgen.lag_p99_s" "s" lag_p99_s ]

(* A closed serve leg over a tune workload's own requests: each body is
   sent twice back to back (a fresh session, then a duplicate that
   coalesces onto it), both are polled to completion, then it is sent a
   third time (a schedule-cache hit). *)
let leg ~dir bodies =
  match Daemon.launch ~dir ~workers ~jobs () with
  | Error e -> Error e
  | Ok d ->
    let rtts = ref [] in
    let send body =
      let s = slot ~at:0.0 body in
      s.due <- Common.now ();
      (s, post d.url s)
    in
    let slots =
      List.concat_map
        (fun body ->
          let a, pa = send body in
          let b, pb = send body in
          wait_all d.url rtts
            (List.filter_map
               (fun (s, p) -> if p then Some s else None)
               [ (a, pa); (b, pb) ]);
          let c, _ = send body in
          [ a; b; c ])
        bodies
    in
    let samples = Daemon.scrape d in
    let stopped = Daemon.stop d in
    Ok (slots, !rtts, samples, stopped)

(* --- the workload -------------------------------------------------------- *)

let same_sched (a : Protocol.sched) (b : Protocol.sched) =
  a.cand = b.cand
  && Common.same_bits a.time_s b.time_s
  && Common.same_bits a.virtual_s b.virtual_s

let run ~dir ~seed ~seconds ~trace ~tiny =
  let prof = if tiny then tiny_profile else full_profile in
  let rng = Rng.create seed in
  let hot, slots = schedule rng prof ~seconds in
  match setup ~dir ~reps:(if tiny then 2 else 11) hot with
  | Error e -> failwith e
  | Ok (d, setup_s, primed, primed_stopped) ->
    let t0, poll_rtts = run_open_loop d.url slots ~give_up_s:(seconds +. 60.0) in
    let daemon_samples = Daemon.scrape d in
    let stopped = Daemon.stop d in
    let all = Array.to_list slots in
    let oks = List.filter ok all in
    let wall =
      List.fold_left (fun acc s -> Float.max acc s.done_at) t0 oks -. t0
    in
    (* Output checks, outside the timed region: every answer for one key
       carries the same schedule, equal to a direct Tuner.tune of that
       request, and every winner passes the interpreter. *)
    let bad = ref (if primed_stopped && stopped then 0 else 1) in
    let by_key = Hashtbl.create 64 and order = ref [] in
    List.iter
      (fun s ->
        if not (ok s) then incr bad
        else
          match Hashtbl.find_opt by_key s.key with
          | Some l -> Hashtbl.replace by_key s.key (s :: l)
          | None ->
            Hashtbl.add by_key s.key [ s ];
            order := s.key :: !order)
      (primed @ all);
    let hot_keys = List.map (fun s -> s.key) primed in
    let direct = Hashtbl.create 64 and requests = Hashtbl.create 64 in
    let kernel_us = ref [] and winners = ref [] in
    let tune_s = ref [] in
    List.iter
      (fun key ->
        let answers = List.rev (Hashtbl.find by_key key) in
        let s0 = List.hd answers in
        let sched0 = Option.get s0.sched in
        if not (List.for_all (fun s -> same_sched (Option.get s.sched) sched0) answers)
        then incr bad;
        match Protocol.parse_tune_request s0.body with
        | Error _ -> incr bad
        | Ok req -> (
          let tune () =
            Common.timed (fun () ->
                Mcf_search.Tuner.tune ?seed:req.seed ?reservoir:req.reservoir
                  req.spec req.chain)
          in
          match tune () with
          | Error _, _ -> incr bad
          | Ok o, dt ->
            if not (same_sched (Protocol.sched_of_outcome o) sched0) then incr bad;
            (* Sessions of this run are timed three times (median); the
               hot set was tuned while priming, before the run. *)
            let dt =
              if List.mem key hot_keys then dt
              else begin
                let dts = dt :: List.init 2 (fun _ -> snd (tune ())) in
                tune_s := dts @ !tune_s;
                Common.median dts
              end
            in
            Hashtbl.replace direct key dt;
            Hashtbl.replace requests key (req, Common.outcome_fingerprint o);
            kernel_us := (sched0.time_s *. 1e6) :: !kernel_us;
            winners := (req.chain, o.best.cand) :: !winners))
      (List.rev !order);
    let checked, interp_bad = Common.interp_check ~seed (List.rev !winners) in
    let metrics =
      if not trace then begin
        let lats ss = List.map latency ss in
        let with_status c = List.filter (fun s -> s.status = c) oks in
        let sessions = List.filter (fun s -> s.source = "tuned") oks in
        let good = List.filter (fun s -> latency s <= prof.limit_s) oks in
        Common.
          [ m "tune_s_p50" "s" (pct 50.0 !tune_s);
            m "tune_s_p90" "s" (pct 90.0 !tune_s);
            m "tunes_per_s" "1/s"
              (ratio (float_of_int (List.length sessions)) wall);
            m "winner_kernel_us_geomean" "us" (Stats.geomean !kernel_us);
            m "tuning_virtual_s" "s"
              (sum
                 (List.map
                    (fun s -> (Option.get s.sched).Protocol.virtual_s)
                    sessions));
            m "peak_rss_mb" "MB" (peak_rss_mb ~children:true ());
            m "setup_s" "s" setup_s;
            m "serve_p50_s" "s" (pct 50.0 (lats oks));
            m "serve_p99_s" "s" (pct 99.0 (lats oks));
            m "serve_hit_p99_s" "s" (pct 99.0 (lats (with_status 200)));
            m "serve_tuned_p90_s" "s" (pct 90.0 (lats (with_status 202)));
            m "serve_goodput_per_s" "1/s"
              (ratio (float_of_int (List.length good)) wall) ]
      end
      else begin
        (* Stage-by-stage replays of a sample of the served requests. *)
        let sample = Mcf_util.Listx.take (if tiny then 2 else 12) (List.rev !order) in
        let traces =
          List.filter_map
            (fun key ->
              match Hashtbl.find_opt requests key with
              | None -> None
              | Some ((req : Protocol.tune_request), fp) -> (
                match
                  Layers.replay ?reservoir:req.reservoir
                    ~seed:(Option.get req.seed) req.spec req.chain
                with
                | None ->
                  incr bad;
                  None
                | Some (st, entries, scores) ->
                  if not (String.equal st.fp fp) then incr bad;
                  Some
                    { Layers.untraced_s = [ Hashtbl.find direct key ];
                      samples = [ (st, Layers.probe req.spec st entries scores) ] }))
            sample
        in
        Layers.metrics traces
        @ layer_metrics ~slots:all ~poll_rtts ~daemon_samples ~direct
            ~lag_p99_s:(Common.pct 99.0 (List.map (fun s -> s.sent -. s.due) all))
            ~bodies:(List.map (fun s -> s.body) all)
      end
    in
    let num = Json.num_of_int in
    { Common.attempted = Array.length slots + checked;
      failed = !bad + interp_bad;
      metrics;
      env =
        [ ("requests", num (Array.length slots));
          ("offered_rate_per_s", Json.Num prof.rate);
          ("hot_keys", num prof.hot_keys);
          ("distinct_keys", num (List.length !order));
          ("limit_s", Json.Num prof.limit_s);
          ("daemon_workers", num workers);
          ("daemon_jobs", num jobs);
          ("generator_threads", num 2);
          ("interp_checked", num checked) ] }
