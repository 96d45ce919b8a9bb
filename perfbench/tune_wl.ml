(* tune-tables and tune-deep: a closed loop with one client that calls
   Mcf_search.Tuner.tune directly and, after each tune, deploys the winner
   from the schedule cache before sending its next request. *)

module Tuner = Mcf_search.Tuner
module Schedule_cache = Mcf_search.Schedule_cache
module Protocol = Mcf_serve.Protocol

type key = {
  spec : Mcf_gpu.Spec.t;
  chain : Mcf_ir.Chain.t;
  seed : int;
  reservoir : int option;
  body : string;  (* the same request as a POST /tune body *)
}

(* Latency limits for goodput, well above a healthy tune of the slowest
   chain of each workload. *)
let limit_s ~deep = if deep then 10.0 else 1.0

(* Every chain of the workload with a tuner seed drawn from the workload
   seed.  tune-deep bounds residency with the reservoir its chains need,
   and tunes each of its two chains under four seeds so that one seed's
   luck in the explorer does not decide the run.  D7 is left out: at
   about 1.2 s a tune it made rounds too long for each key to get the
   many rounds its best one is taken from (see perfbench/README.md). *)
let keys ~deep ~tiny seed =
  let rng = Mcf_util.Rng.create seed in
  let specs, names, reservoir =
    if deep then
      ( [ Mcf_gpu.Spec.a100 ],
        (if tiny then [ "D5" ]
         else List.concat_map (fun c -> List.init 4 (Fun.const c)) [ "D5"; "D6" ]),
        Some (if tiny then 64 else 512) )
    else
      ( [ Mcf_gpu.Spec.a100; Mcf_gpu.Spec.rtx3080 ],
        (if tiny then [ "G1"; "S7" ] else Common.table_names),
        None )
  in
  Array.of_list
    (List.concat_map
       (fun (spec : Mcf_gpu.Spec.t) ->
         List.map
           (fun name ->
             let chain =
               match Protocol.chain_of_workload name with
               | Ok c -> c
               | Error e -> failwith e
             in
             let seed = Mcf_util.Rng.int rng 1_000_000_000 in
             { spec;
               chain;
               seed;
               reservoir;
               body = Serve_wl.builtin_body ~seed ?reservoir ~device:spec.name name })
           names)
       specs)

(* Building the chains and starting the shared pool: what a process does
   before its first tune.  [setup_s] times it in fresh processes. *)
let prepare ~deep ~tiny seed =
  let keys = keys ~deep ~tiny seed in
  ignore
    (Sys.opaque_identity
       (Mcf_util.Pool.init ~min_chunk_work:1 (Mcf_util.Pool.get ()) 64 (fun i -> i * i)));
  keys

(* The processor time of a fresh process of the benchmark's executable
   run with [--setup-probe]: loading and initialising the program, then
   building the chains and starting the pool, up to the point where it
   reports ready and exits.  The median of [reps] launches, one after the
   other, each waited for.  Processor time rather than the wall clock, as
   for the tunes, so that a launch the host happens to delay does not
   count the delay. *)
let setup_s ~deep ~tiny ~reps seed =
  let argv =
    [| Sys.executable_name; "--workload"; (if deep then "tune-deep" else "tune-tables");
       "--seed"; string_of_int seed; "--seconds"; "1"; "--trace"; "0";
       "--size"; (if tiny then "tiny" else "full"); "--setup-probe" |]
  in
  let once () =
    let r, w = Unix.pipe ~cloexec:true () in
    let c0 = Common.children_cpu () in
    let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let ready =
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          ignore (Unix.waitpid [] pid))
        (fun () -> try input_line ic = "ready" with End_of_file -> false)
    in
    if not ready then failwith "perfbench: set-up probe failed";
    Common.children_cpu () -. c0
  in
  Common.median (List.init reps (fun _ -> once ()))

type sample = {
  k : int;
  round : int;
  tune_s : float;
  lat_s : float;  (* completion minus due time: the previous request's completion *)
  lag_s : float;  (* how late the client made the call *)
  hit_s : float list;  (* each deploy-from-cache request that follows the tune *)
  tune_ok : bool;
  hit_ok : bool;
}

type loop = {
  samples : sample list;
  marks : float list;  (* peak resident memory after each round, last first *)
  probes : float list;  (* host-speed probe passes, between requests *)
  winners : (string * Mcf_ir.Candidate.t * float * float) option array;
      (* round-one fingerprint, winner, kernel_time_s, tuning_virtual_s *)
  attempted : int;
  failed : int;
}

(* A deploy answered from the schedule cache: look the winner up, compile
   and simulate it; the kernel time must equal the tuned one bit for bit. *)
let deploy cache k expected =
  match Schedule_cache.lookup cache ~chain:k.chain ~device:k.spec.name with
  | None -> false
  | Some e -> (
    match Mcf_codegen.Compile.compile_candidate k.spec k.chain e.ecand with
    | Error _ -> false
    | Ok kernel -> (
      match Mcf_gpu.Sim.run k.spec kernel with
      | Ok v -> Common.same_bits v.time_s expected
      | Error _ -> false))

(* Whole rounds over [keys] until [seconds] have passed: at least one, and
   never a partial one, so every run measures the same mix of chains.
   Each round visits the keys in a fresh order drawn from [rng]: a round
   allocates the same amount every time, so in a fixed order a key would
   meet the collector at the same point of every round, and its best
   round could not escape it. *)
let rounds ?(after_round = ignore) ~rng ~seconds n f =
  let deadline = Common.now () +. seconds in
  let order = Array.init n Fun.id in
  let j = ref 0 in
  while !j = 0 || !j mod n <> 0 || Common.now () < deadline do
    if !j mod n = 0 then Mcf_util.Rng.shuffle rng order;
    f ~round:(!j / n) order.(!j mod n);
    incr j;
    if !j mod n = 0 then after_round ()
  done;
  !j

(* Deploy requests after each tune: the closed loop's cache hits. *)
let deploys = 5

(* Wall seconds between host-speed probe passes. *)
let probe_every_s = 0.5

(* Every later round must reproduce round one's fingerprint for the same
   (chain, device, seed).  [clock] times the samples; the rounds end by
   the wall clock. *)
let run_loop ~clock ~rng ~seconds keys =
  let n = Array.length keys in
  let winners = Array.make n None in
  let cache = ref Schedule_cache.empty in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let marks = ref [] and probes = ref [] and last_probe = ref 0.0 in
  let prev = ref (clock ()) in
  (* A probe pass is kept out of the glue the next request is charged
     with. *)
  let probe () =
    probes := Common.probe_s () :: !probes;
    last_probe := Common.now ();
    prev := clock ()
  in
  let tune ~round i =
    let k = keys.(i) in
    let due = !prev in
    let start = clock () in
    let res = Tuner.tune ?reservoir:k.reservoir ~seed:k.seed k.spec k.chain in
    let fin = clock () in
    incr attempted;
    match res with
    | Error _ ->
      incr failed;
      prev := fin
    | Ok o ->
      let fp = Common.outcome_fingerprint o in
      let tune_ok =
        match winners.(i) with
        | None ->
          winners.(i) <-
            Some (fp, o.best.cand, o.kernel_time_s, o.tuning_virtual_s);
          true
        | Some (fp0, _, _, _) -> String.equal fp fp0
      in
      if not tune_ok then incr failed;
      cache :=
        Schedule_cache.add !cache
          { Schedule_cache.echain = k.chain.cname;
            edevice = k.spec.name;
            ecand = o.best.cand;
            etime_s = o.kernel_time_s };
      let hit_ok = ref true and hit_s = ref [] and hfin = ref fin in
      for _ = 1 to deploys do
        let ok = deploy !cache k o.kernel_time_s in
        let t = clock () in
        incr attempted;
        if not ok then begin
          incr failed;
          hit_ok := false
        end;
        hit_s := (t -. !hfin) :: !hit_s;
        hfin := t
      done;
      samples :=
        { k = i;
          round;
          tune_s = fin -. start;
          lat_s = fin -. due;
          lag_s = start -. due;
          hit_s = !hit_s;
          tune_ok;
          hit_ok = !hit_ok }
        :: !samples;
      prev := !hfin;
      if Common.now () -. !last_probe >= probe_every_s then probe ()
  in
  let after_round () = marks := Common.peak_rss_mb () :: !marks in
  probe ();
  ignore (rounds ~after_round ~rng ~seconds n tune);
  probe ();
  { samples = !samples;
    marks = !marks;
    probes = !probes;
    winners;
    attempted = !attempted;
    failed = !failed }

(* The samples [keep] admits, by key: each key's best round. *)
let best_by_key keep cost samples =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if keep s then
        match Hashtbl.find_opt by_key s.k with
        | Some b when cost b <= cost s -> ()
        | _ -> Hashtbl.replace by_key s.k s)
    samples;
  Hashtbl.fold (fun _ s acc -> s :: acc) by_key []

(* Each key's least value [f s] over the samples [keep] admits, from
   every round.  Percentiles are taken across these.  The mix of chains is
   the same whatever the number of rounds a run completes.  The host can
   only slow a request down (its cache, memory bus and hyperthread sibling
   are shared with other tenants even when the processor-time clock leaves
   out the time it runs something else), so the least of a key's rounds is
   the figure that a busy spell in the run moves least. *)
let key_mins keep f samples =
  let least s = List.fold_left Float.min Float.infinity (f s) in
  List.map least (best_by_key keep least samples)

(* A request's whole cycle on the loop's clock: the tune and its deploys,
   back to back, glue and GC carried over from the previous request
   included. *)
let cycle_s s = s.lat_s +. Common.sum s.hit_s

(* [count s] summed over each key's fastest cycle ÷ the sum of those
   cycles: the rate of one round made of every key's best cycle. *)
let best_round_rate count samples =
  let best = best_by_key (fun _ -> true) cycle_s samples in
  Common.ratio
    (float_of_int (Common.sum_int (List.map count best)))
    (Common.sum (List.map cycle_s best))

(* The resident high-water mark after the first round: a fixed amount of
   work, where the mark at the end of the run would rise with the number
   of rounds the host's speed allowed. *)
let first_mark marks =
  match List.rev marks with m1 :: _ -> m1 | [] -> Common.peak_rss_mb ()

(* The probe's best pass on the reference machine (2 vCPUs of a shared
   x86-64 host, OCaml 5.1.1). *)
let reference_probe_s = 0.018

(* How fast the host ran the run against the reference machine: the
   reference probe time over the run's best pass, below 1 when slower.
   The best pass, like each key's best round, is the host at its fastest
   in the run, so a run that never met a fast spell has its keys' best
   rounds and its best probe pass slowed alike. *)
let host_speed (l : loop) =
  reference_probe_s /. List.fold_left Float.min Float.infinity l.probes

(* Times and rates on the processor clock are reported at the reference
   machine's speed: times multiplied by [host_speed], rates divided. *)
let e2e ~limit_s ~setup_s (l : loop) =
  let speed = host_speed l in
  let at_ref t = t *. speed and rate_at_ref r = r /. speed in
  let tune_ok s = s.tune_ok in
  let tunes = key_mins tune_ok (fun s -> [ s.tune_s ]) l.samples in
  let lats = key_mins tune_ok (fun s -> [ s.lat_s ]) l.samples in
  let hits = key_mins (fun s -> s.hit_ok) (fun s -> s.hit_s) l.samples in
  let within ok xs = if ok then List.length (List.filter (fun x -> x <= limit_s) xs) else 0 in
  let winners = List.filter_map Fun.id (Array.to_list l.winners) in
  Common.
    [ m "tune_s_p50" "s" (at_ref (pct 50.0 tunes));
      m "tune_s_p90" "s" (at_ref (pct 90.0 tunes));
      m "tunes_per_s" "1/s"
        (rate_at_ref (best_round_rate (fun s -> Bool.to_int s.tune_ok) l.samples));
      m "winner_kernel_us_geomean" "us"
        (Stats.geomean (List.map (fun (_, _, t, _) -> t *. 1e6) winners));
      m "tuning_virtual_s" "s" (sum (List.map (fun (_, _, _, v) -> v) winners));
      m "peak_rss_mb" "MB" (first_mark l.marks);
      m "setup_s" "s" (at_ref setup_s);
      m "serve_p50_s" "s" (at_ref (pct 50.0 lats));
      m "serve_p99_s" "s" (at_ref (pct 99.0 lats));
      m "serve_hit_p99_s" "s" (at_ref (pct 99.0 hits));
      m "serve_tuned_p90_s" "s" (at_ref (pct 90.0 lats));
      m "serve_goodput_per_s" "1/s"
        (rate_at_ref
           (best_round_rate
              (fun s -> within s.tune_ok [ s.lat_s ] + within s.hit_ok s.hit_s)
              l.samples)) ]

let interp ~seed keys (l : loop) =
  Common.interp_check ~seed
    (List.filter_map Fun.id
       (Array.to_list
          (Array.mapi
             (fun i w -> Option.map (fun (_, cand, _, _) -> (keys.(i).chain, cand)) w)
             l.winners)))

(* The traced run: an untraced half for the baseline, a traced half of
   stage-by-stage replays with per-layer probes, then a serve leg over the
   workload's own requests (at most six keys). *)
let traced ~dir ~rng ~seconds keys =
  let n = Array.length keys in
  let l = run_loop ~clock:Common.now ~rng ~seconds:(seconds /. 2.0) keys in
  let untraced = Array.make n [] in
  List.iter
    (fun s -> if s.tune_ok then untraced.(s.k) <- s.tune_s :: untraced.(s.k))
    l.samples;
  let traces = Array.make n [] in
  let bad = ref 0 in
  let replays =
    rounds ~rng ~seconds:(seconds /. 2.0) n (fun ~round:_ i ->
        let k = keys.(i) in
        match Layers.replay ?reservoir:k.reservoir ~seed:k.seed k.spec k.chain with
        | None -> incr bad
        | Some (st, entries, scores) ->
          (match l.winners.(i) with
          | Some (fp, _, _, _) when String.equal fp st.fp -> ()
          | _ -> incr bad);
          traces.(i) <- (st, Layers.probe k.spec st entries scores) :: traces.(i))
  in
  let key_traces =
    List.filter_map
      (fun i ->
        match (untraced.(i), traces.(i)) with
        | [], _ | _, [] -> None
        | u, t -> Some { Layers.untraced_s = u; samples = t })
      (List.init n Fun.id)
  in
  (* By request key: the untraced tune seconds, and the winner with its
     kernel time. *)
  let direct = Hashtbl.create 64 and winner_of = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      match (Protocol.parse_tune_request k.body, l.winners.(i)) with
      | Ok req, Some (_, cand, time_s, _) when untraced.(i) <> [] ->
        let key = Protocol.key req in
        Hashtbl.replace direct key (Common.median untraced.(i));
        Hashtbl.replace winner_of key (Mcf_ir.Candidate.serialize cand, time_s)
      | _ -> ())
    keys;
  let bodies = Array.to_list (Array.map (fun k -> k.body) keys) in
  match Serve_wl.leg ~dir (Mcf_util.Listx.take 6 bodies) with
  | Error e -> failwith e
  | Ok (slots, poll_rtts, daemon_samples, stopped) ->
    (* Every served schedule must equal the untraced tune of its key. *)
    let served_bad =
      List.length
        (List.filter
           (fun (s : Serve_wl.slot) ->
             match (Hashtbl.find_opt winner_of s.key, s.sched) with
             | Some (cand, time_s), Some sc ->
               not (Serve_wl.ok s && sc.cand = cand && Common.same_bits sc.time_s time_s)
             | _ -> true)
           slots)
    in
    let serve =
      Serve_wl.layer_metrics ~slots ~poll_rtts ~daemon_samples ~direct
        ~lag_p99_s:(Common.pct 99.0 (List.map (fun s -> s.lag_s) l.samples))
        ~bodies
    in
    ( Layers.metrics key_traces @ serve,
      l,
      replays + List.length slots,
      !bad + served_bad + (if stopped then 0 else 1) )

let run ~deep ~dir ~seed ~seconds ~trace ~tiny =
  let keys = prepare ~deep ~tiny seed in
  let limit_s = limit_s ~deep in
  (* The order of the keys in each round, a stream apart from the keys'. *)
  let rng = Mcf_util.Rng.split (Mcf_util.Rng.create seed) in
  let metrics, l, extra_attempted, extra_failed =
    if trace then traced ~dir ~rng ~seconds keys
    else begin
      let setup_s = setup_s ~deep ~tiny ~reps:(if tiny then 3 else 31) seed in
      let l = run_loop ~clock:Common.cpu_now ~rng ~seconds keys in
      (e2e ~limit_s ~setup_s l, l, 0, 0)
    end
  in
  let checked, interp_bad = interp ~seed keys l in
  { Common.attempted = l.attempted + extra_attempted + checked;
    failed = l.failed + extra_failed + interp_bad;
    metrics;
    env =
      [ ("keys", Mcf_util.Json.num_of_int (Array.length keys));
        ("tunes", Mcf_util.Json.num_of_int (List.length l.samples));
        ("limit_s", Mcf_util.Json.Num limit_s);
        ("interp_checked", Mcf_util.Json.num_of_int checked);
        ( "key_min_ms",
          Mcf_util.Json.List
            (List.map
               (fun s -> Mcf_util.Json.Num (s.tune_s *. 1e3))
               (List.sort
                  (fun a b -> compare a.k b.k)
                  (best_by_key (fun s -> s.tune_ok) (fun s -> s.tune_s) l.samples))) );
        ("host_speed", Mcf_util.Json.Num (host_speed l));
        ( "probe_ms",
          Mcf_util.Json.List (List.rev_map (fun x -> Mcf_util.Json.Num (x *. 1e3)) l.probes) );
        ( "rss_marks_mb",
          Mcf_util.Json.List (List.rev_map (fun x -> Mcf_util.Json.Num x) l.marks) ) ] }
