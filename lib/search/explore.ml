let log_src = Logs.Src.create "mcfuser.search" ~doc:"MCFuser exploration"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Trace = Mcf_obs.Trace

let c_runs = Mcf_obs.Metrics.counter "explore.runs"
let c_generations = Mcf_obs.Metrics.counter "explore.generations"
let c_estimated = Mcf_obs.Metrics.counter "explore.estimated"
let c_measured = Mcf_obs.Metrics.counter "explore.measured"

type params = {
  population : int;
  top_k : int;
  epsilon : float;
  min_generations : int;
  max_generations : int;
  measure_repeats : int;
  compile_cost_s : float;
}

let default_params =
  { population = 128;
    top_k = 10;
    epsilon = 0.03;
    min_generations = 5;
    max_generations = 10;
    measure_repeats = 10;
    (* Triton JIT compilation of one schedule. *)
    compile_cost_s = 0.6 }

type stats = {
  generations : int;
  estimated : int;
  measured : int;
}

type result = {
  best : Space.entry;
  best_time_s : float;
  stats : stats;
}

let search ?(params = default_params) ?measure:engine ?on_phase ~rng ~clock
    spec (points : Space.points) =
  let n = Array.length points.ranks in
  if n = 0 then None
  else begin
    let ranks = points.ranks in
    Mcf_obs.Metrics.incr c_runs;
    let estimates = points.estimates and traffic = points.traffic in
    Mcf_obs.Metrics.add c_estimated n;
    let estimate id = estimates.(id) in
    let generations = ref 0 in
    (* [Some result] once measured; [result] is [None] for a failure. *)
    let measured : float option option array = Array.make n None in
    let n_measured = ref 0 in
    let is_measured id = Option.is_some measured.(id) in
    let engine = match engine with Some e -> e | None -> Measure.create spec in
    let measure_s = ref 0.0 in
    (* One generation's fresh top-k, measured as a batch: stage 1 of the
       engine runs the simulator in parallel, the drain then commits
       below in rank order, so table fills, clock charges and recorder
       events are bit-identical to the old point-wise loop.  Duplicate
       ids (the population samples with replacement, and the ranking
       fallback can re-pick a population id) collapse to one
       measurement, exactly as the old measured-table check did.  The
       fresh ids' entries are built here, in the calling domain, before
       stage 1 runs: these are the only entries a search builds. *)
    let measure_batch topk =
      let fresh =
        List.rev
          (List.fold_left
             (fun acc id ->
               if is_measured id || List.mem_assoc id acc then acc
               else (id, points.build id) :: acc)
             [] topk)
      in
      if fresh <> [] then begin
        let (), dur_s =
          Trace.timed "tuner.measure"
            ~args:(fun () -> [ ("batch", Trace.Int (List.length fresh)) ])
            (fun () ->
              Measure.run_batch engine ~clock
                ~compile_cost_s:params.compile_cost_s
                ~repeats:params.measure_repeats
                ~commit:(fun id r ->
                  Mcf_obs.Metrics.incr c_measured;
                  measured.(id) <- Some r;
                  incr n_measured;
                  (* Every estimate <-> measurement pair lands in the
                     recording; the raw material for Mcf_obs.Fidelity. *)
                  Mcf_obs.Recorder.emit "measure" (fun () ->
                      let open Mcf_util.Json in
                      [ ("gen", num_of_int !generations);
                        ("id", num_of_int id);
                        ("cand",
                         Str
                           (Mcf_ir.Candidate.to_string
                              (points.build id).Space.cand));
                        ("est", Num estimates.(id));
                        ("time_s",
                         match r with Some t -> Num t | None -> Null) ]))
                fresh)
        in
        measure_s := !measure_s +. dur_s
      end
    in
    (* Step one random axis's tile to a neighbouring option: the space's
       grid names the stepped point's rank and a binary search over the
       set's ranks finds it; a miss (the step left the pruned space)
       retries, up to 2 x axes attempts.  A step from a given
       id along a given axis and direction always lands on the same id,
       so [steps] memoises it per (id, axis, direction) slot: [-1] a
       miss, [-2] not stepped yet.  Every attempt still draws its axis
       and direction, so the RNG stream is the unmemoised one. *)
    let grid = points.pctx.grid in
    let find rank =
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ranks.(mid) < rank then lo := mid + 1 else hi := mid
      done;
      if ranks.(!lo) = rank then !lo else -1
    in
    let axes = List.length points.pctx.chain.axes in
    let steps = Array.make (n * 2 * axes) (-2) in
    let step id ~axis ~dir =
      let slot = (((id * axes) + axis) * 2) + ((dir + 1) / 2) in
      let s = steps.(slot) in
      if s <> -2 then s
      else begin
        let s =
          match Space.neighbour grid ranks.(id) ~axis ~dir with
          | Some rank -> find rank
          | None -> -1
        in
        steps.(slot) <- s;
        s
      end
    in
    let mutate id =
      let rec attempt i =
        if i >= axes * 2 then id
        else begin
          let axis = Mcf_util.Rng.int rng axes in
          let dir = if Mcf_util.Rng.bool rng then 1 else -1 in
          let id' = step id ~axis ~dir in
          if id' >= 0 then id' else attempt (i + 1)
        end
      in
      attempt 0
    in
    (* Initial population: uniform random (Algorithm 1 line 1) plus the
       global top-k under two free rankings — the analytical model and its
       pure data-movement component (both scored by the enumeration's
       streaming pass).  Estimating the whole pruned space costs microseconds, and
       seeding both rankings guarantees the search dominates any
       single-objective analytical strategy (in particular Chimera's) over
       the same space.  Every ranking here sorts int ids by a precomputed
       key array with [Idsort.by_key], which leaves ties exactly where
       [Array.sort] puts them: tie order is part of the outcome. *)
    let sorted_by key ids =
      Mcf_util.Idsort.by_key key ids;
      ids
    in
    let top_ids_by key =
      Array.sub (sorted_by key (Array.init n Fun.id)) 0 (min params.top_k n)
    in
    (* The stale-population fallback marches down the global estimate
       ranking in (estimate, id) order, the order a stable sort over
       ascending ids leaves.  A heap built on first use pops it lazily,
       so a tune ranks only the prefix it reaches.  Popping only ever
       advances: every id it yields lands in that generation's measured
       batch, and ids it skips were measured earlier, so a rewind can
       never be needed. *)
    let ranking = lazy (Mcf_util.Idsort.ranking estimates) in
    let next_ranked k =
      let r = Lazy.force ranking in
      let rec go acc k =
        if k = 0 then List.rev acc
        else
          match Mcf_util.Idsort.next r with
          | -1 -> List.rev acc
          | id -> if is_measured id then go acc k else go (id :: acc) (k - 1)
      in
      go [] k
    in
    let sample_population () =
      Trace.with_span "explore.seed" @@ fun () ->
      let size = min params.population n in
      let seeds = Array.append (top_ids_by estimates) (top_ids_by traffic) in
      Array.init size (fun i ->
          if i < Array.length seeds then seeds.(i)
          else Mcf_util.Rng.int rng n)
    in
    let population = ref (sample_population ()) in
    let best = ref None in
    let plateaus = ref 0 in
    let converged = ref false in
    while (not !converged) && !generations < params.max_generations do
      incr generations;
      Mcf_obs.Metrics.incr c_generations;
      Mcf_obs.Progress.generation ~gen:!generations
        ~max_gen:params.max_generations ~measured:!n_measured;
      Mcf_obs.Resource.sample ();
      Trace.with_span "explore.generation"
        ~args:(fun () -> [ ("gen", Trace.Int !generations) ])
      @@ fun () ->
      let best_before = !best in
      let sorted = sorted_by estimates (Array.copy !population) in
      (* Measure the best-estimated candidates not measured yet; re-measuring
         a known candidate would add no information (results are cached).
         An id the population holds twice stays twice in the top-k
         ([measure_batch] measures it once).  When the population has gone
         stale (mutation keeps revisiting the measured elite), march down
         the global estimate ranking instead so every generation still
         buys fresh information. *)
      let rec fresh i k =
        if k <= 0 || i >= Array.length sorted then []
        else if is_measured sorted.(i) then fresh (i + 1) k
        else sorted.(i) :: fresh (i + 1) (k - 1)
      in
      let topk = fresh 0 params.top_k in
      let topk =
        if List.length topk >= params.top_k then topk
        else topk @ next_ranked (params.top_k - List.length topk)
      in
      measure_batch topk;
      let results =
        List.filter_map
          (fun id ->
            match measured.(id) with
            | Some (Some t) -> Some (id, t)
            | Some None | None -> None)
          topk
      in
      Log.debug (fun m ->
          m "generation %d: measured %d fresh candidates (best this round: %s)"
            !generations (List.length results)
            (match Mcf_util.Listx.min_by snd results with
            | Some (id, t) ->
              Printf.sprintf "%s at %.2fus"
                (Mcf_ir.Candidate.to_string (points.build id).Space.cand)
                (t *. 1e6)
            | None -> "none"));
      (match Mcf_util.Listx.min_by snd results with
      | None -> () (* nothing measurable this round; mutate and go on *)
      | Some (id, t) -> (
        match !best with
        | Some (_, bt) when Float.abs (t -. bt) < params.epsilon *. bt ->
          if t < bt then best := Some (id, t);
          (* measurement noise alone can fake a plateau; require two
             consecutive converged rounds before stopping *)
          incr plateaus;
          if !plateaus >= 2 && !generations >= params.min_generations then
            converged := true
        | Some (_, bt) ->
          plateaus := 0;
          if t < bt then best := Some (id, t)
        | None -> best := Some (id, t)));
      (* Population summary for the flight recorder: everything below is
         derived from values already computed this round, built lazily so
         a disabled recorder costs one atomic load. *)
      Mcf_obs.Recorder.emit "generation" (fun () ->
          let open Mcf_util.Json in
          let ests = Array.map estimate sorted in
          let hist =
            List
              (List.map
                 (fun (bound, c) ->
                   Obj [ ("le", Num bound); ("count", num_of_int c) ])
                 (Mcf_obs.Fidelity.histogram ests))
          in
          let topk_j =
            List
              (List.map
                 (fun id ->
                   Obj
                     [ ("cand",
                        Str
                          (Mcf_ir.Candidate.to_string
                             (points.build id).Space.cand));
                       ("est", Num (estimate id)) ])
                 topk)
          in
          let round_best =
            match Mcf_util.Listx.min_by snd results with
            | Some (_, t) -> Num t
            | None -> Null
          in
          let best_j =
            match !best with Some (_, t) -> Num t | None -> Null
          in
          let delta =
            match (best_before, !best) with
            | Some (_, b0), Some (_, b1) when b0 > 0.0 ->
              Num ((b0 -. b1) /. b0)
            | _ -> Null
          in
          [ ("gen", num_of_int !generations);
            ("population", num_of_int (Array.length !population));
            ("est_histogram", hist);
            ("est_best", Num (estimate sorted.(0)));
            ("topk", topk_j);
            ("measured_new", num_of_int (List.length results));
            ("round_best_s", round_best);
            ("best_time_s", best_j);
            ("delta", delta);
            ("plateaus", num_of_int !plateaus);
            ("converged", Bool !converged) ]);
      if not !converged then begin
        let weights =
          Array.map (fun id -> 1.0 /. Float.max (estimate id) 1e-12) sorted
        in
        let changed = ref 0 in
        let next =
          Trace.with_span "explore.mutate" @@ fun () ->
          let sample = Mcf_util.Rng.weighted_sampler rng weights in
          Array.init (Array.length !population) (fun _ ->
              let pid = sorted.(sample ()) in
              let pid' = mutate pid in
              if pid' <> pid then incr changed;
              pid')
        in
        Mcf_obs.Recorder.emit "mutation" (fun () ->
            let open Mcf_util.Json in
            let proposed = Array.length next in
            [ ("gen", num_of_int !generations);
              ("proposed", num_of_int proposed);
              ("changed", num_of_int !changed);
              ("stayed", num_of_int (proposed - !changed)) ]);
        population := next
      end
    done;
    (* The measure batches' total wall time, reported as a sub-phase so
       the tuner can carve it out of tuner.explore (the cache's
       wall-time saving is visible exactly here). *)
    Option.iter (fun f -> f "tuner.measure" !measure_s) on_phase;
    Option.map
      (fun (id, t) ->
        { best = points.build id;
          best_time_s = t;
          stats =
            { generations = !generations;
              estimated = n;
              measured = !n_measured } })
      !best
  end

let run ?params ?measure ?on_phase ~scores ~rng ~clock spec entries =
  if Array.length scores <> List.length entries then
    invalid_arg "Explore.run: scores are not index-aligned with entries";
  match entries with
  | [] -> None
  | (first : Space.entry) :: _ ->
    let pool = Array.of_list entries in
    let ranks = Array.map (fun (e : Space.entry) -> e.rank) pool in
    Array.iteri
      (fun i r ->
        if r < 0 || (i > 0 && r <= ranks.(i - 1)) then
          invalid_arg "Explore.run: entries are not one enumeration's")
      ranks;
    search ?params ?measure ?on_phase ~rng ~clock spec
      { Space.pctx = first.ctx;
        ranks;
        estimates = Array.map fst scores;
        traffic = Array.map snd scores;
        build = Array.get pool }
