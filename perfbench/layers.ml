(* The tuner's layers, timed from outside the library.

   [replay] reproduces [Mcf_search.Tuner.tune] stage by stage through the
   layers' public entry points (same default options and parameters, same
   seed, same virtual-clock charges), so its fingerprint must equal the
   tuner's bit for bit.  [probe] then times each layer on its own, and
   [metrics] sums the per-key medians into one round of the workload. *)

module Space = Mcf_search.Space
module Explore = Mcf_search.Explore
module Measure = Mcf_search.Measure
module Clock = Mcf_gpu.Clock

type stages = {
  fp : string;
  total_s : float;  (* wall time of the whole replay *)
  enumerate_s : float;
  explore_s : float;
  codegen_s : float;
  alloc_words : float;
      (* allocated around enumeration, as seen by the calling domain:
         joined domains count, live pool workers do not *)
  funnel : Space.funnel;
  stats : Explore.stats;
}

let replay ?reservoir ~seed spec chain =
  let t0 = Common.now () in
  let rng = Mcf_util.Rng.create seed in
  let clock = Clock.create () in
  let a0 = Gc.allocated_bytes () in
  let (entries, scores, funnel), enumerate_s =
    Common.timed (fun () -> Space.enumerate_scored ?reservoir spec chain)
  in
  let alloc_words =
    (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8)
  in
  (* Tuner.tune charges framework start-up between the two stages. *)
  Clock.charge clock 4.0;
  let explored, explore_s =
    Common.timed (fun () -> Explore.run ~scores ~rng ~clock spec entries)
  in
  match explored with
  | None -> None
  | Some r -> (
    let compiled, codegen_s =
      Common.timed (fun () ->
          Mcf_codegen.Compile.compile spec (Space.lowered r.best))
    in
    match compiled with
    | Error _ -> None
    | Ok _ ->
      let fp =
        Common.fingerprint ~cand:r.best.cand ~time_s:r.best_time_s
          ~virtual_s:(Clock.elapsed_s clock) ~funnel ~stats:r.stats
      in
      Some
        ( { fp;
            total_s = Common.now () -. t0;
            enumerate_s;
            explore_s;
            codegen_s;
            alloc_words;
            funnel;
            stats = r.stats },
          Array.of_list entries,
          scores ))

type probe = {
  estimate_s : float;
  estimates : int;
  memo_hits : int;
  memo_misses : int;
  batch_s : float;
  lower_s : float;
  compile_s : float;
  sim_s : float;
  lowered : int;
  simulated : int;
}

let counter = Mcf_obs.Metrics.counter_value

let probe spec (st : stages) (entries : Space.entry array) scores =
  let ctx = entries.(0).ctx in
  (* Model: every returned candidate through a fresh memo. *)
  let memo =
    Mcf_model.Analytic.Memo.create ~rule1:ctx.rule1
      ~dead_loop_elim:ctx.dead_loop_elim ~hoisting:ctx.hoisting
      ~elem_bytes:ctx.elem_bytes ctx.chain
  in
  let h0 = counter "model.memo.hits" in
  let m0 = counter "model.memo.misses" in
  let (), estimate_s =
    Common.timed (fun () ->
        Array.iter
          (fun (e : Space.entry) ->
            ignore
              (Sys.opaque_identity
                 (Mcf_model.Analytic.Memo.estimate memo spec e.cand)))
          entries)
  in
  let memo_hits = counter "model.memo.hits" - h0 in
  let memo_misses = counter "model.memo.misses" - m0 in
  (* As many candidates as the explorer measured, best estimates first,
     as fresh entries whose lowering has not been forced yet. *)
  let ranked = Array.init (Array.length entries) Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (fst scores.(a)) (fst scores.(b)))
    ranked;
  let n = min st.stats.measured (Array.length ranked) in
  let fresh () =
    List.init n (fun i ->
        let (e : Space.entry) = entries.(ranked.(i)) in
        (i, Space.make_entry e.ctx e.cand))
  in
  (* Measure: cache-less batches of the explorer's batch size. *)
  let prm = Explore.default_params in
  let engine = Measure.create spec in
  let clock = Clock.create () in
  let rec batches acc = function
    | [] -> List.rev acc
    | l ->
      batches
        (Mcf_util.Listx.take prm.top_k l :: acc)
        (Mcf_util.Listx.drop prm.top_k l)
  in
  let batch_s =
    Common.sum
      (List.map
         (fun b ->
           snd
             (Common.timed (fun () ->
                  Measure.run_batch engine ~clock
                    ~compile_cost_s:prm.compile_cost_s
                    ~repeats:prm.measure_repeats
                    ~commit:(fun _ _ -> ())
                    b)))
         (batches [] (fresh ())))
  in
  (* The stages Measure calls, one candidate at a time. *)
  let lower_s = ref 0.0 and compile_s = ref 0.0 and sim_s = ref 0.0 in
  let simulated = ref 0 in
  List.iter
    (fun (_, (e : Space.entry)) ->
      let l, dl =
        Common.timed (fun () ->
            Mcf_ir.Lower.lower ~rule1:ctx.rule1
              ~dead_loop_elim:ctx.dead_loop_elim ~hoisting:ctx.hoisting
              ~elem_bytes:ctx.elem_bytes ctx.chain e.cand)
      in
      lower_s := !lower_s +. dl;
      let k, dc = Common.timed (fun () -> Mcf_codegen.Compile.compile spec l) in
      compile_s := !compile_s +. dc;
      match k with
      | Ok kernel ->
        let _, ds = Common.timed (fun () -> Mcf_gpu.Sim.run spec kernel) in
        sim_s := !sim_s +. ds;
        incr simulated
      | Error _ -> ())
    (fresh ());
  { estimate_s;
    estimates = Array.length entries;
    memo_hits;
    memo_misses;
    batch_s;
    lower_s = !lower_s;
    compile_s = !compile_s;
    sim_s = !sim_s;
    lowered = n;
    simulated = !simulated }

(* One workload key: its untraced Tuner.tune wall times and its traced
   replays (at least one). *)
type key_trace = {
  untraced_s : float list;
  samples : (stages * probe) list;
}

let metrics (keys : key_trace list) =
  let total f = Common.sum (List.map f keys) in
  let med f (k : key_trace) = Common.median (List.map f k.samples) in
  let first (k : key_trace) = fst (List.hd k.samples) in
  let all f = Common.sum (List.concat_map (fun k -> List.map f k.samples) keys) in
  let count f =
    float_of_int
      (List.fold_left
         (fun acc (k : key_trace) ->
           List.fold_left (fun acc s -> acc + f s) acc k.samples)
         0 keys)
  in
  let enumerate_s = total (med (fun (s, _) -> s.enumerate_s)) in
  let explore_s = total (med (fun (s, _) -> s.explore_s)) in
  let codegen_s = total (med (fun (s, _) -> s.codegen_s)) in
  let batch_s = total (med (fun (_, p) -> p.batch_s)) in
  let traced_s = total (med (fun (s, _) -> s.total_s)) in
  let untraced_s = total (fun k -> Common.median k.untraced_s) in
  let points = total (fun k -> (first k).funnel.candidates_rule3) in
  let valid =
    total (fun k -> float_of_int (first k).funnel.candidates_valid)
  in
  let stat f = total (fun k -> float_of_int (f (first k).stats)) in
  let generations = stat (fun (s : Explore.stats) -> s.generations) in
  let measured = stat (fun (s : Explore.stats) -> s.measured) in
  let estimated = stat (fun (s : Explore.stats) -> s.estimated) in
  let hits = count (fun (_, p) -> p.memo_hits) in
  let misses = count (fun (_, p) -> p.memo_misses) in
  let per_call_us time calls = 1e6 *. Common.ratio (all time) (count calls) in
  let residual_s = untraced_s -. (enumerate_s +. explore_s +. codegen_s) in
  Common.
    [ m "space.enumerate_s" "s" enumerate_s;
      m "space.points_per_s" "1/s" (ratio points enumerate_s);
      m "space.points" "count" points;
      m "space.valid" "count" valid;
      m "space.valid_ratio" "ratio" (ratio valid points);
      m "space.alloc_mwords" "Mwords"
        (total (med (fun (s, _) -> s.alloc_words)) /. 1e6);
      m "model.estimate_ns" "ns"
        (1e9
        *. ratio
             (all (fun (_, p) -> p.estimate_s))
             (count (fun (_, p) -> p.estimates)));
      m "model.memo_hit_ratio" "ratio" (ratio hits (hits +. misses));
      m "explore.run_s" "s" explore_s;
      m "explore.loop_s" "s" (explore_s -. batch_s);
      m "explore.generations" "count" generations;
      m "explore.measured" "count" measured;
      m "explore.measured_ratio" "ratio" (ratio measured estimated);
      m "measure.batch_s" "s" batch_s;
      m "lower.call_us" "us"
        (per_call_us (fun (_, p) -> p.lower_s) (fun (_, p) -> p.lowered));
      m "compile.call_us" "us"
        (per_call_us (fun (_, p) -> p.compile_s) (fun (_, p) -> p.lowered));
      m "sim.call_us" "us"
        (per_call_us (fun (_, p) -> p.sim_s) (fun (_, p) -> p.simulated));
      m "codegen.winner_s" "s" codegen_s;
      m "tune.residual_s" "s" residual_s;
      m "tune.residual_frac" "ratio" (ratio residual_s untraced_s);
      m "trace.overhead_frac" "ratio" (ratio traced_s untraced_s -. 1.0) ]
