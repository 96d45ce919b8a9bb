let log_src = Logs.Src.create "mcfuser.measure" ~doc:"MCFuser measurement engine"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Trace = Mcf_obs.Trace

let c_cache_hits = Mcf_obs.Metrics.counter "measure.cache.hits"
let c_cache_misses = Mcf_obs.Metrics.counter "measure.cache.misses"

let c_cache_inflight_waits =
  Mcf_obs.Metrics.counter "measure.cache.inflight_waits"

let h_measure_s = Mcf_obs.Metrics.histogram "explore.measure_s"

(* --- content-addressed cache ------------------------------------------- *)

type cache = float option Mcf_util.Shardmap.t

let cache_create ?(shards = 16) ?(capacity_per_shard = 65536) () : cache =
  Mcf_util.Shardmap.create ~shards ~capacity_per_shard ()

let cache_size = Mcf_util.Shardmap.length

let chain_fp chain =
  Printf.sprintf "%Lx"
    (Mcf_util.Hashing.fnv1a64 (Mcf_ir.Chain.fingerprint chain))

let candidate_fp (ctx : Space.ctx) (cand : Mcf_ir.Candidate.t) =
  (* Rule-1 canonical form: under canonical execution, candidates sharing
     a per-block sub-tiling and the same tile vector lower identically
     (the chain's axis sizes pin every trip count), so they share one
     measurement.  Without rule 1 the full expression stays. *)
  let tiling =
    if ctx.rule1 then Mcf_ir.Tiling.sub_tiling ctx.chain cand.tiling
    else cand.tiling
  in
  Mcf_ir.Candidate.serialize { cand with tiling }

let key_with ~spec_fp ~chain_fp (ctx : Space.ctx) cand =
  String.concat ""
    [ spec_fp; "|"; chain_fp; "|r1="; string_of_bool ctx.rule1; ",dle=";
      string_of_bool ctx.dead_loop_elim; ",h="; string_of_bool ctx.hoisting;
      ",eb="; string_of_int ctx.elem_bytes; "|"; candidate_fp ctx cand ]

(* --- persistence (JSONL) ----------------------------------------------- *)

let entry_to_line key v =
  let open Mcf_util.Json in
  to_string
    (Obj
       [ ("key", Str key);
         ("time_s", match v with Some t -> Num t | None -> Null) ])

let entry_of_json j =
  let open Mcf_util.Json in
  match (member "key" j, member "time_s" j) with
  | Some (Str k), Some (Num t) -> Some (k, Some t)
  | Some (Str k), Some Null -> Some (k, None)
  | _ -> None

let cache_save (cache : cache) path =
  let entries = Mcf_util.Shardmap.fold cache (fun k v acc -> (k, v) :: acc) [] in
  (* Sort for a deterministic file: shard iteration order is not. *)
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  Mcf_util.Json.write_atomic path (fun oc ->
      List.iter
        (fun (k, v) ->
          output_string oc (entry_to_line k v);
          output_char oc '\n')
        entries);
  List.length entries

let cache_load (cache : cache) path =
  Mcf_util.Json.fold_jsonl ~path ~init:0 ~f:(fun loaded j ->
      match entry_of_json j with
      | Some (k, v) ->
        Mcf_util.Shardmap.set cache k v;
        Some (loaded + 1)
      | None -> None)

(* --- engine ------------------------------------------------------------ *)

type t = {
  spec : Mcf_gpu.Spec.t;
  spec_fp : string;
  cache : cache option;
  derate : Mcf_gpu.Kernel.t -> Mcf_gpu.Kernel.t;
}

let create ?cache ?derate spec =
  (* Keys do not name the transform, so a cache would mix derated and
     underated times. *)
  if Option.is_some cache && Option.is_some derate then
    invalid_arg "Measure.create: a derating engine takes no cache";
  { spec;
    spec_fp = Mcf_gpu.Spec.fingerprint spec;
    cache;
    derate = Option.value derate ~default:Fun.id }

(* One uncharged simulator round-trip: lower (forcing the entry's cell),
   compile, derate, run.  [None] when the candidate fails to compile or
   launch — failures are cached too, so a warm run skips re-proving
   them. *)
let simulate t (e : Space.entry) =
  match Mcf_codegen.Compile.compile t.spec (Space.lowered e) with
  | Error _ -> None
  | Ok kernel -> (
    match Mcf_gpu.Sim.run t.spec (t.derate kernel) with
    | Error _ -> None
    | Ok v -> Some v.time_s)

let measure_one t (key : string option) (e : Space.entry) =
  Trace.observe_timed h_measure_s (fun () ->
      match (t.cache, key) with
      | None, _ | _, None -> simulate t e
      | Some store, Some key ->
        let outcome, v =
          Mcf_util.Shardmap.find_or_compute store key (fun () -> simulate t e)
        in
        (match outcome with
        | Mcf_util.Shardmap.Hit -> Mcf_obs.Metrics.incr c_cache_hits
        | Mcf_util.Shardmap.Computed -> Mcf_obs.Metrics.incr c_cache_misses
        | Mcf_util.Shardmap.Waited ->
          Mcf_obs.Metrics.incr c_cache_inflight_waits);
        v)

(* The entry's cache key, [None] on a cacheless engine; [cfp] yields the
   chain component. *)
let key t cfp (e : Space.entry) =
  Option.map
    (fun _ ->
      key_with ~spec_fp:t.spec_fp ~chain_fp:(cfp e.ctx.Space.chain) e.ctx e.cand)
    t.cache

let time t e = measure_one t (key t chain_fp e) e

let run_batch t ~clock ~compile_cost_s ~repeats ~commit items =
  match items with
  | [] -> ()
  | _ ->
    let arr = Array.of_list items in
    let n = Array.length arr in
    (* Cache keys are derived sequentially up front: key building walks
       the chain (hashing its fingerprint, memoized per distinct chain
       below) and must not race on the memo from worker domains. *)
    let keys =
      let memo = ref [] in
      let cfp chain =
        match List.assq_opt chain !memo with
        | Some fp -> fp
        | None ->
          let fp = chain_fp chain in
          memo := (chain, fp) :: !memo;
          fp
      in
      Array.map (fun ((_ : int), e) -> key t cfp e) arr
    in
    let compute i = measure_one t keys.(i) (snd arr.(i)) in
    (* Stage 1 — parallel: pure per-candidate work (lower, compile,
       simulate; the simulator is deterministic, so values cannot depend
       on scheduling).  One item per chunk: a measurement is orders of
       magnitude above the deque-handoff cost.  A one-domain pool (or a
       one-item batch) runs every item inline in the caller. *)
    let results =
      let anc = Trace.ancestry () in
      Mcf_util.Pool.init ~min_chunk_work:1 (Mcf_util.Pool.get ()) n (fun i ->
          Trace.with_ancestry anc (fun () -> compute i))
    in
    (* Stage 2 — sequential drain in rank order: all side effects the
       determinism contract covers (virtual-clock charges in float
       addition order, recorder emissions, the caller's table fills via
       [commit]) happen here, so they are bit-identical to the
       point-wise sequential path at any jobs count — and identical
       whether a value came from the cache or a fresh simulation. *)
    Array.iteri
      (fun i (id, (_ : Space.entry)) ->
        let r = results.(i) in
        Mcf_gpu.Clock.charge_compile clock ~toolchain_s:compile_cost_s;
        (match r with
        | Some time_s -> Mcf_gpu.Clock.charge_measure clock ~kernel_time_s:time_s ~repeats
        | None -> ());
        commit id r)
      arr
