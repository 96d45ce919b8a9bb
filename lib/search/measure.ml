module Trace = Mcf_obs.Trace

let c_cache_hits = Mcf_obs.Metrics.counter "measure.cache.hits"
let c_cache_misses = Mcf_obs.Metrics.counter "measure.cache.misses"

let h_measure_s = Mcf_obs.Metrics.histogram "explore.measure_s"

(* --- content-addressed cache ------------------------------------------- *)

(* One mutex guards the table: serve's worker threads share a cache, and
   only callers of [time] and [run_batch] touch it, never the pool. *)
type cache = { lock : Mutex.t; table : float option Mcf_util.Boundtbl.t }

let cache_create () =
  { lock = Mutex.create (); table = Mcf_util.Boundtbl.create () }

let locked c f = Mutex.protect c.lock f
let cache_size c = locked c (fun () -> Mcf_util.Boundtbl.length c.table)

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

let cache_save c path =
  let entries = locked c (fun () -> Mcf_util.Boundtbl.to_list c.table) in
  Mcf_util.Json.write_keyed path
    (List.map
       (fun (k, v) ->
         (k, [ ("time_s", match v with Some t -> Mcf_util.Json.Num t | None -> Null) ]))
       entries)

let cache_load c path =
  let entries, malformed =
    Mcf_util.Json.read_keyed ~path (fun j ->
        match Mcf_util.Json.member "time_s" j with
        | Some (Num t) -> Some (Some t)
        | Some Null -> Some None
        | _ -> None)
  in
  locked c (fun () ->
      List.iter (fun (k, v) -> Mcf_util.Boundtbl.add c.table k v) entries);
  (List.length entries, malformed)

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
  Trace.observe_timed h_measure_s (fun () ->
      match Mcf_codegen.Compile.compile t.spec (Space.lowered e) with
      | Error _ -> None
      | Ok kernel -> (
        match Mcf_gpu.Sim.run t.spec (t.derate kernel) with
        | Error _ -> None
        | Ok v -> Some v.time_s))

(* The items' cache keys, derived in the caller: key building hashes
   each distinct chain's fingerprint once (memoized below). *)
let keys t (items : Space.entry array) =
  let memo = ref [] in
  let cfp chain =
    match List.assq_opt chain !memo with
    | Some fp -> fp
    | None ->
      let fp = chain_fp chain in
      memo := (chain, fp) :: !memo;
      fp
  in
  Array.map
    (fun (e : Space.entry) ->
      key_with ~spec_fp:t.spec_fp ~chain_fp:(cfp e.ctx.chain) e.ctx e.cand)
    items

(* Every item's result, in item order.  The lookups run here in the
   caller, under the cache lock; [map n f] computes the [n] simulations
   [f 0] .. [f (n - 1)], which touch neither the table nor its lock; the
   fills follow, in item order.  A key repeated within the items is
   simulated once, at its first occurrence, and its later items count
   as hits.  Nothing waits for another caller's simulation: two sessions
   missing one key both simulate it, with identical results. *)
let measure_items t ~map (items : Space.entry array) =
  let n = Array.length items in
  match t.cache with
  | None -> map n (fun i -> simulate t items.(i))
  | Some c ->
    let keys = keys t items in
    (* [fresh]: each missed key's simulation index; [misses]: the item
       each simulation measures, latest first. *)
    let fresh = Hashtbl.create 8 and misses = ref [] in
    let lookups =
      locked c (fun () ->
          Array.mapi
            (fun i key ->
              match Mcf_util.Boundtbl.find c.table key with
              | Some r ->
                Mcf_obs.Metrics.incr c_cache_hits;
                Ok r
              | None -> (
                match Hashtbl.find_opt fresh key with
                | Some j ->
                  Mcf_obs.Metrics.incr c_cache_hits;
                  Error j
                | None ->
                  Mcf_obs.Metrics.incr c_cache_misses;
                  let j = Hashtbl.length fresh in
                  Hashtbl.add fresh key j;
                  misses := i :: !misses;
                  Error j))
            keys)
    in
    let misses = Array.of_list (List.rev !misses) in
    let sims = map (Array.length misses) (fun j -> simulate t items.(misses.(j))) in
    locked c (fun () ->
        Array.iteri
          (fun j i -> Mcf_util.Boundtbl.add c.table keys.(i) sims.(j))
          misses);
    Array.map (function Ok r -> r | Error j -> sims.(j)) lookups

let time t e = (measure_items t ~map:Array.init [| e |]).(0)

let run_batch t ~clock ~compile_cost_s ~repeats ~commit items =
  match items with
  | [] -> ()
  | _ ->
    let arr = Array.of_list items in
    (* Stage 1 — parallel: pure per-candidate work (lower, compile,
       simulate; the simulator is deterministic, so values cannot depend
       on scheduling).  One item per chunk: a measurement is orders of
       magnitude above the chunk-claim cost.  A one-domain pool (or a
       one-item batch) runs every item inline in the caller. *)
    let results =
      let anc = Trace.ancestry () in
      measure_items t (Array.map snd arr) ~map:(fun n f ->
          Mcf_util.Pool.init ~min_chunk_work:1 (Mcf_util.Pool.get ()) n
            (fun i -> Trace.with_ancestry anc (fun () -> f i)))
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
