(* Tests for the batched measurement engine: bit-identity of the parallel
   stage against the sequential one, cache transparency (off = cold = warm),
   JSONL warm-start round-trips, a cache shared across domains, and the
   bounded table behind it. *)

open Mcf_ir
module Measure = Mcf_search.Measure
module Boundtbl = Mcf_util.Boundtbl

let a100 = Mcf_gpu.Spec.a100
let small_gemm = Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 ()

let params =
  { Mcf_search.Explore.default_params with
    population = 32;
    top_k = 8;
    min_generations = 2;
    max_generations = 4 }

let with_jobs n f =
  let saved = Mcf_util.Pool.jobs () in
  Mcf_util.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Mcf_util.Pool.set_jobs saved) f

let outcome_fingerprint (o : Mcf_search.Tuner.outcome) =
  Printf.sprintf "best=%s time=%h tuning=%h stats=%d/%d/%d"
    (Candidate.key o.best.Mcf_search.Space.cand)
    o.kernel_time_s o.tuning_virtual_s
    o.search_stats.Mcf_search.Explore.generations
    o.search_stats.Mcf_search.Explore.estimated
    o.search_stats.Mcf_search.Explore.measured

let fingerprint = function
  | Ok o -> outcome_fingerprint o
  | Error Mcf_search.Tuner.No_viable_candidate -> "no-viable-candidate"

let tune ?measure () =
  fingerprint (Mcf_search.Tuner.tune ~params ?measure a100 small_gemm)

let counter = Mcf_obs.Metrics.counter_value

(* --- parallel vs sequential bit-identity ----------------------------------- *)

let test_parallel_matches_sequential () =
  let seq = with_jobs 1 (fun () -> tune ~measure:(Measure.create a100) ()) in
  List.iter
    (fun jobs ->
      let par = with_jobs jobs (fun () -> tune ()) in
      Alcotest.(check string)
        (Printf.sprintf "jobs %d == sequential" jobs)
        seq par)
    [ 1; 4 ]

let test_run_batch_drain_order () =
  (* Same batch measured on a one-domain pool (stage 1 inline in the
     caller) and a four-domain one: commits must arrive in rank order with
     bit-identical results, and the virtual clock must accumulate the same
     float. *)
  let entries, _ = Mcf_search.Space.enumerate a100 small_gemm in
  let batch =
    List.filteri (fun i _ -> i < 8) entries |> List.mapi (fun i e -> (i, e))
  in
  let run engine =
    let clock = Mcf_gpu.Clock.create () in
    let commits = ref [] in
    Measure.run_batch engine ~clock ~compile_cost_s:0.8 ~repeats:10
      ~commit:(fun id r -> commits := (id, r) :: !commits)
      batch;
    (List.rev !commits, Mcf_gpu.Clock.elapsed_s clock)
  in
  let seq_commits, seq_clock = with_jobs 1 (fun () -> run (Measure.create a100)) in
  let par_commits, par_clock = with_jobs 4 (fun () -> run (Measure.create a100)) in
  Alcotest.(check (list (pair int (option (float 0.0)))))
    "commits identical in rank order" seq_commits par_commits;
  Alcotest.(check int)
    "commit per id" (List.length batch)
    (List.length par_commits);
  Alcotest.(check (float 0.0)) "virtual clock identical" seq_clock par_clock

(* --- kernel transform ---------------------------------------------------------- *)

let test_derate_matches_sim () =
  (* A derating engine's time is [Sim.run] of the derated compiled
     kernel, single-entry and batched, and never reaches or reads the
     cache an underated engine fills. *)
  let derate = Mcf_baselines.Backend.derate_math 3.0 in
  let entries, _ = Mcf_search.Space.enumerate a100 small_gemm in
  let batch =
    List.filteri (fun i _ -> i < 8) entries |> List.mapi (fun i e -> (i, e))
  in
  let sim tf (e : Mcf_search.Space.entry) =
    match Mcf_codegen.Compile.compile a100 (Mcf_search.Space.lowered e) with
    | Error _ -> None
    | Ok k -> (
      match Mcf_gpu.Sim.run a100 (tf k) with
      | Ok v -> Some v.time_s
      | Error _ -> None)
  in
  let batched engine =
    let times = Array.make (List.length batch) None in
    Measure.run_batch engine ~clock:(Mcf_gpu.Clock.create ())
      ~compile_cost_s:0.8 ~repeats:10
      ~commit:(fun i r -> times.(i) <- r)
      batch;
    Array.to_list times
  in
  let want_derated = List.map (fun (_, e) -> sim derate e) batch in
  let want_plain = List.map (fun (_, e) -> sim Fun.id e) batch in
  let times = Alcotest.(list (option (float 0.0))) in
  Alcotest.(check bool) "the transform changes times" true
    (want_derated <> want_plain);
  let cache = Measure.cache_create () in
  let plain = Measure.create ~cache a100 in
  Alcotest.check times "underated engine" want_plain (batched plain);
  let derating = Measure.create ~derate a100 in
  Alcotest.check times "derated batch" want_derated (batched derating);
  Alcotest.check times "derated single entries" want_derated
    (List.map (fun (_, e) -> Measure.time derating e) batch);
  Alcotest.check times "cache still underated" want_plain (batched plain);
  Alcotest.(check bool) "derating engine refuses a cache" true
    (match Measure.create ~cache ~derate a100 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- cache transparency ----------------------------------------------------- *)

let test_cache_off_cold_warm_identical () =
  let off = tune () in
  let cache = Measure.cache_create () in
  let h0 = counter "measure.cache.hits" in
  let m0 = counter "measure.cache.misses" in
  let cold = tune ~measure:(Measure.create ~cache a100) () in
  let h1 = counter "measure.cache.hits" in
  let m1 = counter "measure.cache.misses" in
  Alcotest.(check string) "cold == cache-off" off cold;
  Alcotest.(check int) "cold run only misses" 0 (h1 - h0);
  Alcotest.(check int)
    "one miss per distinct key" (Measure.cache_size cache) (m1 - m0);
  let warm = tune ~measure:(Measure.create ~cache a100) () in
  let h2 = counter "measure.cache.hits" in
  let m2 = counter "measure.cache.misses" in
  Alcotest.(check string) "warm == cache-off" off warm;
  Alcotest.(check int) "warm run never misses" 0 (m2 - m1);
  Alcotest.(check bool) "warm run hits" true (h2 - h1 > 0)

let test_warm_start_round_trip () =
  let cache = Measure.cache_create () in
  let baseline = tune ~measure:(Measure.create ~cache a100) () in
  let path = Filename.temp_file "mcf_measure" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let written = Measure.cache_save cache path in
      Alcotest.(check int)
        "one line per entry" (Measure.cache_size cache) written;
      let fresh = Measure.cache_create () in
      let loaded, malformed = Measure.cache_load fresh path in
      Alcotest.(check int) "all lines load" written loaded;
      Alcotest.(check int) "no malformed lines" 0 malformed;
      let m0 = counter "measure.cache.misses" in
      let warm = tune ~measure:(Measure.create ~cache:fresh a100) () in
      let m1 = counter "measure.cache.misses" in
      Alcotest.(check string) "warm-started == original" baseline warm;
      Alcotest.(check int) "warm start never simulates" 0 (m1 - m0))

let test_malformed_lines_counted_and_skipped () =
  let path = Filename.temp_file "mcf_measure" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        {|{"key":"k1","time_s":1.5e-06}
not json at all
{"key":42,"time_s":1.0}
{"time_s":1.0}
{"key":"k2","time_s":null}
|};
      close_out oc;
      let cache = Measure.cache_create () in
      let loaded, malformed = Measure.cache_load cache path in
      Alcotest.(check int) "two good lines" 2 loaded;
      Alcotest.(check int) "three malformed lines" 3 malformed;
      Alcotest.(check int) "resident entries" 2 (Measure.cache_size cache))

let test_missing_file_is_empty () =
  let cache = Measure.cache_create () in
  Alcotest.(check (pair int int))
    "missing file loads nothing" (0, 0)
    (Measure.cache_load cache "/nonexistent/mcf_measure_cache.jsonl")

let test_repeated_key_simulated_once () =
  (* One entry twice in a batch: simulated at its first occurrence, the
     second item a hit with the same result. *)
  let entries, _ = Mcf_search.Space.enumerate a100 small_gemm in
  let e = List.hd entries in
  let cache = Measure.cache_create () in
  let commits = ref [] in
  let h0 = counter "measure.cache.hits" in
  let m0 = counter "measure.cache.misses" in
  Measure.run_batch (Measure.create ~cache a100) ~clock:(Mcf_gpu.Clock.create ())
    ~compile_cost_s:0.8 ~repeats:10
    ~commit:(fun id r -> commits := (id, r) :: !commits)
    [ (0, e); (1, e) ];
  Alcotest.(check int) "one miss" 1 (counter "measure.cache.misses" - m0);
  Alcotest.(check int) "one hit" 1 (counter "measure.cache.hits" - h0);
  Alcotest.(check int) "one entry" 1 (Measure.cache_size cache);
  match List.rev !commits with
  | [ (0, a); (1, b) ] ->
    Alcotest.(check (option (float 0.0))) "same result" a b;
    Alcotest.(check (option (float 0.0))) "the engine's time" a
      (Measure.time (Measure.create a100) e)
  | _ -> Alcotest.fail "one commit per item, in order"

(* --- concurrency ------------------------------------------------------------- *)

let test_concurrent_runs_share_cache () =
  (* Two domains measure the same batch on a one-domain pool (each
     stage 1 inline in its own caller), sharing one cache: both drains
     commit identical results, and the cache ends with one entry per
     distinct key, as many as a single run on a fresh cache leaves.  A
     key both domains miss at once is simulated by each. *)
  let entries, _ = Mcf_search.Space.enumerate a100 small_gemm in
  let batch =
    List.filteri (fun i _ -> i < 8) entries |> List.mapi (fun i e -> (i, e))
  in
  let run cache () =
    let engine = Measure.create ~cache a100 in
    let clock = Mcf_gpu.Clock.create () in
    let commits = ref [] in
    Measure.run_batch engine ~clock ~compile_cost_s:0.8 ~repeats:10
      ~commit:(fun id r -> commits := (id, r) :: !commits)
      batch;
    List.rev !commits
  in
  let cache = Measure.cache_create () in
  let a, b =
    with_jobs 1 (fun () ->
        let d = Domain.spawn (run cache) in
        let a = run cache () in
        (a, Domain.join d))
  in
  Alcotest.(check (list (pair int (option (float 0.0)))))
    "both drains commit identical results" a b;
  let single = Measure.cache_create () in
  ignore (run single ());
  Alcotest.(check int)
    "one entry per distinct key" (Measure.cache_size single)
    (Measure.cache_size cache)

(* --- bounded table ------------------------------------------------------------ *)

let test_table_capacity () =
  let t = Boundtbl.create ~capacity:2 () in
  Boundtbl.add t "a" 1;
  Boundtbl.add t "b" 2;
  Boundtbl.add t "c" 3;
  Alcotest.(check int) "capacity bound holds" 2 (Boundtbl.length t);
  Alcotest.(check (option int)) "oldest evicted" None (Boundtbl.find t "a");
  Alcotest.(check (option int)) "newest kept" (Some 3) (Boundtbl.find t "c");
  (* reading "b" does not save it: eviction goes by insertion *)
  ignore (Boundtbl.find t "b");
  Boundtbl.add t "d" 4;
  Alcotest.(check (option int)) "read entry evicted" None (Boundtbl.find t "b");
  (* overwriting "c" keeps its place, so "c" goes before "d" *)
  Boundtbl.add t "c" 5;
  Alcotest.(check (option int)) "overwritten" (Some 5) (Boundtbl.find t "c");
  Boundtbl.add t "e" 6;
  Alcotest.(check (option int)) "overwrite keeps its age" None
    (Boundtbl.find t "c");
  Alcotest.(check (list (pair string int)))
    "the two newest remain" [ ("d", 4); ("e", 6) ]
    (List.sort compare (Boundtbl.to_list t));
  Alcotest.(check bool) "capacity 0 refused" true
    (match Boundtbl.create ~capacity:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "measure"
    [ ( "bit-identity",
        [ Alcotest.test_case "tune: parallel == sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "run_batch: drain order and clock" `Quick
            test_run_batch_drain_order
        ] );
      ( "transform",
        [ Alcotest.test_case "derated time is Sim.run of derate" `Quick
            test_derate_matches_sim
        ] );
      ( "cache",
        [ Alcotest.test_case "off == cold == warm" `Quick
            test_cache_off_cold_warm_identical;
          Alcotest.test_case "JSONL warm-start round-trip" `Quick
            test_warm_start_round_trip;
          Alcotest.test_case "malformed lines counted and skipped" `Quick
            test_malformed_lines_counted_and_skipped;
          Alcotest.test_case "missing file is empty" `Quick
            test_missing_file_is_empty;
          Alcotest.test_case "repeated key simulated once" `Quick
            test_repeated_key_simulated_once
        ] );
      ( "concurrency",
        [ Alcotest.test_case "concurrent runs share one cache" `Quick
            test_concurrent_runs_share_cache
        ] );
      ( "table",
        [ Alcotest.test_case "oldest evicted at capacity" `Quick
            test_table_capacity
        ] )
    ]
