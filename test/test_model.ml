(* Tests for the analytical models: eq. (1) shared-memory estimation and
   the eq. (2)-(5) performance model. *)

open Mcf_ir

let gemm = Chain.gemm_chain ~m:1024 ~n:1024 ~k:512 ~h:512 ()
let ax s = Chain.axis gemm s
let a100 = Mcf_gpu.Spec.a100

let cand tiles =
  Candidate.make (Tiling.Deep [ ax "m"; ax "h"; ax "n"; ax "k" ]) tiles

let std = [ ("m", 128); ("n", 64); ("k", 32); ("h", 64) ]
let lower c = Lower.lower ~elem_bytes:2 gemm c

(* --- eq. (1): shared-memory estimate -------------------------------------- *)

let test_shmem_estimate_exact () =
  (* resident set for mhnk: A 128x32, B 32x64, C 128x64, D 64x64, E 128x64;
     fp16 -> sum of tile areas x 2 bytes *)
  let want =
    2 * ((128 * 32) + (32 * 64) + (128 * 64) + (64 * 64) + (128 * 64))
  in
  Alcotest.(check int) "eq (1)" want (Mcf_model.Shmem.estimate_bytes (lower (cand std)))

let test_shmem_grows_with_tiles () =
  let small = Mcf_model.Shmem.estimate_bytes (lower (cand std)) in
  let big =
    Mcf_model.Shmem.estimate_bytes
      (lower (cand [ ("m", 256); ("n", 128); ("k", 64); ("h", 128) ]))
  in
  Alcotest.(check bool) "monotone in tiles" true (big > small)

let test_shmem_rule2_multiplicity () =
  (* kn structure: the estimate must include trip(n) partial C tiles *)
  let kn =
    Candidate.make (Tiling.Deep [ ax "m"; ax "h"; ax "k"; ax "n" ]) std
  in
  let nk = cand std in
  Alcotest.(check bool) "kn residency estimated larger" true
    (Mcf_model.Shmem.estimate_bytes (lower kn)
    > Mcf_model.Shmem.estimate_bytes (lower nk))

let test_within_budget () =
  let l = lower (cand std) in
  Alcotest.(check bool) "small tiles fit" true
    (Mcf_model.Shmem.within_budget a100 ~slack:1.2 l);
  let huge = lower (cand [ ("m", 1024); ("n", 512); ("k", 32); ("h", 512) ]) in
  Alcotest.(check bool) "huge tiles do not" false
    (Mcf_model.Shmem.within_budget a100 ~slack:1.2 huge)

let test_slack_widens_budget () =
  (* find a candidate that fits only with slack *)
  let l = lower (cand [ ("m", 256); ("n", 256); ("k", 64); ("h", 128) ]) in
  let est = Mcf_model.Shmem.estimate_bytes l in
  if est > a100.smem_per_block && float_of_int est <= 1.2 *. float_of_int a100.smem_per_block
  then begin
    Alcotest.(check bool) "rejected without slack" false
      (Mcf_model.Shmem.within_budget a100 ~slack:1.0 l);
    Alcotest.(check bool) "accepted with paper slack" true
      (Mcf_model.Shmem.within_budget a100 ~slack:1.2 l)
  end
  else
    (* configuration drifted; the slack semantics still hold trivially *)
    Alcotest.(check bool) "slack is monotone" true
      ((not (Mcf_model.Shmem.within_budget a100 ~slack:1.0 l))
      || Mcf_model.Shmem.within_budget a100 ~slack:1.2 l)

(* --- eqs. (2)-(5): performance model --------------------------------------- *)

let test_perf_t_mem_formula () =
  let l = lower (cand std) in
  let b = Mcf_model.Perf.breakdown a100 l in
  Alcotest.(check (float 1e-12)) "t_mem = traffic / W"
    (Lower.total_traffic_bytes l /. a100.mem_bw)
    b.t_mem

let test_perf_t_comp_formula () =
  let l = lower (cand std) in
  let b = Mcf_model.Perf.breakdown a100 l in
  Alcotest.(check (float 1e-12)) "t_comp = flops / P"
    (Lower.flops_per_block l *. float_of_int l.blocks /. a100.peak_flops)
    b.t_comp

let test_perf_alpha () =
  let l = lower (cand std) in
  let b = Mcf_model.Perf.breakdown a100 l in
  let blocks = float_of_int l.blocks in
  Alcotest.(check (float 1e-12)) "eq (5)"
    ((blocks +. float_of_int a100.sm_count) /. blocks)
    b.alpha;
  Alcotest.(check bool) "alpha > 1" true (b.alpha > 1.0);
  Alcotest.(check (float 1e-12)) "total = (mem+comp)*alpha"
    ((b.t_mem +. b.t_comp) *. b.alpha)
    b.t_total

let test_perf_alpha_decreases_with_blocks () =
  let few = lower (cand [ ("m", 1024); ("n", 64); ("k", 32); ("h", 512) ]) in
  let many = lower (cand [ ("m", 64); ("n", 64); ("k", 32); ("h", 64) ]) in
  let bf = Mcf_model.Perf.breakdown a100 few in
  let bm = Mcf_model.Perf.breakdown a100 many in
  Alcotest.(check bool) "fewer blocks, larger alpha" true (bf.alpha > bm.alpha)

let test_perf_device_dependence () =
  let l = lower (cand std) in
  let ta = Mcf_model.Perf.estimate a100 l in
  let tr = Mcf_model.Perf.estimate Mcf_gpu.Spec.rtx3080 l in
  Alcotest.(check bool) "slower device, larger estimate" true (tr > ta)

let test_perf_positive () =
  let l = lower (cand std) in
  Alcotest.(check bool) "positive finite" true
    (let t = Mcf_model.Perf.estimate a100 l in
     t > 0.0 && Float.is_finite t)

let test_perf_redundancy_visible () =
  (* the model must see redundant computation (Chimera's blind spot) *)
  let good = lower (cand std) in
  let bad =
    Lower.lower ~rule1:false ~elem_bytes:2 gemm
      (Candidate.make (Tiling.Deep [ ax "m"; ax "n"; ax "k"; ax "h" ]) std)
  in
  let bg = Mcf_model.Perf.breakdown a100 good in
  let bb = Mcf_model.Perf.breakdown a100 bad in
  Alcotest.(check bool) "t_comp grows with redundancy" true
    (bb.t_comp > bg.t_comp)

let test_perf_ranks_obvious_cases () =
  (* 16-wide tiles re-load tiny slivers thousands of times; the model must
     rank them far below a balanced configuration *)
  let bad = lower (cand [ ("m", 16); ("n", 16); ("k", 16); ("h", 16) ]) in
  let good = lower (cand std) in
  Alcotest.(check bool) "model prefers the balanced tiling" true
    (Mcf_model.Perf.estimate a100 good < Mcf_model.Perf.estimate a100 bad)

let test_perf_grid_of_one () =
  let single =
    lower (cand [ ("m", 1024); ("n", 1024); ("k", 512); ("h", 512) ])
  in
  Alcotest.(check int) "one block" 1 single.Lower.blocks;
  let b = Mcf_model.Perf.breakdown a100 single in
  Alcotest.(check (float 1e-9)) "alpha = 1 + N_SM" 109.0 b.alpha

(* --- property ------------------------------------------------------------- *)

(* Random chains + candidates from the fuzzing subsystem's seeded
   generator: the model must stay positive and finite on arbitrary MBCI
   chains and devices, not just the pinned paper GEMM. *)
let prop_model_positive =
  QCheck.Test.make ~count:100 ~name:"model estimates positive and finite"
    QCheck.small_int (fun n ->
      let c = Mcf_fuzz.Gen.case_of_id ~seed:20260806 (n mod 64) in
      let l =
        Lower.lower ~rule1:c.rule1 ~dead_loop_elim:c.dle ~hoisting:c.hoist
          ~elem_bytes:c.elem_bytes c.chain c.cand
      in
      let t = Mcf_model.Perf.estimate c.device l in
      t > 0.0 && Float.is_finite t
      && Mcf_model.Shmem.estimate_bytes l > 0)

(* --- rule-4 precheck: closed-form footprint vs lowered estimate -----------

   Space rejects candidates with [Shmem.footprint_of_candidate] before
   lowering, so the precheck must agree with [estimate_bytes] on the
   lowered program for *every* point of the space (a false reject would
   silently shrink the funnel).  Exhaustive sweep: all tilings x all tile
   combos x all (rule1, dead_loop_elim) flag pairs. *)

let check_precheck_agrees ~name chain =
  let tilings = Tiling.enumerate chain in
  let choices =
    List.map
      (fun (a : Axis.t) ->
        List.map (fun t -> (a.Axis.name, t)) (Candidate.tile_options a.size))
      chain.Chain.axes
  in
  let combos = Mcf_util.Listx.cartesian choices in
  let checked = ref 0 in
  List.iter
    (fun (rule1, dle) ->
      List.iter
        (fun tiling ->
          List.iter
            (fun tiles ->
              let c = Candidate.make tiling tiles in
              let l =
                Lower.lower ~rule1 ~dead_loop_elim:dle ~elem_bytes:2 chain c
              in
              let want = Mcf_model.Shmem.estimate_bytes l in
              let got =
                Mcf_model.Shmem.footprint_of_candidate ~rule1
                  ~dead_loop_elim:dle ~elem_bytes:2 chain c
              in
              incr checked;
              if got <> want then
                Alcotest.failf
                  "%s: footprint %d <> lowered estimate %d for %s (rule1=%b \
                   dead_loop_elim=%b)"
                  name got want (Candidate.key c) rule1 dle;
              let budget_full =
                Mcf_model.Shmem.within_budget a100 ~slack:1.2 l
              in
              let budget_pre =
                Mcf_model.Shmem.precheck_within_budget a100 ~slack:1.2 ~rule1
                  ~dead_loop_elim:dle chain c
              in
              if budget_pre <> budget_full then
                Alcotest.failf "%s: precheck verdict %b <> full verdict %b for %s"
                  name budget_pre budget_full (Candidate.key c))
            combos)
        tilings)
    [ (true, true); (true, false); (false, true); (false, false) ];
  Alcotest.(check bool)
    (Printf.sprintf "%s: swept a non-trivial space (%d points)" name !checked)
    true (!checked > 1000)

let test_precheck_gemm () =
  check_precheck_agrees ~name:"gemm"
    (Chain.gemm_chain ~m:128 ~n:64 ~k:32 ~h:32 ())

let test_precheck_attention () =
  check_precheck_agrees ~name:"attention"
    (Chain.attention ~heads:2 ~m:64 ~n:64 ~k:32 ~h:32 ())

let test_precheck_gemm3 () =
  check_precheck_agrees ~name:"gemm3"
    (Chain.gemm_chain3 ~m:48 ~n:32 ~k:32 ~h:32 ~p:32 ())

let test_precheck_mlp () =
  check_precheck_agrees ~name:"mlp"
    (Chain.mlp_chain ~m:64 ~n:64 ~k:32 ~h:32 ())

(* --- closed-form analytic model vs lowering ----------------------------------

   The search's fast path estimates candidates with [Analytic] instead of
   [Perf.estimate ∘ Lower.lower]; both read the same skeleton, and must
   agree bit-for-bit on every point of the space, or the tuner's ranking
   (and thus its outcome) would drift.  Exhaustive sweep: all tilings x
   all tile combos x all eight (rule1, dead_loop_elim, hoisting) flag
   combinations, asserting equality of all four breakdown fields and the
   validity verdict.  The lowering itself is held to the interpreter's
   counts below. *)

let check_analytic_agrees ~name chain =
  let tilings = Tiling.enumerate chain in
  let choices =
    List.map
      (fun (a : Axis.t) ->
        List.map (fun t -> (a.Axis.name, t)) (Candidate.tile_options a.size))
      chain.Chain.axes
  in
  let combos = Mcf_util.Listx.cartesian choices in
  let flag_combos =
    List.concat_map
      (fun r1 ->
        List.concat_map
          (fun dle -> List.map (fun h -> (r1, dle, h)) [ true; false ])
          [ true; false ])
      [ true; false ]
  in
  let checked = ref 0 in
  List.iter
    (fun (rule1, dle, hoisting) ->
      List.iter
        (fun tiling ->
          List.iter
            (fun tiles ->
              let c = Candidate.make tiling tiles in
              let l =
                Lower.lower ~rule1 ~dead_loop_elim:dle ~hoisting ~elem_bytes:2
                  chain c
              in
              let want = Mcf_model.Perf.breakdown a100 l in
              let ev =
                Mcf_model.Analytic.eval_candidate ~rule1 ~dead_loop_elim:dle
                  ~hoisting ~elem_bytes:2 chain c
              in
              let got = Mcf_model.Analytic.breakdown_of_eval a100 ev in
              incr checked;
              let fail field (w : float) (g : float) =
                Alcotest.failf
                  "%s: analytic %s %.17g <> lowered %.17g for %s (rule1=%b \
                   dead_loop_elim=%b hoisting=%b)"
                  name field g w (Candidate.key c) rule1 dle hoisting
              in
              (* Bit-equality, not tolerance: the fast path must be a
                 drop-in replacement for the lowered walk. *)
              if not (Float.equal got.t_mem want.t_mem) then
                fail "t_mem" want.t_mem got.t_mem;
              if not (Float.equal got.t_comp want.t_comp) then
                fail "t_comp" want.t_comp got.t_comp;
              if not (Float.equal got.alpha want.alpha) then
                fail "alpha" want.alpha got.alpha;
              if not (Float.equal got.t_total want.t_total) then
                fail "t_total" want.t_total got.t_total;
              if ev.everdict <> l.validity then
                Alcotest.failf
                  "%s: analytic verdict disagrees with the lowered validity \
                   for %s (rule1=%b dead_loop_elim=%b hoisting=%b)"
                  name (Candidate.key c) rule1 dle hoisting)
            combos)
        tilings)
    flag_combos;
  Alcotest.(check bool)
    (Printf.sprintf "%s: swept a non-trivial space (%d points)" name !checked)
    true (!checked > 1000)

let test_analytic_gemm () =
  check_analytic_agrees ~name:"gemm"
    (Chain.gemm_chain ~m:128 ~n:64 ~k:32 ~h:32 ())

let test_analytic_attention () =
  check_analytic_agrees ~name:"attention"
    (Chain.attention ~heads:2 ~m:64 ~n:64 ~k:32 ~h:32 ())

let test_analytic_gemm3 () =
  check_analytic_agrees ~name:"gemm3"
    (Chain.gemm_chain3 ~m:48 ~n:32 ~k:32 ~h:32 ~p:32 ())

let test_analytic_mlp () =
  check_analytic_agrees ~name:"mlp"
    (Chain.mlp_chain ~m:64 ~n:64 ~k:32 ~h:32 ())

(* --- exactness with a non-integral FLOP factor -----------------------------

   Every other chain's FLOP terms are integer-valued, so any grouping of
   their products and sums gives the same bits.  A Unary of 100.1 FLOPs
   per element makes the epilogue's term non-integral and large enough to
   set the last bits of the block's FLOP sum, so the analytic path equals
   [Perf.breakdown (Lower.lower ...)] bit-for-bit only if its FLOP terms
   keep [Lower.instantiate]'s factors and operator order.  Sizes of 96
   and 48 give trip and tile products with a factor of 3, which, unlike
   a power of two, round differently when moved across the factor: a
   copy of the scorer that multiplied a term's tile and trip products as
   one int before applying the factor fails here.  Exhaustive over
   tilings x tile combos x the eight flag combinations. *)

(* [chain] with a Unary of [uflops] FLOPs per element on each named
   block. *)
let with_unary chain flops =
  { chain with
    Chain.cname =
      String.concat "_"
        (chain.Chain.cname
        :: List.map (fun (b, f) -> Printf.sprintf "%s%g" b f) flops);
    blocks =
      List.map
        (fun (b : Chain.block) ->
          match List.assoc_opt b.bname flops with
          | Some uflops ->
            { b with
              epilogue = Chain.Unary { uname = "u"; apply = Fun.id; uflops } }
          | None -> b)
        chain.blocks }

let check_fractional chain =
  let combos =
    Mcf_util.Listx.cartesian
      (List.map
         (fun (a : Axis.t) ->
           List.map (fun t -> (a.name, t)) (Candidate.tile_options a.size))
         chain.Chain.axes)
  in
  let checked = ref 0 and fractional = ref 0 in
  List.iter
    (fun (rule1, dle, hoisting) ->
      List.iter
        (fun tiling ->
          List.iter
            (fun tiles ->
              let c = Candidate.make tiling tiles in
              let l =
                Lower.lower ~rule1 ~dead_loop_elim:dle ~hoisting ~elem_bytes:2
                  chain c
              in
              let want = Mcf_model.Perf.breakdown a100 l in
              let ev =
                Mcf_model.Analytic.eval_candidate ~rule1 ~dead_loop_elim:dle
                  ~hoisting ~elem_bytes:2 chain c
              in
              let got = Mcf_model.Analytic.breakdown_of_eval a100 ev in
              incr checked;
              if not (Float.is_integer ev.flops_per_block) then
                incr fractional;
              List.iter
                (fun (field, (g : float), (w : float)) ->
                  if not (Float.equal g w) then
                    Alcotest.failf
                      "%s: analytic %h <> lowered %h for %s (rule1=%b \
                       dead_loop_elim=%b hoisting=%b)"
                      field g w (Candidate.key c) rule1 dle hoisting)
                [ ("flops_per_block", ev.flops_per_block,
                   Lower.flops_per_block l);
                  ("t_mem", got.t_mem, want.t_mem);
                  ("t_comp", got.t_comp, want.t_comp);
                  ("alpha", got.alpha, want.alpha);
                  ("t_total", got.t_total, want.t_total) ])
            combos)
        (Tiling.enumerate chain))
    (List.concat_map
       (fun r1 ->
         List.concat_map
           (fun dle -> List.map (fun h -> (r1, dle, h)) [ true; false ])
           [ true; false ])
       [ true; false ]);
  Alcotest.(check bool)
    (Printf.sprintf "swept a non-trivial space (%d points)" !checked)
    true (!checked > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "non-integral FLOPs on %d points" !fractional)
    true (!fractional > 0)

let test_analytic_fractional () =
  check_fractional
    (with_unary (Chain.mlp_chain ~m:96 ~n:48 ~k:32 ~h:32 ()) [ ("C", 100.1) ])

(* Two non-integral epilogues pin the order of the FLOP sum.  With one,
   it is added to integer-valued terms only, which gives the same bits in
   any order.  With Unary FLOPs of 0.1 on C and 0.3 on E, a scorer that
   added every epilogue term after all contraction terms, instead of in
   [Lower.instantiate]'s program order, differs in the last bit (100.1
   and 12.3 do not show it). *)
let test_analytic_two_fractional () =
  check_fractional
    (with_unary
       (Chain.gemm_chain3 ~m:96 ~n:48 ~k:32 ~h:32 ~p:32 ())
       [ ("C", 0.1); ("E", 0.3) ])

(* The per-point loops read the tile and trip arrays without bounds
   checks, so arrays shorter than the chain's axes must be refused before
   any read. *)
let test_analytic_short_arrays () =
  let chain = Chain.gemm_chain ~m:128 ~n:64 ~k:32 ~h:32 () in
  let c =
    Candidate.make
      (List.hd (Tiling.enumerate chain))
      [ ("m", 32); ("n", 32); ("k", 16); ("h", 16) ]
  in
  let s = Mcf_model.Analytic.summarize chain c in
  let tiles, trips = Skeleton.tile_arrays (Mcf_model.Analytic.skeleton s) c in
  let short a = Array.sub a 0 (Array.length a - 1) in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool)
    "footprint refuses short tiles" true
    (raises (fun () ->
         Mcf_model.Analytic.footprint ~elem_bytes:2 s ~tiles:(short tiles)
           ~trips));
  Alcotest.(check bool)
    "evaluate_tiles refuses short trips" true
    (raises (fun () ->
         Mcf_model.Analytic.evaluate_tiles ~elem_bytes:2 s ~tiles
           ~trips:(short trips)))

let test_analytic_memo () =
  let chain = Chain.gemm_chain ~m:128 ~n:64 ~k:32 ~h:32 () in
  let memo = Mcf_model.Analytic.Memo.create ~elem_bytes:2 chain in
  let hits0 = Mcf_obs.Metrics.counter_value "model.memo.hits" in
  let misses0 = Mcf_obs.Metrics.counter_value "model.memo.misses" in
  let tiling = List.hd (Tiling.enumerate chain) in
  let c1 =
    Candidate.make tiling [ ("m", 32); ("n", 32); ("k", 16); ("h", 16) ]
  in
  (* Same expression and trip-1 mask, different magnitudes: must share the
     memoized summary yet evaluate to its own numbers. *)
  let c2 =
    Candidate.make tiling [ ("m", 64); ("n", 32); ("k", 16); ("h", 16) ]
  in
  let e1 = Mcf_model.Analytic.Memo.estimate memo a100 c1 in
  let e2 = Mcf_model.Analytic.Memo.estimate memo a100 c2 in
  let e1' = Mcf_model.Analytic.Memo.estimate memo a100 c1 in
  Alcotest.(check bool) "memoized result is stable" true (Float.equal e1 e1');
  let lowered c =
    Mcf_model.Perf.estimate a100 (Lower.lower ~elem_bytes:2 chain c)
  in
  Alcotest.(check (float 1e-30))
    "memoized estimate matches the lowering" (lowered c1) e1;
  Alcotest.(check (float 1e-30))
    "second tile vector evaluates independently" (lowered c2) e2;
  let hits = Mcf_obs.Metrics.counter_value "model.memo.hits" - hits0 in
  let misses = Mcf_obs.Metrics.counter_value "model.memo.misses" - misses0 in
  Alcotest.(check int) "one summary computed" 1 misses;
  Alcotest.(check int) "two summary hits" 2 hits

(* --- lowering = the counts ---------------------------------------------------

   [Lower.lower] reads the skeleton of the built program and
   instantiates it; an enumeration entry instantiates the skeleton its
   precheck built for its memo key, shared with every other point of
   that key, so a measurement builds no program.  Both must equal the
   interpreter's counts of their own program, statement order included
   ([Mcf_fuzz.Oracle.count_mismatches]): on every rule-3 point of the
   paper's tables (rule 4 off, so the points are the same on both
   devices), on the deep chains' reservoir, and on the entries of every
   switch combination. *)

module Space = Mcf_search.Space

let lower_equal ~what c l =
  match Mcf_fuzz.Oracle.count_mismatches l with
  | [] -> ()
  | fields ->
    Alcotest.failf "%s: %s differ from the counts for %s" what
      (String.concat ", " fields) (Candidate.key c)

(* Every rule-3 point: rules 1-2 over the raw tilings, crossed with the
   rule-3 tile choices. *)
let rule3_points (o : Space.options) chain =
  let seen = Tiling.Tbl.create 64 in
  let tilings =
    List.filter
      (fun t ->
        let k = if o.rule1 then Tiling.sub_tiling chain t else t in
        if Tiling.Tbl.mem seen k then false
        else begin
          Tiling.Tbl.add seen k ();
          not (o.rule2 && Space.rule2_rejects chain t)
        end)
      (if o.include_flat then Tiling.enumerate chain
       else Tiling.enumerate_deep chain)
  in
  let combos =
    Mcf_util.Listx.cartesian
      (List.map
         (fun (a, ts) -> List.map (fun t -> (a, t)) ts)
         (Space.tile_choices o chain))
  in
  List.concat_map (fun t -> List.map (Candidate.make t) combos) tilings

let check_lowering ?(all_points = false) ?reservoir ~name (o : Space.options)
    chain =
  let entries, _ = Space.enumerate ~options:o ?reservoir a100 chain in
  List.iter
    (fun (e : Space.entry) ->
      lower_equal ~what:(name ^ " entry") e.cand (Space.lowered e))
    entries;
  let points = if all_points then rule3_points o chain else [] in
  List.iter
    (fun c ->
      lower_equal ~what:(name ^ " Lower.lower") c
        (Lower.lower ~rule1:o.rule1 ~dead_loop_elim:o.dead_loop_elim
           ~hoisting:o.hoisting ~elem_bytes:a100.elem_bytes chain c))
    points;
  Alcotest.(check bool)
    (Printf.sprintf "%s: entries to compare" name)
    true (entries <> [])

let workload name =
  match Mcf_serve.Protocol.chain_of_workload name with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let test_lower_counts_tables () =
  let o = { Space.default_options with rule4 = false } in
  List.iter
    (fun name -> check_lowering ~all_points:true ~name o (workload name))
    (List.map
       (fun (g : Mcf_workloads.Configs.gemm_config) -> g.gname)
       Mcf_workloads.Configs.gemm_chains
    @ List.map
        (fun (s : Mcf_workloads.Configs.attention_config) -> s.sname)
        Mcf_workloads.Configs.attentions)

let test_lower_counts_deep () =
  List.iter
    (fun name ->
      check_lowering ~reservoir:4096 ~name Space.default_options
        (workload name))
    [ "D5"; "D6" ]

let test_lower_counts_switches () =
  List.iter
    (fun (rule1, dead_loop_elim, hoisting) ->
      let o =
        { Space.default_options with
          rule1;
          dead_loop_elim;
          hoisting;
          rule4 = false }
      in
      List.iter
        (fun (name, chain) ->
          check_lowering
            ~name:
              (Printf.sprintf "%s rule1=%b dead_loop_elim=%b hoisting=%b" name
                 rule1 dead_loop_elim hoisting)
            o chain)
        [ ("gemm", Chain.gemm_chain ~m:128 ~n:64 ~k:32 ~h:32 ());
          ("attention", Chain.attention ~heads:2 ~m:64 ~n:64 ~k:32 ~h:32 ());
          ("gemm3", Chain.gemm_chain3 ~m:48 ~n:32 ~k:32 ~h:32 ~p:32 ());
          ("mlp", Chain.mlp_chain ~m:64 ~n:64 ~k:32 ~h:32 ());
          ("G1", workload "G1");
          ("S1", workload "S1") ])
    (List.concat_map
       (fun r1 ->
         List.concat_map
           (fun dle -> List.map (fun h -> (r1, dle, h)) [ true; false ])
           [ true; false ])
       [ true; false ])

(* The check's own sensitivity, as [Oracle.drop_live_loops] is the
   interp oracle's: two of the skeleton mutations it must catch, on the
   first valid gemm-chain point whose Store flushes more than one
   resident tile (rule 1 off, so spatial loops stay in the block). *)
let test_lower_counts_sensitivity () =
  let chain = Chain.gemm_chain ~m:128 ~n:64 ~k:32 ~h:32 () in
  let combos =
    Mcf_util.Listx.cartesian
      (List.map
         (fun (a : Axis.t) ->
           List.map (fun t -> (a.name, t)) (Candidate.tile_options a.size))
         chain.axes)
  in
  let flushes_many (s : Skeleton.t) trips =
    Array.exists
      (fun (st : Skeleton.stmt) ->
        match st.op with
        | Skeleton.Access { store = true; amult; _ } ->
          List.exists (fun a -> trips.(a) > 1) amult
        | Skeleton.Access _ | Skeleton.Contraction _ | Skeleton.Epilogue _ ->
          false)
      s.stmts
  in
  let s, c, tiles, trips =
    match
      List.find_map
        (fun tiling ->
          List.find_map
            (fun t ->
              let c = Candidate.make tiling t in
              let s = Skeleton.make ~rule1:false chain c in
              let tiles, trips = Skeleton.tile_arrays s c in
              if s.verdict = Ok () && flushes_many s trips then
                Some (s, c, tiles, trips)
              else None)
            combos)
        (Tiling.enumerate chain)
    with
    | Some found -> found
    | None -> Alcotest.fail "no valid point flushes more than one tile"
  in
  let mismatches stmts =
    Mcf_fuzz.Oracle.count_mismatches
      (Lower.instantiate ~elem_bytes:2 { s with stmts } c ~tiles ~trips)
  in
  let fields = Alcotest.(list string) in
  Alcotest.check fields "the lowering itself" [] (mismatches s.stmts);
  Alcotest.check fields "first multiplier axis of every Store dropped"
    [ "accesses" ]
    (mismatches
       (Array.map
          (fun (st : Skeleton.stmt) ->
            match st.op with
            | Skeleton.Access ({ store = true; amult = _ :: rest; _ } as a) ->
              { st with op = Skeleton.Access { a with amult = rest } }
            | Skeleton.Access _ | Skeleton.Contraction _ | Skeleton.Epilogue _
              ->
              st)
          s.stmts));
  Alcotest.check fields "statement order reversed"
    [ "accesses"; "computes" ]
    (mismatches
       (Array.of_list (List.rev (Array.to_list s.stmts))))

(* --- the memo key: only the trip=1 bits a summary reads -------------------

   [Memo] keys a summary by its structural id and the trip=1 bits of the
   non-grid and softmax axes, so a point whose grid-axis trips differ
   from an earlier point's reuses that point's summary.  Exactness: for
   every kept tiling and every tile vector picking the smallest or the
   full tile per axis (every trip=1 mask), first query one memo with the
   candidate's grid twin (the trip=1 bits the key leaves out flipped),
   then with the candidate; the summary it returns must evaluate
   bit-equal to a fresh [summarize] of the candidate.  One memo serves a
   whole sweep, so a key that drops a bit the summary reads hands some
   point a summary built for another mask. *)

let check_memo_key_exact ~name chain =
  let axes = chain.Chain.axes in
  let mask_of c =
    List.fold_left
      (fun (acc, bit) (a : Axis.t) ->
        ((if Candidate.trip c a = 1 then acc lor bit else acc), bit lsl 1))
      (0, 1) axes
    |> fst
  in
  let extremes (a : Axis.t) =
    let opts = Candidate.tile_options a.size in
    List.sort_uniq compare [ List.hd opts; a.size ]
  in
  let vectors =
    Mcf_util.Listx.cartesian
      (List.map
         (fun (a : Axis.t) -> List.map (fun t -> (a.name, t)) (extremes a))
         axes)
  in
  let checked = ref 0 in
  List.iter
    (fun (rule1, dle, hoisting) ->
      let seen = Tiling.Tbl.create 64 in
      let kept =
        List.filter
          (fun t ->
            let k = if rule1 then Tiling.sub_tiling chain t else t in
            if Tiling.Tbl.mem seen k then false
            else begin
              Tiling.Tbl.add seen k ();
              not (Mcf_search.Space.rule2_rejects chain t)
            end)
          (Tiling.enumerate chain)
      in
      let memo =
        Mcf_model.Analytic.Memo.create ~rule1 ~dead_loop_elim:dle ~hoisting
          ~elem_bytes:2 chain
      in
      let lookup c =
        Mcf_model.Analytic.Memo.summary_at memo
          ~sid:(Mcf_model.Analytic.Memo.sid memo c.Candidate.tiling)
          ~mask:(mask_of c) (fun () -> c)
      in
      List.iter
        (fun tiling ->
          List.iter
            (fun tiles ->
              let c = Candidate.make tiling tiles in
              ignore (lookup (Mcf_fuzz.Oracle.grid_twin memo chain c));
              let got = lookup c in
              let want =
                Mcf_model.Analytic.summarize ~rule1 ~dead_loop_elim:dle
                  ~hoisting chain c
              in
              incr checked;
              let fail what =
                Alcotest.failf
                  "%s: memoized summary's %s differs from a fresh one for %s \
                   (rule1=%b dead_loop_elim=%b hoisting=%b)"
                  name what (Candidate.key c) rule1 dle hoisting
              in
              let tiles, trips =
                Skeleton.tile_arrays (Mcf_model.Analytic.skeleton want) c
              in
              let fp s =
                Mcf_model.Analytic.footprint ~elem_bytes:2 s ~tiles ~trips
              in
              if fp got <> fp want then fail "footprint";
              let eg = Mcf_model.Analytic.evaluate ~elem_bytes:2 got c in
              let ew = Mcf_model.Analytic.evaluate ~elem_bytes:2 want c in
              List.iter
                (fun (field, (x : float), (y : float)) ->
                  if not (Float.equal x y) then fail field)
                [ ("bytes_per_block", eg.bytes_per_block, ew.bytes_per_block);
                  ("flops_per_block", eg.flops_per_block, ew.flops_per_block);
                  ("blocks", eg.blocks, ew.blocks);
                  ("traffic_bytes", eg.traffic_bytes, ew.traffic_bytes) ];
              if eg.everdict <> ew.everdict then fail "verdict")
            vectors)
        kept)
    (List.concat_map
       (fun r1 ->
         List.concat_map
           (fun dle -> List.map (fun h -> (r1, dle, h)) [ true; false ])
           [ true; false ])
       [ true; false ]);
  Alcotest.(check bool)
    (Printf.sprintf "%s: swept a non-trivial space (%d points)" name !checked)
    true (!checked > 100)

let test_memo_key_gemm () =
  check_memo_key_exact ~name:"gemm"
    (Chain.gemm_chain ~m:128 ~n:64 ~k:32 ~h:32 ())

let test_memo_key_attention () =
  check_memo_key_exact ~name:"attention"
    (Chain.attention ~heads:2 ~m:64 ~n:64 ~k:32 ~h:32 ())

let test_memo_key_mlp () =
  check_memo_key_exact ~name:"mlp" (Chain.mlp_chain ~m:64 ~n:64 ~k:32 ~h:32 ())

let test_memo_key_d5 () =
  match Mcf_workloads.Configs.find_deep "D5" with
  | Some d ->
    check_memo_key_exact ~name:"D5" (Mcf_workloads.Configs.deep_chain d)
  | None -> Alcotest.fail "D5 is not a deep workload"

let () =
  Alcotest.run "mcf_model"
    [ ( "shmem (eq 1)",
        [ Alcotest.test_case "exact estimate" `Quick test_shmem_estimate_exact;
          Alcotest.test_case "monotone in tiles" `Quick
            test_shmem_grows_with_tiles;
          Alcotest.test_case "rule-2 multiplicity" `Quick
            test_shmem_rule2_multiplicity;
          Alcotest.test_case "within budget" `Quick test_within_budget;
          Alcotest.test_case "slack semantics" `Quick test_slack_widens_budget ]
      );
      ( "perf (eqs 2-5)",
        [ Alcotest.test_case "t_mem formula" `Quick test_perf_t_mem_formula;
          Alcotest.test_case "t_comp formula" `Quick test_perf_t_comp_formula;
          Alcotest.test_case "alpha formula" `Quick test_perf_alpha;
          Alcotest.test_case "alpha vs blocks" `Quick
            test_perf_alpha_decreases_with_blocks;
          Alcotest.test_case "device dependence" `Quick
            test_perf_device_dependence;
          Alcotest.test_case "positivity" `Quick test_perf_positive;
          Alcotest.test_case "redundancy visible" `Quick
            test_perf_redundancy_visible;
          Alcotest.test_case "ranks obvious cases" `Quick
            test_perf_ranks_obvious_cases;
          Alcotest.test_case "single-block alpha" `Quick test_perf_grid_of_one ]
      );
      ( "rule-4 precheck",
        [ Alcotest.test_case "gemm chain" `Quick test_precheck_gemm;
          Alcotest.test_case "attention" `Quick test_precheck_attention;
          Alcotest.test_case "3-gemm chain" `Quick test_precheck_gemm3;
          Alcotest.test_case "mlp (unary epilogue)" `Quick test_precheck_mlp ]
      );
      ( "analytic fast path",
        [ Alcotest.test_case "gemm chain" `Quick test_analytic_gemm;
          Alcotest.test_case "attention" `Quick test_analytic_attention;
          Alcotest.test_case "3-gemm chain" `Quick test_analytic_gemm3;
          Alcotest.test_case "mlp (unary epilogue)" `Quick test_analytic_mlp;
          Alcotest.test_case "mlp, non-integral unary FLOPs" `Quick
            test_analytic_fractional;
          Alcotest.test_case "two non-integral epilogues" `Quick
            test_analytic_two_fractional;
          Alcotest.test_case "summary memoization" `Quick test_analytic_memo;
          Alcotest.test_case "short point arrays refused" `Quick
            test_analytic_short_arrays ]
      );
      ( "lower vs counts",
        [ Alcotest.test_case "tables, every rule-3 point" `Quick
            test_lower_counts_tables;
          Alcotest.test_case "D5 and D6 reservoirs" `Quick
            test_lower_counts_deep;
          Alcotest.test_case "switch combinations" `Quick
            test_lower_counts_switches;
          Alcotest.test_case "catches mutated lowerings"
            `Quick test_lower_counts_sensitivity ] );
      ( "memo key",
        [ Alcotest.test_case "gemm chain" `Quick test_memo_key_gemm;
          Alcotest.test_case "attention" `Quick test_memo_key_attention;
          Alcotest.test_case "mlp (unary epilogue)" `Quick test_memo_key_mlp;
          Alcotest.test_case "D5" `Quick test_memo_key_d5 ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_model_positive ] ) ]
