(* Tests for the streaming enumeration pipeline: the lazy tiling
   generators, deep-chain workloads, the bounded reservoir, the scores
   the stream hands the explorer, and — the load-bearing property — that
   the streamed pipeline keeps exactly the points a brute-force filter
   over the raw cross product keeps: same funnel, same candidates in the
   same order, at any pool size. *)

open Mcf_ir
module Space = Mcf_search.Space

let a100 = Mcf_gpu.Spec.a100
let paper_gemm = Chain.gemm_chain ~m:1024 ~n:1024 ~k:512 ~h:512 ()
let small_gemm = Chain.gemm_chain ~m:256 ~n:128 ~k:64 ~h:64 ()
let attn = Chain.attention ~heads:8 ~m:512 ~n:512 ~k:64 ~h:64 ()
let gemm3 = Chain.gemm_chain3 ~m:256 ~n:128 ~k:64 ~h:64 ~p:64 ()

let deep5 = Chain.gemm_chain_n ~m:32 ~dims:[ 16; 16; 16; 16; 16; 16 ] ()
let deep name = Mcf_workloads.Configs.(deep_chain (Option.get (find_deep name)))
let d5 = deep "D5"

let with_jobs jobs f =
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
    (fun () ->
      Mcf_util.Pool.set_jobs jobs;
      f ())

(* --- lazy tiling generators ------------------------------------------------- *)

let tiling_keys l = List.map Tiling.to_string l

let test_seq_matches_enumerate () =
  List.iter
    (fun (name, chain) ->
      Alcotest.(check (list string))
        (name ^ ": seq = enumerate")
        (tiling_keys (Tiling.enumerate chain))
        (tiling_keys (List.of_seq (Tiling.seq chain)));
      Alcotest.(check int)
        (name ^ ": count = |enumerate|")
        (List.length (Tiling.enumerate chain))
        (Tiling.count chain))
    [ ("small_gemm", small_gemm);
      ("attention", attn);
      ("gemm3", gemm3);
      ("deep-5", deep5) ]

let test_count_paper_example () =
  (* The closed form feeds [raw_cardinality]; the paper's 26 expressions
     for the 2-block GEMM chain must survive the streaming rewrite. *)
  Alcotest.(check int) "26 tilings" 26 (Tiling.count paper_gemm)

(* --- deep-chain workloads --------------------------------------------------- *)

let test_deep_configs_validate () =
  List.iter
    (fun (d : Mcf_workloads.Configs.deep_config) ->
      let chain = Mcf_workloads.Configs.deep_chain d in
      (match Chain.validate chain with
      | Ok () -> ()
      | Error e -> Alcotest.fail (d.dname ^ ": " ^ e));
      Alcotest.(check int)
        (d.dname ^ ": blocks")
        d.dblocks
        (List.length chain.Chain.blocks);
      (* blocks + 2 axes: m, x0..x_{blocks}. *)
      Alcotest.(check int)
        (d.dname ^ ": axes")
        (d.dblocks + 2)
        (List.length chain.Chain.axes))
    Mcf_workloads.Configs.deep_chains

let test_deep_chain_reference_execution () =
  (* End-to-end on a scaled-down 5-block chain: tune it (through the
     streaming pipeline, with a reservoir bound), execute the winning
     fused schedule in the interpreter and compare against the
     direct block-by-block reference. *)
  let chain = deep5 in
  match Mcf_search.Tuner.tune ~seed:11 ~reservoir:64 a100 chain with
  | Error _ -> Alcotest.fail "deep chain did not tune"
  | Ok o ->
    let rng = Mcf_util.Rng.create 3 in
    let inputs =
      List.map
        (fun (ts : Chain.tensor_spec) ->
          let shape =
            Array.of_list (List.map (fun (a : Axis.t) -> a.Axis.size) ts.taxes)
          in
          (ts.tname, Mcf_tensor.Tensor.random rng shape))
        (Chain.input_tensors chain)
    in
    let got =
      Mcf_interp.Interp.run ~inputs
        (Mcf_ir.Lower.program (Space.lowered o.best))
    in
    let want = Mcf_interp.Interp.reference chain ~inputs in
    Alcotest.(check bool) "fused matches reference" true
      (Mcf_tensor.Tensor.approx_equal ~tol:1e-3 got want)

(* --- streamed vs brute force ------------------------------------------------ *)

let entry_keys = List.map (fun (e : Space.entry) -> Candidate.key e.cand)

(* The reference the stream is pinned against: rules 1-3 from their
   definitions, then every point of the cross product lowered, kept when
   the lowered program fits the rule-4 budget and is valid.  Shares none
   of the stream's summaries, memo or index decoding.  Returns the funnel
   and the kept candidate keys in enumeration order. *)
let brute_force (opts : Space.options) chain : Space.funnel * string list =
  let raw =
    if opts.include_flat then Tiling.enumerate chain
    else Tiling.enumerate_deep chain
  in
  let seen = Hashtbl.create 64 in
  let first_of_class t =
    let k = Tiling.to_string (Tiling.sub_tiling chain t) in
    (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true)
  in
  let ts1 = if opts.rule1 then List.filter first_of_class raw else raw in
  let ts2 =
    if opts.rule2 then
      List.filter (fun t -> not (Space.rule2_rejects chain t)) ts1
    else ts1
  in
  let choices = Space.tile_choices opts chain in
  let names = List.map fst choices in
  let combos = Mcf_util.Listx.cartesian (List.map snd choices) in
  let fits = ref 0 and kept = ref [] in
  List.iter
    (fun t ->
      List.iter
        (fun tiles ->
          let cand = Candidate.make t (List.combine names tiles) in
          let l =
            Lower.lower ~rule1:opts.rule1 ~dead_loop_elim:opts.dead_loop_elim
              ~hoisting:opts.hoisting ~elem_bytes:a100.elem_bytes chain cand
          in
          if (not opts.rule4)
             || Mcf_model.Shmem.within_budget a100 ~slack:Space.shmem_slack l
          then begin
            incr fits;
            if Result.is_ok l.validity then kept := Candidate.key cand :: !kept
          end)
        combos)
    ts2;
  let tile_points =
    List.fold_left
      (fun acc (a : Axis.t) ->
        acc *. float_of_int (List.length (Candidate.tile_options a.size)))
      1.0 chain.Chain.axes
  in
  ( { tilings_raw = List.length raw;
      tilings_rule1 = List.length ts1;
      tilings_rule2 = List.length ts2;
      candidates_raw = float_of_int (List.length raw) *. tile_points;
      candidates_rule3 =
        float_of_int (List.length ts2) *. float_of_int (List.length combos);
      candidates_rule4 = !fits;
      candidates_valid = List.length !kept },
    List.rev !kept )

let check_funnels name (a : Space.funnel) (b : Space.funnel) =
  Alcotest.(check int) (name ^ ": tilings_raw") a.tilings_raw b.tilings_raw;
  Alcotest.(check int) (name ^ ": tilings_rule1") a.tilings_rule1
    b.tilings_rule1;
  Alcotest.(check int) (name ^ ": tilings_rule2") a.tilings_rule2
    b.tilings_rule2;
  Alcotest.(check (float 0.0)) (name ^ ": candidates_raw") a.candidates_raw
    b.candidates_raw;
  Alcotest.(check (float 0.0)) (name ^ ": candidates_rule3")
    a.candidates_rule3 b.candidates_rule3;
  Alcotest.(check int) (name ^ ": candidates_rule4") a.candidates_rule4
    b.candidates_rule4;
  Alcotest.(check int) (name ^ ": candidates_valid") a.candidates_valid
    b.candidates_valid

(* Rules 1-2 straight from their definitions over the raw [Tiling.seq]
   walk under the default options: the tiling counts after each rule,
   and the recorder's exemplars — the first three distinct sub-tilings
   rule 1 drops as repeats, and the first three rule 2 rejects. *)
let raw_rule_filter chain =
  let seen = Hashtbl.create 1024 in
  let raw = ref 0 and n1 = ref 0 and n2 = ref 0 in
  let ex1 = ref [] and ex2 = ref [] in
  let note lst k =
    if List.length !lst < 3 && not (List.mem k !lst) then lst := !lst @ [ k ]
  in
  Seq.iter
    (fun t ->
      incr raw;
      let k = Tiling.to_string (Tiling.sub_tiling chain t) in
      if Hashtbl.mem seen k then note ex1 k
      else begin
        Hashtbl.add seen k ();
        incr n1;
        if Space.rule2_rejects chain t then note ex2 k else incr n2
      end)
    (Tiling.seq chain);
  (!raw, !n1, !n2, !ex1, !ex2)

let chains =
  [ ("small_gemm", small_gemm);
    ("paper_gemm", paper_gemm);
    ("attention", attn);
    ("gemm3", gemm3);
    ("deep-5", deep5) ]

let test_first_of_sub_tiling () =
  (* Each rule-1 class's first tiling and the class count, against a
     scan of the raw walk, with and without the flat family. *)
  List.iter
    (fun (name, chain) ->
      List.iter
        (fun include_flat ->
          let name = Printf.sprintf "%s/flat=%b" name include_flat in
          let seen = Hashtbl.create 64 in
          Seq.iter
            (fun t ->
              let sub = Tiling.sub_tiling chain t in
              let k = Tiling.to_string sub in
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                Alcotest.(check string)
                  (name ^ ": first of " ^ k)
                  (Tiling.to_string t)
                  (Tiling.to_string (Tiling.first_of_sub_tiling chain sub))
              end)
            (if include_flat then Tiling.seq chain else Tiling.seq_deep chain);
          Alcotest.(check int) (name ^ ": classes") (Hashtbl.length seen)
            (Tiling.count_sub_tilings ~include_flat chain))
        [ true; false ])
    chains

(* The default options, then each switch turned off on its own.  With
   rule 1 off many kept tilings share a sub-tiling, so the scorer's
   memoized summaries must be keyed by the full tiling. *)
let option_variants =
  let d = Space.default_options in
  [ ("default", d);
    ("no-rule1", { d with rule1 = false });
    ("no-rule2", { d with rule2 = false });
    ("no-rule3", { d with rule3 = false });
    ("no-rule4", { d with rule4 = false });
    ("no-flat", { d with include_flat = false });
    ("no-dead-loop-elim", { d with dead_loop_elim = false });
    ("no-hoisting", { d with hoisting = false }) ]

(* Every (variant, chain) pair whose rule-3 space stays small enough to
   lower point by point: without rule 3 only the chains with a small raw
   space qualify. *)
let variant_cases =
  List.concat_map
    (fun (vname, (opts : Space.options)) ->
      List.filter_map
        (fun (cname, chain) ->
          if opts.rule3 || Space.raw_cardinality chain <= 1e5 then
            Some (vname ^ "/" ^ cname, opts, chain)
          else None)
        chains)
    option_variants

(* Under the default options no chain above has an invalid point or
   more than one chunk; unbounded D5 has both — 7,290 rule-3 points, past
   the ~4,096-point chunk, and 2,880 of its rule-4 survivors invalid — so
   it pins the verdict-first path and the outcome arrays' reuse across
   chunks. *)
let stream_cases = variant_cases @ [ ("default/D5", Space.default_options, d5) ]

let test_stream_equals_brute_force () =
  (* The pipeline's contract: for every workload, under every option
     variant and at every pool size, the stream keeps exactly what the
     brute-force filter keeps — candidates, order and funnel. *)
  let oracle =
    List.map (fun (_, options, chain) -> brute_force options chain)
      stream_cases
  in
  let d5_funnel = fst (List.nth oracle (List.length variant_cases)) in
  Alcotest.(check (list int)) "D5: rule-3 points, invalid points"
    [ 7290; 2880 ]
    [ int_of_float d5_funnel.candidates_rule3;
      d5_funnel.candidates_rule4 - d5_funnel.candidates_valid ];
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter2
            (fun (name, options, chain) (bf, bkeys) ->
              let name = Printf.sprintf "%s@jobs=%d" name jobs in
              let se, sf = Space.enumerate ~options a100 chain in
              check_funnels name bf sf;
              Alcotest.(check (list string))
                (name ^ ": candidates") bkeys (entry_keys se))
            stream_cases oracle))
    [ 1; 4 ]

let prune_event stage events =
  let open Mcf_util.Json in
  List.find
    (fun ev ->
      member "ev" ev = Some (Str "prune")
      && member "stage" ev = Some (Str stage))
    events

let test_structural_prune_events () =
  (* The recorder's rule-1 and rule-2 attribution — counts and the
     exemplars — must be what the raw walk gives, at any pool size. *)
  let cases = chains @ [ ("D5", d5); ("D6", deep "D6") ] in
  let expected = List.map (fun (_, chain) -> raw_rule_filter chain) cases in
  let show before after exemplars =
    Printf.sprintf "before=%d after=%d exemplars=[%s]" before after
      (String.concat "; " exemplars)
  in
  let field ev k =
    match Mcf_util.Json.member k ev with
    | Some (Mcf_util.Json.Num v) -> int_of_float v
    | _ -> Alcotest.failf "prune event without %s" k
  in
  let exemplars ev =
    match Mcf_util.Json.member "exemplars" ev with
    | Some (Mcf_util.Json.List l) ->
      List.map (function Mcf_util.Json.Str s -> s | _ -> "?") l
    | _ -> Alcotest.fail "prune event without exemplars"
  in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter2
            (fun (name, chain) (raw, n1, n2, ex1, ex2) ->
              Mcf_obs.Recorder.start ();
              let events =
                Fun.protect
                  ~finally:(fun () ->
                    Mcf_obs.Recorder.stop ();
                    Mcf_obs.Recorder.reset ())
                  (fun () ->
                    ignore (Space.enumerate a100 chain);
                    Mcf_obs.Recorder.events ())
              in
              List.iter
                (fun (stage, want) ->
                  let ev = prune_event stage events in
                  Alcotest.(check string)
                    (Printf.sprintf "%s@jobs=%d: %s" name jobs stage)
                    want
                    (show (field ev "before") (field ev "after")
                       (exemplars ev)))
                [ ("rule1", show raw n1 ex1); ("rule2", show n1 n2 ex2) ])
            cases expected))
    [ 1; 4 ]

let test_deep_funnel_counts () =
  (* The structural funnel of the deep chains, no lowering involved:
     D5-D7 against the raw walk, D8 (3.7M raw tilings) against its closed
     forms — 10! + 8! raw, 8! + 7! rule-1 classes, 2 rule-2 survivors. *)
  let check name chain (raw, n1, n2) =
    let _, f = Space.enumerate ~reservoir:1 a100 chain in
    Alcotest.(check (list int))
      (name ^ ": raw / rule 1 / rule 2")
      [ raw; n1; n2 ]
      [ f.tilings_raw; f.tilings_rule1; f.tilings_rule2 ]
  in
  List.iter
    (fun name ->
      let chain = deep name in
      let raw, n1, n2, _, _ = raw_rule_filter chain in
      check name chain (raw, n1, n2))
    [ "D5"; "D6"; "D7" ];
  check "D8" (deep "D8") (3_669_120, 45_360, 2)

let test_streamed_scores_are_analytic () =
  (* The stream is the search's only scorer: every (estimate, traffic)
     pair it returns must be the objective applied to eq. (2)-(5)'s
     breakdown and the alpha-scaled traffic of the closed-form model
     under the same switches, bit for bit — for the paper's total time,
     Chimera's data-movement objective and the ablation's no-alpha
     model alike. *)
  let objectives : (string * (Mcf_model.Perf.breakdown -> float) option) list =
    [ ("t_total", None);
      ("chimera", Some (fun b -> b.t_mem *. b.alpha));
      ("no-alpha", Some (fun b -> b.t_mem +. b.t_comp)) ]
  in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun ((name, (options : Space.options), chain), (oname, objective))
               ->
              let rule1 = options.rule1
              and dead_loop_elim = options.dead_loop_elim
              and hoisting = options.hoisting in
              let entries, scores, _ =
                Space.enumerate_scored ~options ?objective a100 chain
              in
              let name = Printf.sprintf "%s/%s@jobs=%d" name oname jobs in
              let apply =
                Option.value objective
                  ~default:(fun b -> b.Mcf_model.Perf.t_total)
              in
              Alcotest.(check int)
                (name ^ ": one score per entry")
                (List.length entries) (Array.length scores);
              List.iteri
                (fun i (e : Space.entry) ->
                  let what =
                    Printf.sprintf "%s: %s" name (Candidate.to_string e.cand)
                  in
                  let ev =
                    Mcf_model.Analytic.eval_candidate ~rule1 ~dead_loop_elim
                      ~hoisting ~elem_bytes:a100.elem_bytes chain e.cand
                  in
                  let alpha =
                    (ev.blocks +. float_of_int a100.sm_count) /. ev.blocks
                  in
                  let est, traffic = scores.(i) in
                  Alcotest.(check (float 0.0)) (what ^ " estimate")
                    (apply (Mcf_model.Analytic.breakdown_of_eval a100 ev))
                    est;
                  Alcotest.(check (float 0.0)) (what ^ " traffic")
                    (ev.traffic_bytes *. alpha) traffic)
                entries)
            (List.concat_map
               (fun case -> List.map (fun o -> (case, o)) objectives)
               variant_cases)))
    [ 1; 4 ]

let test_reservoir_keeps_best_by_estimate () =
  (* The kept slice must be exactly the top-[cap] of the unbounded run by
     (estimate, rank), in original enumeration order — the drain only
     adds an item for a point the reservoir admits, so this pins the
     admission test against the heap's own ordering. *)
  let check ?(options = Space.default_options) name chain cap =
    let full, scores, ff = Space.enumerate_scored ~options a100 chain in
    let cap = match cap with Some c -> c | None -> ff.candidates_valid / 2 in
    let kept, _, kf =
      Space.enumerate_scored ~options ~reservoir:cap a100 chain
    in
    (* The funnel still reports the whole space ... *)
    check_funnels (name ^ ": funnel unchanged") ff kf;
    Alcotest.(check bool)
      (Printf.sprintf "%s: reservoir %d below %d valid" name cap
         ff.candidates_valid)
      true (cap < ff.candidates_valid);
    Alcotest.(check int) (name ^ ": reservoir size") cap (List.length kept);
    let ranked =
      List.mapi
        (fun i (e : Space.entry) -> (fst scores.(i), i, Candidate.key e.cand))
        full
    in
    let expected =
      List.sort
        (fun (ea, ra, _) (eb, rb, _) ->
          match Float.compare ea eb with 0 -> Int.compare ra rb | c -> c)
        ranked
      |> fun l ->
      List.filteri (fun i _ -> i < cap) l
      |> List.sort (fun (_, ra, _) (_, rb, _) -> Int.compare ra rb)
      |> List.map (fun (_, _, k) -> k)
    in
    Alcotest.(check (list string)) (name ^ ": top slice by estimate") expected
      (entry_keys kept)
  in
  check "small_gemm" small_gemm (Some 40);
  (* deep-5 keeps half its valid points; with rule 1 off, tilings sharing
     a sub-tiling tie on estimate, so the rank tie-break decides. *)
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          check (Printf.sprintf "deep-5@jobs=%d" jobs) deep5 None;
          check
            ~options:{ Space.default_options with rule1 = false }
            (Printf.sprintf "deep-5/no-rule1@jobs=%d" jobs)
            deep5 None))
    [ 1; 4 ]

let test_memo_counts_every_rule3_point () =
  (* Rule 4 reads the memoized summary too, so one enumeration looks a
     summary up exactly once per rule-3 point: hits + misses = the
     funnel's [candidates_rule3]. *)
  let count () =
    Mcf_obs.Metrics.counter_value "model.memo.hits"
    + Mcf_obs.Metrics.counter_value "model.memo.misses"
  in
  let before = count () in
  let _, _, f = Space.enumerate_scored a100 small_gemm in
  Alcotest.(check int) "memo lookups = rule-3 points"
    (int_of_float f.candidates_rule3)
    (count () - before)

(* The [model.memo.hits] and [model.memo.misses] one call adds. *)
let memo_delta f =
  let counts () =
    ( Mcf_obs.Metrics.counter_value "model.memo.hits",
      Mcf_obs.Metrics.counter_value "model.memo.misses" )
  in
  let h0, m0 = counts () in
  let r = f () in
  let h1, m1 = counts () in
  (r, (h1 - h0, m1 - m0))

let test_memo_summary_counts () =
  (* A summary is keyed by the trip=1 bits it reads, and with rule 1 on
     every spatial axis is a grid axis whose bit it never reads: one
     default enumeration builds one summary per (kept tiling, trip=1
     pattern of the non-grid axes), and every other rule-3 point is a
     hit, whether the scorer's slot table or the memo answered it — at
     any pool size. *)
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun (name, hits, misses) ->
              let (), (h, m) =
                memo_delta (fun () ->
                    ignore
                      (Space.enumerate_points ~reservoir:512 a100 (deep name)))
              in
              Alcotest.(check (pair int int))
                (Printf.sprintf "%s@jobs=%d hits, summaries" name jobs)
                (hits, misses) (h, m))
            [ ("D5", 7194, 96); ("D6", 21678, 192) ]))
    [ 1; 4 ]

(* Ten axes, two more than D6: the scorer's slot table is at its size
   bound, so points whose keys differ only in a high relevant bit share a
   slot.  Every axis has the tiles 16 and 32 (trips 2 and 1). *)
let deep8_small = Chain.gemm_chain_n ~m:32 ~dims:(List.init 9 (Fun.const 32)) ()

let test_memo_slot_bound () =
  (* Past the bound, slot collisions must cost only memo lookups: the
     scorer's counters equal a fresh memo's looked up candidate by
     candidate over every rule-3 point, and its scores are that memo's
     estimates, at any pool size. *)
  let chain = deep8_small in
  Alcotest.(check int) "ten axes" 10 (List.length chain.Chain.axes);
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let name = Printf.sprintf "deep-8-small@jobs=%d" jobs in
          let (entries, scores, f), scorer =
            memo_delta (fun () -> Space.enumerate_scored a100 chain)
          in
          let tilings =
            List.sort_uniq compare
              (List.map (fun (e : Space.entry) -> e.cand.tiling) entries)
          in
          Alcotest.(check (list int))
            (name ^ ": kept tilings, rule-3 points")
            [ f.tilings_rule2; 2048 ]
            [ List.length tilings; int_of_float f.candidates_rule3 ];
          let memo =
            Mcf_model.Analytic.Memo.create ~elem_bytes:a100.elem_bytes chain
          in
          let choices = Space.tile_choices Space.default_options chain in
          let estimates = Hashtbl.create 2048 in
          let (), fresh =
            memo_delta (fun () ->
                List.iter
                  (fun t ->
                    List.iter
                      (fun tiles ->
                        let cand =
                          Candidate.make t (List.combine (List.map fst choices) tiles)
                        in
                        Hashtbl.replace estimates (Candidate.key cand)
                          (Mcf_model.Analytic.Memo.estimate memo a100 cand))
                      (Mcf_util.Listx.cartesian (List.map snd choices)))
                  tilings)
          in
          Alcotest.(check (pair int int))
            (name ^ ": hits, summaries as a fresh memo's")
            fresh scorer;
          List.iteri
            (fun i (e : Space.entry) ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s: %s estimate" name
                   (Candidate.to_string e.cand))
                (Hashtbl.find estimates (Candidate.key e.cand))
                (fst scores.(i)))
            entries))
    [ 1; 4 ]

let test_reservoir_tuner_winner_unchanged () =
  (* small_gemm has ~100 valid candidates; a reservoir big enough to hold
     the explorer's population must elect the same winner. *)
  let tune reservoir =
    match Mcf_search.Tuner.tune ?reservoir ~seed:7 a100 small_gemm with
    | Error _ -> Alcotest.fail "tuner failed"
    | Ok o -> o
  in
  let full = tune None in
  let bounded = tune (Some 64) in
  Alcotest.(check string) "same winner"
    (Candidate.key full.best.cand)
    (Candidate.key bounded.best.cand)

(* --- search-point encoding -------------------------------------------------- *)

let s3 =
  Mcf_workloads.Configs.(attention (Option.get (find_attention "S3")))

let test_neighbour_matches_pool_search () =
  (* A mutation step by definition: the pool entry with the same tiling
     and the p-th sorted tile moved one place through its axis's tile
     options, found by searching the pool for the candidate.
     [Space.neighbour] plus a rank lookup must name the same entry. *)
  let check ?(options = Space.default_options) ?reservoir name chain =
    let pool =
      Array.of_list (fst (Space.enumerate ~options ?reservoir a100 chain))
    in
    let by_rank = Hashtbl.create 64 and by_key = Hashtbl.create 64 in
    Array.iteri
      (fun i (e : Space.entry) ->
        Hashtbl.replace by_rank e.rank i;
        if not (Hashtbl.mem by_key (Candidate.key e.cand)) then
          Hashtbl.add by_key (Candidate.key e.cand) i)
      pool;
    let found = ref 0 in
    Array.iter
      (fun (e : Space.entry) ->
        List.iteri
          (fun p (axis, v) ->
            let options =
              Array.of_list
                (Candidate.tile_options (Chain.axis chain axis).Axis.size)
            in
            let j = Option.get (Array.find_index (Int.equal v) options) in
            List.iter
              (fun dir ->
                let expected =
                  if j + dir < 0 || j + dir >= Array.length options then None
                  else
                    Candidate.make e.cand.tiling
                      (List.mapi
                         (fun q (n, t) ->
                           (n, if q = p then options.(j + dir) else t))
                         e.cand.tiles)
                    |> Candidate.key |> Hashtbl.find_opt by_key
                in
                let got =
                  Option.bind
                    (Space.neighbour e.ctx.grid e.rank ~axis:p ~dir)
                    (Hashtbl.find_opt by_rank)
                in
                if Option.is_some got then incr found;
                Alcotest.(check (option int))
                  (Printf.sprintf "%s: %s, %s %+d" name
                     (Candidate.to_string e.cand) axis dir)
                  expected got)
              [ -1; 1 ])
          e.cand.tiles)
      pool;
    Alcotest.(check bool) (name ^ ": some steps stay in the pool") true
      (!found > 0)
  in
  let d = Space.default_options in
  check "small_gemm" small_gemm;
  check "S3" s3;
  check ~reservoir:64 "D5/reservoir-64" d5;
  check ~options:{ d with rule3 = false } "small_gemm/no-rule3" small_gemm;
  check ~options:{ d with include_flat = false } "S3/no-flat" s3

let () =
  Alcotest.run "mcf_stream"
    [ ( "tiling-seq",
        [ Alcotest.test_case "seq = enumerate" `Quick
            test_seq_matches_enumerate;
          Alcotest.test_case "paper count" `Quick test_count_paper_example;
          Alcotest.test_case "first of sub-tiling" `Quick
            test_first_of_sub_tiling ] );
      ( "deep-chains",
        [ Alcotest.test_case "configs validate" `Quick
            test_deep_configs_validate;
          Alcotest.test_case "reference execution" `Quick
            test_deep_chain_reference_execution ] );
      ( "equivalence",
        [ Alcotest.test_case "stream = brute force" `Quick
            test_stream_equals_brute_force;
          Alcotest.test_case "structural prune events" `Quick
            test_structural_prune_events;
          Alcotest.test_case "deep funnel counts" `Quick
            test_deep_funnel_counts;
          Alcotest.test_case "streamed scores" `Quick
            test_streamed_scores_are_analytic ] );
      ( "reservoir",
        [ Alcotest.test_case "keeps best by estimate" `Quick
            test_reservoir_keeps_best_by_estimate;
          Alcotest.test_case "tuner winner unchanged" `Quick
            test_reservoir_tuner_winner_unchanged ] );
      ( "memo",
        [ Alcotest.test_case "counts every rule-3 point" `Quick
            test_memo_counts_every_rule3_point;
          Alcotest.test_case "summaries per enumeration" `Quick
            test_memo_summary_counts;
          Alcotest.test_case "slot table past its bound" `Quick
            test_memo_slot_bound ] );
      ( "encoding",
        [ Alcotest.test_case "neighbour = pool search" `Quick
            test_neighbour_matches_pool_search ] ) ]
