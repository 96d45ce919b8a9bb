open Mcf_ir
module Gen = Gen

type verdict = Pass | Skip of string | Fail of string

type t = {
  name : string;
  doc : string;
  every : int;
      (** Run on every [every]-th case (1 = all) — expensive oracles
          subsample deterministically by case id. *)
  check : Gen.case -> verdict;
}

(* --- test hooks ----------------------------------------------------------- *)

(* Transform applied to the freshly-built program before the interpreter
   oracle executes it.  Tests install a deliberately unsound pass here to
   prove the oracle catches it and the shrinker minimizes it. *)
let interp_transform : (Program.t -> Program.t) ref = ref Fun.id

(* The canonical synthetic bug: "dead-loop elimination" applied to live
   loops.  Splicing a loop whose trip count is 1 is the legitimate
   optimization; splicing one that actually iterates drops all but one
   tile of work — a real miscompile the interpreter must flag, either as
   a numeric mismatch or as an uninitialized-tile read. *)
let drop_live_loops (p : Program.t) =
  let rec splice nodes =
    List.concat_map
      (function
        | Program.Stmt s -> [ Program.Stmt s ]
        | Program.Loop l ->
          if l.Program.extent > 1 then splice l.Program.body
          else begin
            l.Program.body <- splice l.Program.body;
            [ Program.Loop l ]
          end)
      nodes
  in
  p.Program.roots <- splice p.Program.roots;
  p

(* --- the count check ---------------------------------------------------------

   Eqs. (3) and (4) are tile size x trip count per placed statement; the
   interpreter's loop walk counts both as it would execute them
   ([Interp.count]).  A lowering's accesses and computes must equal those
   counts in program order on a valid program (an invalid one executes
   what the verdict rejects).  Counts cannot see residency, so each
   resident tile's Rule-2 multiplier is checked against the producer's
   Compute path, found by its statement. *)

let reference_multiplier (t : Program.t) placed (ts : Chain.tensor_spec) =
  match Chain.producer_of t.chain ts with
  | None -> 1
  | Some p -> (
    let is_p = function Program.Compute b -> b.bname = p.bname | _ -> false in
    match List.find_opt (fun (_, s) -> is_p s) placed with
    | None -> 1
    | Some (path, _) ->
      (* The tensor's axes iterating below the producer's reduction. *)
      let rec scan seen mult = function
        | [] -> mult
        | a :: rest ->
          let seen = seen || Axis.mem a p.reduce_axes in
          let own = seen && Axis.mem a ts.taxes in
          scan seen (if own then mult * Candidate.trip t.cand a else mult) rest
      in
      scan false 1 path)

let count_mismatches (l : Lower.t) =
  let p = Lower.program l in
  let placed = Program.placed_stmts p in
  let access (c : Mcf_interp.Interp.count) =
    match c.stmt with
    | Program.Load (ts, _) -> Some (ts.tname, Lower.Dload, c.moved, c.execs)
    | Program.Store (ts, _) -> Some (ts.tname, Lower.Dstore, c.moved, c.execs)
    | Program.Compute _ | Program.Epilogue _ -> None
  in
  (* A contraction's FLOPs are twice its volume; an epilogue's are the
     analytic oracle's to check. *)
  let compute (c : Mcf_interp.Interp.count) =
    match c.stmt with
    | Program.Compute b ->
      Some (b.bname, `Contraction, c.execs, 2.0 *. float_of_int c.volume)
    | Program.Epilogue b -> Some (b.bname, `Epilogue, c.execs, 0.0)
    | Program.Load _ | Program.Store _ -> None
  in
  let counted =
    match l.validity with
    | Error _ -> []
    | Ok () ->
      let counts = Mcf_interp.Interp.count p in
      [ ( "accesses",
          List.map
            (fun (a : Lower.access) ->
              (a.tensor.tname, a.direction, a.tile_elems * a.trips, a.trips))
            l.accesses
          = List.filter_map access counts );
        ( "computes",
          List.map
            (fun (c : Lower.compute_info) ->
              ( c.block.bname,
                c.kind,
                c.ctrips,
                if c.kind = `Contraction then c.flops_per_exec else 0.0 ))
            l.computes
          = List.filter_map compute counts );
        ( "stmt_trips_total",
          l.stmt_trips_total
          = List.fold_left
              (fun acc (c : Mcf_interp.Interp.count) -> acc + c.execs)
              0 counts ) ]
  in
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    (( "residency multipliers",
       List.for_all
         (fun (r : Lower.residency_item) ->
           r.mult = reference_multiplier p placed r.rtensor)
         l.residency )
    :: counted)

(* --- helpers --------------------------------------------------------------- *)

let build_program (c : Gen.case) =
  Program.build ~rule1:c.rule1 ~dead_loop_elim:c.dle ~hoisting:c.hoist c.chain
    c.cand

let lower_case (c : Gen.case) =
  Lower.lower ~rule1:c.rule1 ~dead_loop_elim:c.dle ~hoisting:c.hoist
    ~elem_bytes:c.elem_bytes c.chain c.cand

(* Cap the interpreter's workload so a single pathological case cannot eat
   the whole budget; the bound is on deterministic padded work, so the
   skip set is identical on every machine. *)
let interp_work_cap = 40_000_000.0

(* --- oracle 1: interpreter vs reference ----------------------------------- *)

let max_abs t =
  Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0
    (Mcf_tensor.Tensor.data t)

let check_interp (c : Gen.case) =
  let p = build_program c in
  match Skeleton.validate p with
  | Error e -> Skip ("invalid schedule: " ^ Program.string_of_invalid e)
  | Ok () ->
    if Gen.interp_work c > interp_work_cap then Skip "work above interp cap"
    else begin
      let p = !interp_transform p in
      let inputs = Gen.inputs c in
      let reference = Mcf_interp.Interp.reference c.chain ~inputs in
      match Mcf_interp.Interp.run p ~inputs with
      | exception Mcf_interp.Interp.Uninitialized_tile m ->
        Fail ("uninitialized tile: " ^ m)
      | exception Invalid_argument m -> Fail ("interp rejected inputs: " ^ m)
      | out ->
        let diff = Mcf_tensor.Tensor.max_abs_diff out reference in
        let tol = 1e-6 *. (1.0 +. max_abs reference) in
        if diff <= tol then Pass
        else
          Fail
            (Printf.sprintf "run vs reference diverge: |diff|=%g > tol %g"
               diff tol)
    end

(* --- oracle 2: analytic model vs lowering vs the counts ------------------- *)

(* The candidate with the trip=1 bit flipped, where the axis's size
   allows (the smallest tile option for a trip-1 axis, the full extent
   otherwise), on every axis whose bit [memo]'s key leaves out: the grid
   axes, by the memo's own account.  Same key, different candidate. *)
let grid_twin memo (chain : Chain.t) (cand : Candidate.t) =
  let keep =
    Mcf_model.Analytic.Memo.(relevant memo ~sid:(sid memo cand.tiling))
  in
  Candidate.make cand.tiling
    (List.mapi
       (fun i (a : Axis.t) ->
         let t = Candidate.tile cand a in
         if keep land (1 lsl i) <> 0 then (a.name, t)
         else if Candidate.trip cand a = 1 then
           (a.name, List.hd (Candidate.tile_options a.size))
         else (a.name, a.size))
       chain.axes)

let check_analytic (c : Gen.case) =
  let ev =
    Mcf_model.Analytic.eval_candidate ~rule1:c.rule1 ~dead_loop_elim:c.dle
      ~hoisting:c.hoist ~elem_bytes:c.elem_bytes c.chain c.cand
  in
  let lw = lower_case c in
  let mismatches =
    List.map
      (fun field -> "lowering's " ^ field ^ " differ from the counts")
      (count_mismatches lw)
    @ List.filter_map
      (fun (field, a, b) ->
        if a = b then None
        else Some (Printf.sprintf "%s: analytic %h <> lowered %h" field a b))
      [ ("bytes_per_block", ev.bytes_per_block, Lower.bytes_per_block lw);
        ("flops_per_block", ev.flops_per_block, Lower.flops_per_block lw);
        ("blocks", ev.blocks, float_of_int lw.Lower.blocks);
        ("traffic_bytes", ev.traffic_bytes, Lower.total_traffic_bytes lw)
      ]
  in
  (* The memoized path, through a memo the grid twin filled first: the
     candidate then gets the twin's summary, so a key that leaves out a
     bit the summary reads shows up as a mismatch. *)
  let mismatches =
    let memo =
      Mcf_model.Analytic.Memo.create ~rule1:c.rule1 ~dead_loop_elim:c.dle
        ~hoisting:c.hoist ~elem_bytes:c.elem_bytes c.chain
    in
    ignore
      (Mcf_model.Analytic.Memo.estimate memo c.device
         (grid_twin memo c.chain c.cand));
    let got = Mcf_model.Analytic.Memo.estimate memo c.device c.cand in
    let want = (Mcf_model.Perf.breakdown c.device lw).t_total in
    if Float.equal got want then mismatches
    else
      Printf.sprintf "memo estimate: %h <> lowered %h" got want :: mismatches
  in
  if mismatches = [] then Pass else Fail (String.concat "; " mismatches)

(* --- oracle 3: shared-memory precheck exactness ---------------------------- *)

let check_shmem (c : Gen.case) =
  let closed =
    Mcf_model.Shmem.footprint_of_candidate ~rule1:c.rule1
      ~dead_loop_elim:c.dle ~elem_bytes:c.elem_bytes c.chain c.cand
  in
  let lw = lower_case c in
  let walked = Mcf_model.Shmem.estimate_bytes lw in
  if closed <> walked then
    Fail
      (Printf.sprintf "footprint: closed-form %d <> lowered %d" closed walked)
  else begin
    let slack = 1.2 in
    let pre =
      Mcf_model.Shmem.precheck_within_budget c.device ~slack ~rule1:c.rule1
        ~dead_loop_elim:c.dle c.chain c.cand
    in
    let full = Mcf_model.Shmem.within_budget c.device ~slack lw in
    if pre = full then Pass
    else
      Fail
        (Printf.sprintf "budget verdicts diverge: precheck %b, lowered %b" pre
           full)
  end

(* --- oracle 4: pruning soundness ------------------------------------------- *)

(* Rule 2's promise is structural: a tiling it keeps must lower (under
   rule-1 canonical execution, whose per-block program is what the rule
   inspects) with exactly one resident tile per intermediate.  The
   analytic oracle holds the lowering's multipliers to the program; rule
   4's precheck is the shmem oracle's to check. *)
let check_pruning (c : Gen.case) =
  if not (Mcf_search.Space.rule2_rejects c.chain c.cand.Candidate.tiling) then
  begin
    let lw = Lower.lower ~rule1:true ~elem_bytes:c.elem_bytes c.chain c.cand in
    let blowup =
      List.filter_map
        (fun (r : Lower.residency_item) ->
          match r.rtensor.storage with
          | Chain.Intermediate when r.mult > 1 ->
            Some (Printf.sprintf "%s x%d" r.rtensor.tname r.mult)
          | Chain.Intermediate | Chain.Input | Chain.Output -> None)
        lw.residency
    in
    if blowup = [] then Pass
    else
      Fail
        ("rule 2 kept a tiling with resident blow-up: "
        ^ String.concat ", " blowup)
  end
  else Pass

(* --- oracle 5: tuner determinism ------------------------------------------- *)

let tuner_params =
  { Mcf_search.Explore.default_params with
    population = 16;
    top_k = 4;
    min_generations = 2;
    max_generations = 4 }

let tune (c : Gen.case) =
  Mcf_search.Tuner.tune ~params:tuner_params c.device c.chain

let outcome_fingerprint (o : Mcf_search.Tuner.outcome) =
  Printf.sprintf "best=%s time=%h funnel=%s stats=%d/%d/%d"
    (Candidate.key o.best.Mcf_search.Space.cand)
    o.kernel_time_s
    (Mcf_util.Json.to_string
       (Mcf_search.Space.funnel_json o.funnel))
    o.search_stats.Mcf_search.Explore.generations
    o.search_stats.Mcf_search.Explore.estimated
    o.search_stats.Mcf_search.Explore.measured

let fingerprint = function
  | Ok o -> outcome_fingerprint o
  | Error Mcf_search.Tuner.No_viable_candidate -> "no-viable-candidate"

let with_jobs n f =
  let saved = Mcf_util.Pool.jobs () in
  Mcf_util.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Mcf_util.Pool.set_jobs saved) f

let check_tuner (c : Gen.case) =
  if Gen.n_blocks c.cspec > 2 then Skip "tuner oracle runs on <= 2 blocks"
  else begin
    let seq = with_jobs 1 (fun () -> fingerprint (tune c)) in
    let par = with_jobs 4 (fun () -> fingerprint (tune c)) in
    if seq <> par then
      Fail (Printf.sprintf "jobs 1 vs 4 diverge:\n  %s\n  %s" seq par)
    else if Mcf_obs.Recorder.enabled () then
      (* A recording is already in flight (e.g. the fuzz run itself is
         being recorded); don't clobber it just to re-check invariance. *)
      Pass
    else begin
      Mcf_obs.Recorder.start ();
      let rec_fp =
        Fun.protect
          ~finally:(fun () ->
            Mcf_obs.Recorder.stop ();
            Mcf_obs.Recorder.reset ())
          (fun () -> with_jobs 1 (fun () -> fingerprint (tune c)))
      in
      if seq = rec_fp then Pass
      else
        Fail
          (Printf.sprintf "recording on vs off diverge:\n  %s\n  %s" seq
             rec_fp)
    end
  end

(* --- oracle 6: measurement-cache transparency ------------------------------ *)

(* A cached measurement must be indistinguishable from a fresh Sim.run:
   the cold engine pass must equal a direct compile+simulate bit-for-bit
   (including failure verdicts), the warm pass must return the same bits
   as a hit, and the hit must actually skip the simulator. *)
let check_measure_cache (c : Gen.case) =
  let ctx =
    { Mcf_search.Space.chain = c.chain;
      rule1 = c.rule1;
      dead_loop_elim = c.dle;
      hoisting = c.hoist;
      elem_bytes = c.elem_bytes;
      grid = Mcf_search.Space.(grid default_options c.chain) }
  in
  (* Fresh entries per pass: each carries its own lazily-forced lowering
     cell, so no pass reuses another's work by accident. *)
  let entry () = Mcf_search.Space.make_entry ctx c.cand in
  let direct =
    match
      Mcf_codegen.Compile.compile c.device
        (Mcf_search.Space.lowered (entry ()))
    with
    | Error _ -> None
    | Ok k -> (
      match Mcf_gpu.Sim.run c.device k with
      | Error _ -> None
      | Ok v -> Some v.time_s)
  in
  let cache = Mcf_search.Measure.cache_create () in
  let engine = Mcf_search.Measure.create ~cache c.device in
  let clock = Mcf_gpu.Clock.create () in
  let run_once () =
    let got = ref None in
    Mcf_search.Measure.run_batch engine ~clock ~compile_cost_s:0.1 ~repeats:1
      ~commit:(fun _ r -> got := Some r)
      [ (0, entry ()) ];
    !got
  in
  let bits = Option.map (Option.map Int64.bits_of_float) in
  let show = function
    | None -> "<no commit>"
    | Some None -> "unmeasurable"
    | Some (Some t) -> Printf.sprintf "%h" t
  in
  let cold = run_once () in
  let sims_before_warm = Mcf_obs.Metrics.counter_value "sim.runs" in
  let warm = run_once () in
  let sims_after_warm = Mcf_obs.Metrics.counter_value "sim.runs" in
  if bits cold <> bits (Some direct) then
    Fail
      (Printf.sprintf "cold engine pass diverges from direct Sim.run: %s vs %s"
         (show cold)
         (show (Some direct)))
  else if bits warm <> bits cold then
    Fail
      (Printf.sprintf "warm cache hit diverges from cold pass: %s vs %s"
         (show warm) (show cold))
  else if sims_after_warm <> sims_before_warm then
    Fail
      (Printf.sprintf "warm cache hit still ran the simulator (%d fresh runs)"
         (sims_after_warm - sims_before_warm))
  else Pass

(* --- oracle 7: emitted-kernel well-formedness ------------------------------ *)

let check_emit (c : Gen.case) =
  (* Rule-1 canonical execution: all spatial axes grid-bound, which is the
     regime the emitter's name scheme assumes (no in-block loop over "m"
     shadowing the softmax running max). *)
  let p = Program.build ~rule1:true ~dead_loop_elim:c.dle ~hoisting:c.hoist
      c.chain c.cand
  in
  match Skeleton.validate p with
  | Error e -> Skip ("invalid schedule: " ^ Program.string_of_invalid e)
  | Ok () -> (
    match Mcf_codegen.Emit.check p with
    | Ok () -> Pass
    | Error m -> Fail ("emitted kernel ill-formed: " ^ m))

(* --- registry -------------------------------------------------------------- *)

let all =
  [ { name = "interp";
      doc = "Interp.run on the built schedule agrees with Interp.reference";
      every = 1;
      check = check_interp };
    { name = "analytic";
      doc = "closed-form Analytic equals the lowered walk bit-for-bit";
      every = 1;
      check = check_analytic };
    { name = "shmem";
      doc = "Shmem precheck equals the lowered eq. (1) estimate exactly";
      every = 1;
      check = check_shmem };
    { name = "pruning";
      doc = "no pruning precheck rejects what the lowered pipeline accepts";
      every = 1;
      check = check_pruning };
    { name = "tuner";
      doc = "Tuner.tune is bit-identical across jobs 1/4 and recording on/off";
      every = 25;
      check = check_tuner };
    { name = "measure-cache";
      doc = "a cached measurement equals a fresh Sim.run bit-for-bit";
      every = 5;
      check = check_measure_cache };
    { name = "emit";
      doc = "emitted Triton kernel is well-formed (scopes, def-before-use)";
      every = 1;
      check = check_emit }
  ]

let by_name n = List.find_opt (fun o -> o.name = n) all

let names () = List.map (fun o -> o.name) all
