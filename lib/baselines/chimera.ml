let space_options =
  { Mcf_search.Space.default_options with
    include_flat = false;
    dead_loop_elim = false }

(* Chimera's objective: minimize data movement under its block execution
   layout; it accounts parallel occupancy but not redundant computation.
   Evaluated closed-form (no lowering) — traffic and block count from
   [Analytic] are bit-equal to the lowered walk's. *)
let data_movement_estimator (spec : Mcf_gpu.Spec.t) (e : Mcf_search.Space.entry) =
  let ctx = e.Mcf_search.Space.ctx in
  let ev =
    Mcf_model.Analytic.eval_candidate ~rule1:ctx.Mcf_search.Space.rule1
      ~dead_loop_elim:ctx.Mcf_search.Space.dead_loop_elim
      ~hoisting:ctx.Mcf_search.Space.hoisting
      ~elem_bytes:ctx.Mcf_search.Space.elem_bytes ctx.Mcf_search.Space.chain
      e.cand
  in
  let blocks = ev.Mcf_model.Analytic.blocks in
  let alpha = (blocks +. float_of_int spec.sm_count) /. blocks in
  ev.Mcf_model.Analytic.traffic_bytes /. spec.mem_bw *. alpha

let tune spec (chain : Mcf_ir.Chain.t) =
  let seed =
    Int64.to_int
      (Int64.logand
         (Mcf_util.Hashing.fnv1a64
            ("chimera|" ^ chain.cname ^ spec.Mcf_gpu.Spec.name))
         0x3FFFFFFFFFFFFFFFL)
  in
  let rng = Mcf_util.Rng.create seed in
  let clock = Mcf_gpu.Clock.create () in
  let run () =
    let entries, scores, _ =
      Mcf_search.Space.enumerate_scored ~options:space_options spec chain
    in
    Mcf_gpu.Clock.charge clock 2.0;
    match
      Mcf_search.Explore.run ~estimator:data_movement_estimator ~scores ~rng
        ~clock spec entries
    with
    | None -> Error (Backend.Unsupported "no viable candidate")
    | Some { best; best_time_s; _ } -> (
      match Mcf_codegen.Compile.compile spec (Mcf_search.Space.lowered best) with
      | Error e -> Error (Backend.Unsupported (Mcf_codegen.Compile.string_of_error e))
      | Ok kernel ->
        Ok
          { Backend.backend = "MCFuser-Chimera";
            kernels = [ kernel ];
            time_s = best_time_s;
            tuning_virtual_s = Mcf_gpu.Clock.elapsed_s clock;
            tuning_wall_s = 0.0;
            fused = true;
            note = None })
  in
  let result, wall = Mcf_gpu.Clock.with_wall_clock run in
  Result.map (fun (o : Backend.outcome) -> { o with tuning_wall_s = wall }) result

let backend = { Backend.name = "MCFuser-Chimera"; tune }
