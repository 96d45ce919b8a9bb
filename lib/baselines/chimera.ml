let space_options =
  { Mcf_search.Space.default_options with
    include_flat = false;
    dead_loop_elim = false }

(* Chimera's objective: minimize data movement under its block execution
   layout; it accounts parallel occupancy (eq. (5)'s alpha) but not
   redundant computation.  The enumeration applies it to each point's
   closed-form breakdown. *)
let data_movement (b : Mcf_model.Perf.breakdown) = b.t_mem *. b.alpha

let tune spec (chain : Mcf_ir.Chain.t) =
  let rng =
    Mcf_util.Rng.create
      (Mcf_util.Hashing.seed ("chimera|" ^ chain.cname ^ spec.Mcf_gpu.Spec.name))
  in
  let clock = Mcf_gpu.Clock.create () in
  let run () =
    let points, _ =
      Mcf_search.Space.enumerate_points ~options:space_options
        ~objective:data_movement spec chain
    in
    Mcf_gpu.Clock.charge clock 2.0;
    match Mcf_search.Explore.search ~rng ~clock spec points with
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
