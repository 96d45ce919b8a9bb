let name = "MCFuser"

let tune spec chain =
  match Mcf_search.Tuner.tune spec chain with
  | Error Mcf_search.Tuner.No_viable_candidate ->
    Error (Backend.Unsupported "no viable candidate in the search space")
  | Ok o ->
    Ok
      { Backend.backend = name;
        kernels = [ o.kernel ];
        time_s = o.kernel_time_s;
        tuning_virtual_s = o.tuning_virtual_s;
        tuning_wall_s = o.tuning_wall_s;
        fused = true;
        note = None }

let backend = { Backend.name; tune }
