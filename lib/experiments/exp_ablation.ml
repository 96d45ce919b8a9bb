type variant = {
  vname : string;
  vdescription : string;
}

let variants =
  [ { vname = "full"; vdescription = "all MCFuser mechanisms on" };
    { vname = "no-flat"; vdescription = "deep tiling only (Chimera space)" };
    { vname = "no-dead-loop-elim";
      vdescription = "hoisting without trivial-loop removal" };
    { vname = "no-hoisting"; vdescription = "memory statements not hoisted" };
    { vname = "no-alpha"; vdescription = "model without eq. (5) slowdown" };
    { vname = "model-only"; vdescription = "no measurement, trust the model" };
    { vname = "no-rule12"; vdescription = "structural pruning off" } ]

type cell = {
  kernel_time_s : float option;
  tuning_s : float option;
}

let title = "Ablation: MCFuser design choices switched off in isolation"

let workload_mix () =
  (List.filter_map
     (fun name ->
       Option.map Mcf_workloads.Configs.gemm_chain
         (Mcf_workloads.Configs.find_gemm name))
     [ "G4"; "G7"; "G10" ])
  @ List.filter_map
      (fun name ->
        Option.map Mcf_workloads.Configs.attention
          (Mcf_workloads.Configs.find_attention name))
      [ "S2"; "S5"; "S9" ]

(* Pick the model's argmin over the whole space, one final measurement.
   The argmin is the first minimum of the enumeration's own estimates;
   only the winner is ever lowered. *)
let model_only spec chain =
  let entries, scores, _ = Mcf_search.Space.enumerate_scored spec chain in
  let best =
    Mcf_util.Listx.min_by
      (fun (_, (est, _)) -> est)
      (List.combine entries (Array.to_list scores))
  in
  match best with
  | None -> { kernel_time_s = None; tuning_s = None }
  | Some (e, _) -> (
    match Mcf_search.Measure.time (Mcf_search.Measure.create spec) e with
    | None -> { kernel_time_s = None; tuning_s = Some 4.0 }
    | Some t -> { kernel_time_s = Some t; tuning_s = Some 5.2 })

let tune_no_alpha spec chain =
  Mcf_search.Tuner.tune
    ~objective:(fun (b : Mcf_model.Perf.breakdown) -> b.t_mem +. b.t_comp)
    spec chain

let run_variant spec chain v =
  let cell = function
    | Ok (o : Mcf_search.Tuner.outcome) ->
      { kernel_time_s = Some o.kernel_time_s;
        tuning_s = Some o.tuning_virtual_s }
    | Error Mcf_search.Tuner.No_viable_candidate ->
      { kernel_time_s = None; tuning_s = None }
  in
  let tuned ?options () = cell (Mcf_search.Tuner.tune ?options spec chain) in
  let opts = Mcf_search.Space.default_options in
  match v.vname with
  | "full" -> tuned ()
  | "no-flat" -> tuned ~options:{ opts with include_flat = false } ()
  | "no-dead-loop-elim" ->
    tuned ~options:{ opts with dead_loop_elim = false } ()
  | "no-hoisting" -> tuned ~options:{ opts with hoisting = false } ()
  | "no-alpha" -> cell (tune_no_alpha spec chain)
  | "model-only" -> model_only spec chain
  | "no-rule12" -> tuned ~options:{ opts with rule1 = false; rule2 = false } ()
  | _ -> invalid_arg "unknown variant"

let compute spec =
  List.map
    (fun (chain : Mcf_ir.Chain.t) ->
      let short =
        match String.index_opt chain.cname '_' with
        | Some i -> String.sub chain.cname 0 i
        | None -> chain.cname
      in
      ( short,
        List.map (fun v -> (v.vname, run_variant spec chain v)) variants ))
    (workload_mix ())

let render spec =
  let results = compute spec in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%s (on %s)\n\n" title spec.Mcf_gpu.Spec.name);
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "  %-18s %s\n" v.vname v.vdescription))
    variants;
  Buffer.add_char buf '\n';
  let tbl =
    Mcf_util.Table.create
      ~headers:
        ("workload"
        :: List.concat_map (fun v -> [ v.vname; "tune" ]) variants)
  in
  List.iter
    (fun (wname, cells) ->
      let full_time =
        match List.assoc "full" cells with
        | { kernel_time_s = Some t; _ } -> t
        | _ -> nan
      in
      let cell_strs =
        List.concat_map
          (fun v ->
            let c = List.assoc v.vname cells in
            [ (match c.kernel_time_s with
              | Some t ->
                if v.vname = "full" then
                  Printf.sprintf "%.1fus" (t *. 1e6)
                else Printf.sprintf "%.2fx" (t /. full_time)
              | None -> "-");
              (match c.tuning_s with
              | Some t -> Mcf_util.Table.fmt_time_s t
              | None -> "-") ])
          variants
      in
      Mcf_util.Table.add_row tbl (wname :: cell_strs))
    results;
  Buffer.add_string buf (Mcf_util.Table.render tbl);
  Buffer.add_string buf
    "kernel-time cells are slowdowns relative to the full system (1.00x = \
     no effect on that workload); 'tune' is virtual tuning time\n";
  Buffer.contents buf
