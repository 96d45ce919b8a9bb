type check = { schedule : string; max_diff : float; pass : bool }

let title = "Correctness sweep: tuned schedules vs reference operators"

(* Scaled-down instances preserving each workload's structure. *)
let scaled_workloads () =
  let scale d = min d 96 in
  let gemms =
    List.map
      (fun (g : Mcf_workloads.Configs.gemm_config) ->
        ( g.gname,
          Mcf_ir.Chain.gemm_chain
            ~batch:(min g.gbatch 2)
            ~m:(scale g.gm) ~n:(scale g.gn) ~k:(scale g.gk) ~h:(scale g.gh)
            () ))
      Mcf_workloads.Configs.gemm_chains
  in
  let attns =
    List.map
      (fun (s : Mcf_workloads.Configs.attention_config) ->
        ( s.sname,
          Mcf_ir.Chain.attention ~heads:(min s.heads 2) ~m:(scale s.sm)
            ~n:(scale s.sn) ~k:(min s.sk 48) ~h:(min s.sh 48) () ))
      Mcf_workloads.Configs.attentions
  in
  let extras =
    [ ("MLP", Mcf_ir.Chain.mlp_chain ~m:96 ~n:96 ~k:64 ~h:64 ());
      ("3GEMM", Mcf_ir.Chain.gemm_chain3 ~m:64 ~n:48 ~k:32 ~h:48 ~p:32 ());
      ( "CONV",
        Mcf_ir.Chain.conv_pointwise_chain ~height:18 ~width:18 ~c_in:4
          ~c_mid:8 ~c_out:8 ~ksize:3 () ) ]
  in
  gemms @ attns @ extras

let check rng spec (chain : Mcf_ir.Chain.t) =
  match Mcf_search.Tuner.tune spec chain with
  | Error Mcf_search.Tuner.No_viable_candidate -> None
  | Ok o ->
    let inputs =
      List.map
        (fun (ts : Mcf_ir.Chain.tensor_spec) ->
          let dims = List.map (fun (a : Mcf_ir.Axis.t) -> a.size) ts.taxes in
          let shape =
            Array.of_list (if chain.batch > 1 then chain.batch :: dims else dims)
          in
          (ts.tname, Mcf_tensor.Tensor.random rng shape))
        (Mcf_ir.Chain.input_tensors chain)
    in
    let got =
      Mcf_interp.Interp.run ~inputs
        (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best))
    in
    let want = Mcf_interp.Interp.reference chain ~inputs in
    Some
      { schedule = Mcf_ir.Candidate.to_string o.best.cand;
        max_diff = Mcf_tensor.Tensor.max_abs_diff got want;
        pass = Mcf_tensor.Tensor.approx_equal ~tol:1e-3 got want }

let compute (spec : Mcf_gpu.Spec.t) =
  let rng = Mcf_util.Rng.create 31415926 in
  List.map
    (fun (vname, chain) ->
      ( vname,
        match check rng spec chain with
        | Some c -> c
        | None -> { schedule = "-"; max_diff = nan; pass = false } ))
    (scaled_workloads ())

let render spec =
  let rows = compute spec in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "%s\n(scaled instances, tuned on %s, interpreted on random inputs)\n\n"
       title spec.Mcf_gpu.Spec.name);
  let tbl =
    Mcf_util.Table.create ~headers:[ "workload"; "winning schedule"; "max |diff|"; "result" ]
  in
  List.iter
    (fun (vname, r) ->
      Mcf_util.Table.add_row tbl
        [ vname; r.schedule;
          (if Float.is_nan r.max_diff then "-" else Printf.sprintf "%.2e" r.max_diff);
          (if r.pass then "PASS" else "FAIL") ])
    rows;
  Buffer.add_string buf (Mcf_util.Table.render tbl);
  let failures = List.filter (fun (_, r) -> not r.pass) rows in
  Buffer.add_string buf
    (if failures = [] then
       Printf.sprintf "all %d schedules numerically exact\n" (List.length rows)
     else Printf.sprintf "%d FAILURES\n" (List.length failures));
  Buffer.contents buf
