(* Self-attention fusion: MCFuser vs the attention-specific alternatives.

     dune exec examples/attention_fusion.exe

   Takes the BERT-Base attention module (S2 of Table III), shows why it is
   memory-bound, fuses it with MCFuser, and compares against PyTorch
   (eager, unfused), FlashAttention (handcrafted kernel) and
   MCFuser-Chimera (deep-tiling search).  Also prints the Triton kernel
   that MCFuser would hand to the GPU toolchain. *)

let () =
  let cfg = Option.get (Mcf_workloads.Configs.find_attention "S2") in
  let chain = Mcf_workloads.Configs.attention cfg in
  let spec = Mcf_gpu.Spec.a100 in
  Printf.printf
    "workload: %s self-attention — %d heads, seq %d, head dim %d\n\n"
    cfg.network cfg.heads cfg.sm cfg.sk;

  let backends =
    [ Mcf_baselines.Pytorch.backend;
      Mcf_baselines.Flash_attention.backend;
      Mcf_baselines.Chimera.backend;
      Mcf_baselines.Mcfuser_backend.backend ]
  in
  let tbl =
    Mcf_util.Table.create ~headers:[ "system"; "time"; "vs PyTorch"; "tuning" ]
  in
  let pytorch = ref nan in
  List.iter
    (fun (b : Mcf_baselines.Backend.t) ->
      match b.tune spec chain with
      | Error (Mcf_baselines.Backend.Unsupported msg) ->
        Mcf_util.Table.add_row tbl [ b.name; "-"; "-"; msg ]
      | Ok o ->
        if b.name = "PyTorch" then pytorch := o.time_s;
        Mcf_util.Table.add_row tbl
          [ b.name;
            Mcf_util.Table.fmt_time_s o.time_s;
            Mcf_util.Table.fmt_float (!pytorch /. o.time_s) ^ "x";
            Mcf_util.Table.fmt_time_s o.tuning_virtual_s ])
    backends;
  print_string (Mcf_util.Table.render tbl);

  (* the winning schedule and its generated kernel *)
  match Mcf_search.Tuner.tune spec chain with
  | Error _ -> ()
  | Ok o ->
    Printf.printf "\nwinning schedule: %s%s\n\n"
      (Mcf_ir.Candidate.to_string o.best.cand)
      (if (Mcf_search.Space.lowered o.best).online_softmax then
         "  (online softmax: the N dimension is tiled)"
       else "");
    print_string (Mcf_search.Tuner.pseudo_code o);
    Printf.printf "\ngenerated Triton kernel:\n\n";
    print_string (Mcf_search.Tuner.triton_source o);
    Printf.printf "\n%s\n"
      (Mcf_codegen.Emit.launch_stub
         (Mcf_ir.Lower.program (Mcf_search.Space.lowered o.best)))
