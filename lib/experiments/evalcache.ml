let table : (string, (Mcf_baselines.Backend.outcome, Mcf_baselines.Backend.failure) result) Hashtbl.t =
  Hashtbl.create 64

let run (backend : Mcf_baselines.Backend.t) (spec : Mcf_gpu.Spec.t)
    (chain : Mcf_ir.Chain.t) =
  let key =
    Printf.sprintf "%s|%s|%s" backend.name spec.name chain.Mcf_ir.Chain.cname
  in
  match Hashtbl.find_opt table key with
  | Some r -> r
  | None ->
    let r = backend.tune spec chain in
    Hashtbl.add table key r;
    r
