type breakdown = {
  t_mem : float;
  t_comp : float;
  alpha : float;
  t_total : float;
}

let of_aggregates (spec : Mcf_gpu.Spec.t) ~traffic_bytes ~flops_per_block
    ~blocks =
  let t_mem = traffic_bytes /. spec.mem_bw in
  let t_comp = flops_per_block *. blocks /. spec.peak_flops in
  let alpha = (blocks +. float_of_int spec.sm_count) /. blocks in
  { t_mem; t_comp; alpha; t_total = (t_mem +. t_comp) *. alpha }

let breakdown spec (l : Mcf_ir.Lower.t) =
  of_aggregates spec
    ~traffic_bytes:(Mcf_ir.Lower.total_traffic_bytes l)
    ~flops_per_block:(Mcf_ir.Lower.flops_per_block l)
    ~blocks:(float_of_int l.blocks)

let estimate spec l = (breakdown spec l).t_total
