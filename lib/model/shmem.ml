let estimate_bytes (l : Mcf_ir.Lower.t) =
  List.fold_left
    (fun acc (r : Mcf_ir.Lower.residency_item) -> acc + (r.tile_bytes * r.mult))
    0 l.residency

let within_budget (spec : Mcf_gpu.Spec.t) ~slack l =
  float_of_int (estimate_bytes l)
  <= slack *. float_of_int spec.smem_per_block

(* [estimate_bytes (Lower.lower chain cand)] sums the skeleton's
   residency items over the candidate's tiles and trips: the closed form
   is the compiled skeleton's footprint. *)
let footprint_of_candidate ?rule1 ?dead_loop_elim ~elem_bytes chain cand =
  let s = Analytic.summarize ?rule1 ?dead_loop_elim chain cand in
  let tiles, trips = Mcf_ir.Skeleton.tile_arrays (Analytic.skeleton s) cand in
  Analytic.footprint ~elem_bytes s ~tiles ~trips

let precheck_within_budget (spec : Mcf_gpu.Spec.t) ~slack ?rule1 ?dead_loop_elim
    chain cand =
  float_of_int
    (footprint_of_candidate ?rule1 ?dead_loop_elim ~elem_bytes:spec.elem_bytes
       chain cand)
  <= slack *. float_of_int spec.smem_per_block
