let estimate_bytes (l : Mcf_ir.Lower.t) =
  List.fold_left
    (fun acc (r : Mcf_ir.Lower.residency_item) -> acc + (r.tile_bytes * r.mult))
    0 l.residency

let within_budget (spec : Mcf_gpu.Spec.t) ~slack l =
  float_of_int (estimate_bytes l)
  <= slack *. float_of_int spec.smem_per_block

(* [estimate_bytes (Lower.lower chain cand)] only depends on the loop
   *structure* of the program — which loops survive into the thread-block
   body, and where each producer's Compute lands — never on the placed
   Loads/Stores.  [Analytic.summarize] already replays that structure for
   eqs. (2)-(5) and keeps eq. (1)'s terms, so the closed form is the
   summary's footprint. *)
let footprint_of_candidate ?rule1 ?dead_loop_elim ~elem_bytes chain cand =
  let s = Analytic.summarize ?rule1 ?dead_loop_elim chain cand in
  let tiles, trips = Analytic.tile_arrays s cand in
  Analytic.footprint ~elem_bytes s ~tiles ~trips

let precheck_within_budget (spec : Mcf_gpu.Spec.t) ~slack ?rule1 ?dead_loop_elim
    chain cand =
  float_of_int
    (footprint_of_candidate ?rule1 ?dead_loop_elim ~elem_bytes:spec.elem_bytes
       chain cand)
  <= slack *. float_of_int spec.smem_per_block
