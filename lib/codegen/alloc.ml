open Mcf_ir

type detail = {
  tiles_bytes : int;
  double_buffer_bytes : int;
  softmax_bytes : int;
  total_bytes : int;
}

(* Bank-conflict padding added to each tile row (16 B = 8 fp16 lanes). *)
let row_pad_bytes = 16

(* Padded bytes of one tile: rows x (row bytes + bank padding). *)
let padded_tile_bytes (l : Lower.t) (ts : Chain.tensor_spec) =
  let cand = l.program.Program.cand in
  let row_elems =
    match List.rev ts.taxes with
    | [] -> 1
    | last :: _ -> Candidate.tile cand last
  in
  let total_elems =
    List.fold_left (fun acc a -> acc * Candidate.tile cand a) 1 ts.taxes
  in
  let rows = total_elems / max 1 row_elems in
  rows * ((row_elems * l.elem_bytes) + row_pad_bytes)

let softmax_stats_bytes (l : Lower.t) =
  let cand = l.program.Program.cand in
  let chain = l.program.Program.chain in
  Mcf_util.Listx.sum_by
    (fun (b : Chain.block) ->
      match b.Chain.epilogue with
      | Chain.Softmax { saxis; _ } ->
        let rows =
          List.fold_left
            (fun acc (a : Axis.t) ->
              if Axis.equal a saxis then acc else acc * Candidate.tile cand a)
            1 b.out.taxes
        in
        (* running max + running sum + correction temp, fp32 each *)
        float_of_int (3 * 4 * rows)
      | Chain.No_epilogue | Chain.Scale _ | Chain.Unary _ -> 0.0)
    chain.blocks
  |> int_of_float

(* tl.dot accumulators live in the register file; a 128 x 256 fp32
   accumulator (32 Ki elements) spread over the block's threads still fits
   the 256 KiB register budget. *)
let register_accumulator_elems = 32768

let lives_in_registers (l : Lower.t) (r : Lower.residency_item) =
  let cand = l.program.Program.cand in
  let elems =
    List.fold_left (fun acc a -> acc * Candidate.tile cand a)
      1 r.rtensor.taxes
  in
  r.rtensor.storage = Chain.Output
  && elems * r.mult <= register_accumulator_elems

let detail (spec : Mcf_gpu.Spec.t) (l : Lower.t) =
  let tiles_bytes =
    List.fold_left
      (fun acc (r : Lower.residency_item) ->
        if lives_in_registers l r then acc
        else acc + (padded_tile_bytes l r.rtensor * r.mult))
      0 l.residency
  in
  let db_candidate =
    List.fold_left
      (fun acc (r : Lower.residency_item) ->
        if r.double_buffered then acc + (padded_tile_bytes l r.rtensor * r.mult)
        else acc)
      0 l.residency
  in
  let softmax_bytes = softmax_stats_bytes l in
  (* Try num_stages=2 for streamed inputs; fall back to single buffering
     when the pipelined allocation would not launch. *)
  let with_db = tiles_bytes + db_candidate + softmax_bytes in
  let double_buffer_bytes =
    if with_db <= spec.smem_per_block then db_candidate else 0
  in
  let total_bytes = tiles_bytes + double_buffer_bytes + softmax_bytes in
  { tiles_bytes; double_buffer_bytes; softmax_bytes; total_bytes }

let actual_bytes spec l = (detail spec l).total_bytes
