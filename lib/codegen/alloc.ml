open Mcf_ir

type detail = {
  tiles_bytes : int;
  double_buffer_bytes : int;
  softmax_bytes : int;
  total_bytes : int;
}

(* Bank-conflict padding added to each tile row (16 B = 8 fp16 lanes). *)
let row_pad_bytes = 16

(* Padded bytes of one resident tile: rows x (row bytes + bank padding). *)
let padded_tile_bytes (l : Lower.t) (r : Lower.residency_item) =
  let rows = r.tile_bytes / l.elem_bytes / max 1 r.rrow_elems in
  rows * ((r.rrow_elems * l.elem_bytes) + row_pad_bytes)

(* Running max + running sum + correction temp, fp32 each, per softmax
   row. *)
let softmax_stats_bytes (l : Lower.t) = 3 * 4 * l.softmax_rows

(* tl.dot accumulators live in the register file; a 128 x 256 fp32
   accumulator (32 Ki elements) spread over the block's threads still fits
   the 256 KiB register budget. *)
let register_accumulator_elems = 32768

let lives_in_registers (l : Lower.t) (r : Lower.residency_item) =
  r.rtensor.storage = Chain.Output
  && r.tile_bytes / l.elem_bytes * r.mult <= register_accumulator_elems

let detail (spec : Mcf_gpu.Spec.t) (l : Lower.t) =
  let tiles_bytes =
    List.fold_left
      (fun acc (r : Lower.residency_item) ->
        if lives_in_registers l r then acc
        else acc + (padded_tile_bytes l r * r.mult))
      0 l.residency
  in
  let db_candidate =
    List.fold_left
      (fun acc (r : Lower.residency_item) ->
        if r.double_buffered then acc + (padded_tile_bytes l r * r.mult)
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
