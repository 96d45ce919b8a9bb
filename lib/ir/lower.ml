type direction = Dload | Dstore

type access = {
  tensor : Chain.tensor_spec;
  direction : direction;
  tile_elems : int;
  trips : int;
  row_elems : int;
}

type compute_info = {
  block : Chain.block;
  kind : [ `Contraction | `Epilogue ];
  flops_per_exec : float;
  ctrips : int;
  tile_m : int;
  tile_n : int;
  tile_k : int;
}

type residency_item = {
  rtensor : Chain.tensor_spec;
  tile_bytes : int;
  mult : int;
  double_buffered : bool;
}

type t = {
  program : Program.t;
  elem_bytes : int;
  blocks : int;
  accesses : access list;
  computes : compute_info list;
  residency : residency_item list;
  online_softmax : bool;
  stmt_trips_total : int;
  validity : (unit, Program.invalid) result;
}

let tile_elems cand (ts : Chain.tensor_spec) =
  List.fold_left (fun acc a -> acc * Candidate.tile cand a) 1 ts.taxes

let row_elems cand (ts : Chain.tensor_spec) =
  match List.rev ts.taxes with
  | [] -> 1
  | last :: _ -> Candidate.tile cand last

let path_trips cand path =
  List.fold_left (fun acc a -> acc * Candidate.trip cand a) 1 path

(* CUDA-core (non-tensor-core) epilogue work is priced by inflating its
   FLOP count: vector pipes run at roughly 1/8 of the MMA peak. *)
let cuda_core_penalty = 8.0

let softmax_flops_per_elem = 6.0
let online_rescale_flops_per_elem = 3.0
let scale_flops_per_elem = 1.0

let contraction_flops cand (b : Chain.block) =
  let extents =
    List.fold_left
      (fun acc a -> acc *. float_of_int (Candidate.tile cand a))
      1.0 (Chain.used_axes b)
  in
  2.0 *. extents

let mma_tiles cand (b : Chain.block) =
  let m, n =
    match b.out.taxes with
    | [ a ] -> (Candidate.tile cand a, 1)
    | a1 :: rest ->
      let last = List.nth rest (List.length rest - 1) in
      (Candidate.tile cand a1, Candidate.tile cand last)
    | [] -> (1, 1)
  in
  let k =
    match b.reduce_axes with
    | a :: _ -> Candidate.tile cand a
    | [] -> 64
  in
  (m, n, k)

let epilogue_flops program cand (b : Chain.block) =
  let out_tile = float_of_int (tile_elems cand b.out) in
  match b.epilogue with
  | Chain.No_epilogue -> 0.0
  | Chain.Scale _ -> scale_flops_per_elem *. out_tile
  | Chain.Unary { uflops; _ } -> uflops *. out_tile
  | Chain.Softmax _ ->
    let base = softmax_flops_per_elem *. out_tile in
    if Program.online_softmax program then begin
      (* Online softmax rescales every consumer accumulator tile on each
         softmax-axis step. *)
      let rescale =
        Mcf_util.Listx.sum_by
          (fun (q : Chain.block) ->
            online_rescale_flops_per_elem
            *. float_of_int (tile_elems cand q.out))
          (Chain.consumers_of program.Program.chain b.out)
      in
      base +. rescale
    end
    else base

let of_program ~elem_bytes (program : Program.t) =
  let cand = program.cand in
  let chain = program.chain in
  let placed = Program.placed_stmts program in
  let residency_mult ts = Program.residency_multiplier program ts in
  let accesses =
    List.filter_map
      (fun (path, stmt) ->
        match stmt with
        | Program.Load (ts, _) ->
          Some
            { tensor = ts;
              direction = Dload;
              tile_elems = tile_elems cand ts;
              trips = path_trips cand path;
              row_elems = row_elems cand ts }
        | Program.Store (ts, _) ->
          (* The whole resident region is flushed at once (Rule-2
             multiplicity), e.g. a flat schedule stores its full
             accumulator row-block after the reduction. *)
          Some
            { tensor = ts;
              direction = Dstore;
              tile_elems = tile_elems cand ts * residency_mult ts;
              trips = path_trips cand path;
              row_elems = row_elems cand ts }
        | Program.Compute _ | Program.Epilogue _ -> None)
      placed
  in
  let computes =
    List.filter_map
      (fun (path, stmt) ->
        match stmt with
        | Program.Compute b ->
          let m, n, k = mma_tiles cand b in
          Some
            { block = b;
              kind = `Contraction;
              flops_per_exec = contraction_flops cand b;
              ctrips = path_trips cand path;
              tile_m = m;
              tile_n = n;
              tile_k = k }
        | Program.Epilogue b ->
          Some
            { block = b;
              kind = `Epilogue;
              flops_per_exec = cuda_core_penalty *. epilogue_flops program cand b;
              ctrips = path_trips cand path;
              tile_m = 128;
              tile_n = 128;
              tile_k = 64 }
        | Program.Load _ | Program.Store _ -> None)
      placed
  in
  let loaded_in_loop ts =
    List.exists
      (fun (path, stmt) ->
        match stmt with
        | Program.Load (ts', _) -> ts'.Chain.tname = ts.Chain.tname && path <> []
        | _ -> false)
      placed
  in
  let residency =
    List.filter_map
      (fun (ts : Chain.tensor_spec) ->
        let touched =
          match ts.storage with
          | Chain.Input ->
            List.exists
              (fun (_, s) ->
                match s with
                | Program.Load (ts', _) -> ts'.tname = ts.tname
                | _ -> false)
              placed
          | Chain.Intermediate | Chain.Output -> true
        in
        if not touched then None
        else
          Some
            { rtensor = ts;
              tile_bytes = tile_elems cand ts * elem_bytes;
              mult = residency_mult ts;
              double_buffered = ts.storage = Chain.Input && loaded_in_loop ts })
      chain.tensors
  in
  let stmt_trips_total =
    List.fold_left (fun acc (path, _) -> acc + path_trips cand path) 0 placed
  in
  { program;
    elem_bytes;
    blocks = Program.grid_blocks program;
    accesses;
    computes;
    residency;
    online_softmax = Program.online_softmax program;
    stmt_trips_total;
    validity = Program.validate program }

let lower_calls = Atomic.make 0

let calls () = Atomic.get lower_calls

let lower ?rule1 ?dead_loop_elim ?hoisting ~elem_bytes chain cand =
  Atomic.incr lower_calls;
  of_program ~elem_bytes
    (Program.build ?rule1 ?dead_loop_elim ?hoisting chain cand)

let bytes_per_block t =
  Mcf_util.Listx.sum_by
    (fun a -> float_of_int (a.tile_elems * a.trips * t.elem_bytes))
    t.accesses

let total_traffic_bytes t = bytes_per_block t *. float_of_int t.blocks

let flops_per_block t =
  Mcf_util.Listx.sum_by
    (fun c -> c.flops_per_exec *. float_of_int c.ctrips)
    t.computes

let to_kernel t ~smem_bytes =
  let chain = t.program.Program.chain in
  let tensor_unique (ts : Chain.tensor_spec) =
    let elems =
      List.fold_left (fun acc a -> acc * a.Axis.size) 1 ts.taxes
    in
    float_of_int (elems * chain.batch * t.elem_bytes)
  in
  let accesses =
    List.map
      (fun a ->
        { Mcf_gpu.Kernel.label = a.tensor.Chain.tname;
          bytes_per_block =
            float_of_int (a.tile_elems * a.trips * t.elem_bytes);
          unique_bytes = tensor_unique a.tensor;
          row_bytes = a.row_elems * t.elem_bytes;
          direction =
            (match a.direction with
            | Dload -> Mcf_gpu.Kernel.Load
            | Dstore -> Mcf_gpu.Kernel.Store) })
      t.accesses
  in
  let computes =
    List.map
      (fun c ->
        { Mcf_gpu.Kernel.clabel =
            (match c.kind with
            | `Contraction -> c.block.Chain.bname
            | `Epilogue -> c.block.Chain.bname ^ "!epi");
          flops_per_block = c.flops_per_exec *. float_of_int c.ctrips;
          tile_m = c.tile_m;
          tile_n = c.tile_n;
          tile_k = c.tile_k })
      t.computes
  in
  { Mcf_gpu.Kernel.kname =
      String.concat "" [ chain.cname; "["; Candidate.key t.program.cand; "]" ];
    blocks = t.blocks;
    smem_bytes;
    accesses;
    computes;
    stmt_trips_per_block = float_of_int t.stmt_trips_total }
