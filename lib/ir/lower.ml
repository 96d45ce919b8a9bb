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
  rrow_elems : int;
  mult : int;
  double_buffered : bool;
}

type t = {
  chain : Chain.t;
  cand : Candidate.t;
  program : Program.t Mcf_util.Once.t;
  elem_bytes : int;
  blocks : int;
  accesses : access list;
  computes : compute_info list;
  residency : residency_item list;
  online_softmax : bool;
  softmax_rows : int;
  stmt_trips_total : int;
  validity : (unit, Program.invalid) result;
}

let program t = Mcf_util.Once.force t.program

(* CUDA-core (non-tensor-core) epilogue work is priced by inflating its
   FLOP count: vector pipes run at roughly 1/8 of the MMA peak. *)
let cuda_core_penalty = 8.0

let softmax_flops_per_elem = 6.0
let online_rescale_flops_per_elem = 3.0
let scale_flops_per_elem = 1.0

let lower_calls = Atomic.make 0

let calls () = Atomic.get lower_calls

(* [acc] times the product of [arr] over the indices. *)
let rec prod arr acc = function
  | [] -> acc
  | i :: rest -> prod arr (acc * arr.(i)) rest

let at arr i ~default = if i < 0 then default else arr.(i)

let epilogue_flops (s : Skeleton.t) ~tiles out = function
  | Skeleton.Scale -> scale_flops_per_elem *. float_of_int (prod tiles 1 out)
  | Skeleton.Unary uflops -> uflops *. float_of_int (prod tiles 1 out)
  | Skeleton.Softmax consumer_outs ->
    let base = softmax_flops_per_elem *. float_of_int (prod tiles 1 out) in
    (* Online softmax rescales every consumer accumulator tile on each
       softmax-axis step. *)
    if s.online then
      base
      +. List.fold_left
           (fun acc q ->
             let tile = float_of_int (prod tiles 1 q) in
             acc +. (online_rescale_flops_per_elem *. tile))
           0.0 consumer_outs
    else base

let instantiate ~elem_bytes (s : Skeleton.t) cand ~tiles ~trips =
  Atomic.incr lower_calls;
  let accesses = ref [] and computes = ref [] and stmt_trips_total = ref 0 in
  for i = Array.length s.stmts - 1 downto 0 do
    let { Skeleton.op; path } = s.stmts.(i) in
    let trips_here = prod trips 1 path in
    stmt_trips_total := !stmt_trips_total + trips_here;
    let compute block kind flops_per_exec (m, n, k) =
      computes :=
        { block;
          kind;
          flops_per_exec;
          ctrips = trips_here;
          tile_m = m;
          tile_n = n;
          tile_k = k }
        :: !computes
    in
    match op with
    | Skeleton.Access a ->
      (* A Store flushes the whole resident region at once (Rule-2
         multiplicity), e.g. a flat schedule stores its full accumulator
         row-block after the reduction. *)
      accesses :=
        { tensor = a.atensor;
          direction = (if a.store then Dstore else Dload);
          tile_elems = prod trips (prod tiles 1 a.atile) a.amult;
          trips = trips_here;
          row_elems = at tiles a.arow ~default:1 }
        :: !accesses
    | Skeleton.Contraction c ->
      compute c.cblock `Contraction
        (2.0 *. float_of_int (prod tiles 1 c.used))
        ( at tiles c.mma_m ~default:1,
          at tiles c.mma_n ~default:1,
          at tiles c.mma_k ~default:64 )
    | Skeleton.Epilogue e ->
      compute e.eblock `Epilogue
        (cuda_core_penalty *. epilogue_flops s ~tiles e.out e.flavor)
        (128, 128, 64)
  done;
  { chain = s.chain;
    cand;
    program = Mcf_util.Once.make (fun () -> s.build cand);
    elem_bytes;
    blocks = prod trips s.chain.batch s.grid;
    accesses = !accesses;
    computes = !computes;
    residency =
      Array.fold_right
        (fun (r : Skeleton.resident) acc ->
          { rtensor = r.rtensor;
            tile_bytes = prod tiles 1 r.rtile * elem_bytes;
            rrow_elems = at tiles r.rrow ~default:1;
            mult = prod trips 1 r.rmult;
            double_buffered = r.double_buffered }
          :: acc)
        s.residency [];
    online_softmax = s.online;
    softmax_rows =
      List.fold_left (fun acc rows -> acc + prod tiles 1 rows) 0 s.softmax_rows;
    stmt_trips_total = !stmt_trips_total;
    validity = s.verdict }

let lower ?rule1 ?dead_loop_elim ?hoisting ~elem_bytes chain cand =
  let s = Skeleton.make ?rule1 ?dead_loop_elim ?hoisting chain cand in
  let tiles, trips = Skeleton.tile_arrays s cand in
  instantiate ~elem_bytes s cand ~tiles ~trips

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
  let chain = t.chain in
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
      String.concat "" [ chain.cname; "["; Candidate.key t.cand; "]" ];
    blocks = t.blocks;
    smem_bytes;
    accesses;
    computes;
    stmt_trips_per_block = float_of_int t.stmt_trips_total }
