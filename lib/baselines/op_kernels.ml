open Mcf_ir

(* The cuBLAS-style tile menu: (T_m, T_n, T_k). *)
let vendor_tile_table =
  [ (256, 128, 32);
    (128, 256, 32);
    (128, 128, 32);
    (128, 64, 32);
    (64, 128, 32);
    (64, 64, 64);
    (64, 64, 32);
    (32, 64, 32);
    (64, 32, 32);
    (32, 32, 32);
    (16, 16, 16) ]

let single_gemm_chain ~batch ~m ~n ~k =
  let am = Axis.spatial "m" m in
  let an = Axis.spatial "n" n in
  let ak = Axis.reduce "k" k in
  let ta = { Chain.tname = "A"; taxes = [ am; ak ]; storage = Chain.Input } in
  let tb = { Chain.tname = "B"; taxes = [ ak; an ]; storage = Chain.Input } in
  let tc = { Chain.tname = "C"; taxes = [ am; an ]; storage = Chain.Output } in
  { Chain.cname = Printf.sprintf "gemm_b%d_m%d_n%d_k%d" batch m n k;
    axes = [ am; an; ak ];
    batch;
    blocks =
      [ { Chain.bname = "C";
          out = tc;
          ins = [ ta; tb ];
          reduce_axes = [ ak ];
          epilogue = Chain.No_epilogue } ];
    tensors = [ ta; tb; tc ] }

let clamp_tile size t =
  if size <= 16 then size else min t (((size + 15) / 16) * 16 |> min size)

let gemm_candidate chain ~m ~n ~k (tm, tn, tk) =
  let am = Chain.axis chain "m" in
  let an = Chain.axis chain "n" in
  let ak = Chain.axis chain "k" in
  Candidate.make
    (Tiling.Deep [ am; an; ak ])
    [ ("m", clamp_tile m tm); ("n", clamp_tile n tn); ("k", clamp_tile k tk) ]

(* Split-K factors cuBLAS considers for reduction-heavy shapes: the K
   dimension is divided across [s] cooperating blocks (modeled as an
   s-times-larger batch of shallower GEMMs) followed by a partial-sum
   reduction pass over s copies of C. *)
let split_k_options ~k =
  List.filter (fun s -> s = 1 || k / s >= 64) [ 1; 2; 4; 8; 16; 32; 64 ]

let gemm_plain ?(quality = `Cublas) (spec : Mcf_gpu.Spec.t) ~batch ~m ~n ~k =
  let chain = single_gemm_chain ~batch ~m ~n ~k in
  let menu =
    match quality with
    | `Cublas -> vendor_tile_table
    | `Fixed cfg -> [ cfg ]
  in
  let candidates =
    List.filter_map
      (fun cfg ->
        match
          Mcf_codegen.Compile.compile_candidate spec chain
            (gemm_candidate chain ~m ~n ~k cfg)
        with
        | Ok kernel -> (
          match Mcf_gpu.Sim.run ~noise:false spec kernel with
          | Ok v -> Some (kernel, v.time_s)
          | Error _ -> None)
        | Error _ -> None)
      menu
  in
  match Mcf_util.Listx.min_by snd candidates with
  | Some (kernel, _) -> kernel
  | None ->
    (* The smallest configuration always launches; reaching here would be a
       bug in the menu. *)
    failwith "Op_kernels.gemm: no viable tile configuration"

(* A bandwidth-bound operator: blocks stream ~64 KiB each. *)
let memory_op (spec : Mcf_gpu.Spec.t) ~name ~read_elems ~write_elems
    ~flops_per_elem =
  let eb = float_of_int spec.elem_bytes in
  let read_bytes = read_elems *. eb in
  let write_bytes = write_elems *. eb in
  let total = read_bytes +. write_bytes in
  let blocks = max 1 (int_of_float (Float.ceil (total /. 65536.0))) in
  let fb = float_of_int blocks in
  { Mcf_gpu.Kernel.kname = name;
    blocks;
    smem_bytes = 4096;
    accesses =
      [ { Mcf_gpu.Kernel.label = name ^ ".in";
          bytes_per_block = read_bytes /. fb;
          unique_bytes = read_bytes;
          row_bytes = 128;
          direction = Mcf_gpu.Kernel.Load };
        { Mcf_gpu.Kernel.label = name ^ ".out";
          bytes_per_block = write_bytes /. fb;
          unique_bytes = write_bytes;
          row_bytes = 128;
          direction = Mcf_gpu.Kernel.Store } ];
    computes =
      [ { Mcf_gpu.Kernel.clabel = name;
          (* CUDA-core vector work, priced via the same 1/8-peak penalty
             the fused epilogues use. *)
          flops_per_block = 8.0 *. flops_per_elem *. write_elems /. fb;
          tile_m = 128;
          tile_n = 128;
          tile_k = 64 } ];
    stmt_trips_per_block = 8.0 }

let softmax_kernels ?(fused = true) spec ~rows ~cols =
  let elems = rows *. float_of_int cols in
  if fused then
    [ memory_op spec ~name:"softmax" ~read_elems:elems ~write_elems:elems
        ~flops_per_elem:6.0 ]
  else
    [ memory_op spec ~name:"softmax.scale" ~read_elems:elems ~write_elems:elems
        ~flops_per_elem:1.0;
      memory_op spec ~name:"softmax.exp" ~read_elems:elems ~write_elems:elems
        ~flops_per_elem:3.0;
      memory_op spec ~name:"softmax.norm"
        ~read_elems:(elems +. rows)
        ~write_elems:elems ~flops_per_elem:2.0 ]

(* Fold a split-K reduction pass into one kernel description: the partial
   GEMM grid plus the extra C traffic of combining s partial copies. *)
let with_split_reduction (spec : Mcf_gpu.Spec.t) base ~s ~batch ~m ~n =
  if s = 1 then base
  else begin
    let eb = float_of_int spec.elem_bytes in
    let c_bytes = float_of_int (batch * m * n) *. eb in
    let extra_blocks = max 1 (int_of_float (c_bytes /. 65536.0)) in
    let blocks = base.Mcf_gpu.Kernel.blocks + extra_blocks in
    let fb = float_of_int blocks in
    let scale_access (a : Mcf_gpu.Kernel.access) =
      { a with
        bytes_per_block =
          a.bytes_per_block *. float_of_int base.Mcf_gpu.Kernel.blocks /. fb }
    in
    let reduction =
      [ { Mcf_gpu.Kernel.label = "C.partials";
          bytes_per_block = float_of_int s *. c_bytes /. fb;
          unique_bytes = float_of_int s *. c_bytes;
          row_bytes = 128;
          direction = Mcf_gpu.Kernel.Load };
        { Mcf_gpu.Kernel.label = "C.final";
          bytes_per_block = c_bytes /. fb;
          unique_bytes = c_bytes;
          row_bytes = 128;
          direction = Mcf_gpu.Kernel.Store } ]
    in
    { base with
      Mcf_gpu.Kernel.kname = Printf.sprintf "%s+splitk%d" base.kname s;
      blocks;
      accesses = List.map scale_access base.accesses @ reduction }
  end

let gemm ?(quality = `Cublas) (spec : Mcf_gpu.Spec.t) ~batch ~m ~n ~k =
  let splits = match quality with `Cublas -> split_k_options ~k | `Fixed _ -> [ 1 ] in
  let candidates =
    List.filter_map
      (fun s ->
        let base = gemm_plain ~quality spec ~batch:(batch * s) ~m ~n ~k:(k / s) in
        let kernel = with_split_reduction spec base ~s ~batch ~m ~n in
        match Mcf_gpu.Sim.run ~noise:false spec kernel with
        | Ok v -> Some (kernel, v.time_s)
        | Error _ -> None)
      splits
  in
  match Mcf_util.Listx.min_by snd candidates with
  | Some (kernel, _) -> kernel
  | None -> gemm_plain ~quality spec ~batch ~m ~n ~k
