open Mcf_ir
module Rng = Mcf_util.Rng

(* A generated chain is described by a genome first and built from it:
   shrinking edits the genome (drop blocks, halve axes) and rebuilds, so
   every reduction step yields a structurally valid chain by construction. *)

type epi =
  | Enone
  | Escale of float
  | Esoftmax of float  (** sscale *)
  | Egelu
  | Erelu

type spec = {
  sbatch : int;
  sm : int;  (** Size of the shared row axis "m". *)
  cols : (string * int) list;
      (** Column axes c_0..c_L (name, size): block i contracts c_(i-1)
          away and produces c_i; the last one is the output column.  Names
          are assigned at generation time and survive shrinking, so tile
          vectors and tiling expressions project across genome edits. *)
  epis : epi list;  (** Per-block epilogues; length [List.length cols - 1]. *)
}

let n_blocks s = List.length s.cols - 1

let epi_to_string = function
  | Enone -> "none"
  | Escale c -> Printf.sprintf "scale:%h" c
  | Esoftmax s -> Printf.sprintf "softmax:%h" s
  | Egelu -> "gelu"
  | Erelu -> "relu"

let epi_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok Enone
  | [ "gelu" ] -> Ok Egelu
  | [ "relu" ] -> Ok Erelu
  | [ "scale"; c ] -> (
    match float_of_string_opt c with
    | Some c -> Ok (Escale c)
    | None -> Error ("bad scale constant: " ^ c))
  | [ "softmax"; c ] -> (
    match float_of_string_opt c with
    | Some c -> Ok (Esoftmax c)
    | None -> Error ("bad softmax scale: " ^ c))
  | _ -> Error ("unknown epilogue: " ^ s)

let gelu =
  let c = sqrt (2.0 /. Float.pi) in
  fun x -> 0.5 *. x *. (1.0 +. tanh (c *. (x +. (0.044715 *. x *. x *. x))))

let relu x = Float.max 0.0 x

let epilogue_of_epi (saxis : Axis.t) = function
  | Enone -> Chain.No_epilogue
  | Escale c -> Chain.Scale c
  | Esoftmax sscale -> Chain.Softmax { saxis; sscale }
  | Egelu -> Chain.Unary { uname = "gelu"; apply = gelu; uflops = 10.0 }
  | Erelu -> Chain.Unary { uname = "relu"; apply = relu; uflops = 1.0 }

let spec_to_string s =
  Printf.sprintf "batch=%d m=%d cols=[%s] epis=[%s]" s.sbatch s.sm
    (String.concat ";"
       (List.map (fun (n, v) -> Printf.sprintf "%s:%d" n v) s.cols))
    (String.concat ";" (List.map epi_to_string s.epis))

(* Build the straight-line chain of [spec]: block i consumes the previous
   intermediate (or the input A) plus a fresh weight W_i and reduces the
   previous column axis away — the gemm_chain3 shape generalized to any
   length, with per-block epilogues. *)
let chain_of_spec s =
  let l = n_blocks s in
  if l < 1 then invalid_arg "Gen.chain_of_spec: need at least one block";
  let am = Axis.spatial "m" s.sm in
  let caxes =
    List.mapi
      (fun i (name, size) ->
        if i = l then Axis.spatial name size else Axis.reduce name size)
      s.cols
  in
  let caxes = Array.of_list caxes in
  let ta = { Chain.tname = "A"; taxes = [ am; caxes.(0) ]; storage = Input } in
  let weight i =
    { Chain.tname = Printf.sprintf "W%d" i;
      taxes = [ caxes.(i - 1); caxes.(i) ];
      storage = Input }
  in
  let inter i =
    { Chain.tname = Printf.sprintf "T%d" i;
      taxes = [ am; caxes.(i) ];
      storage = (if i = l then Chain.Output else Chain.Intermediate) }
  in
  let outs = Array.init (l + 1) (fun i -> if i = 0 then ta else inter i) in
  let blocks =
    List.mapi
      (fun idx epi ->
        let i = idx + 1 in
        let out = outs.(i) in
        { Chain.bname = out.Chain.tname;
          out;
          ins = [ outs.(i - 1); weight i ];
          reduce_axes = [ caxes.(i - 1) ];
          epilogue = epilogue_of_epi caxes.(i) epi })
      s.epis
  in
  let cname =
    Printf.sprintf "fuzz_b%d_m%d_%s" s.sbatch s.sm
      (String.concat "_"
         (List.map (fun (n, v) -> Printf.sprintf "%s%d" n v) s.cols))
  in
  let chain =
    { Chain.cname;
      axes = am :: Array.to_list caxes;
      batch = s.sbatch;
      blocks;
      tensors = Array.to_list outs @ List.init l (fun i -> weight (i + 1)) }
  in
  match Chain.validate chain with
  | Ok () -> chain
  | Error e ->
    invalid_arg
      (Printf.sprintf "Gen.chain_of_spec: invalid genome %s: %s"
         (spec_to_string s) e)

(* --- random genomes ------------------------------------------------------ *)

(* Size pools mix powers of two with padding-triggering extents (24 pads
   under tile 16, 40 under 16/32, 100 under everything).  Three-block
   chains draw from the small pool so the interpreter oracle stays fast. *)
let m_sizes = [| 16; 24; 32; 40; 48; 64; 80; 96 |]
let col_sizes = [| 16; 24; 32; 48; 64; 100 |]
let small_sizes = [| 16; 24; 32; 48 |]
let batches = [| 1; 1; 1; 1; 2; 2; 3 |]
let scales = [| 0.5; 2.0; 0.25; 1.5 |]

let random_epi rng ~last ~penultimate ~reduce_size =
  if last then begin
    (* Softmax on the final block would need its normalization folded into
       the Store of its own output, which neither the schedules nor the
       interpreter model; keep the output epilogue linear. *)
    match Rng.int rng 3 with
    | 0 -> Escale (Rng.pick rng scales)
    | _ -> Enone
  end
  else if penultimate then begin
    (* Softmax is only legal where the attention pattern puts it: on the
       block feeding the output contraction, so the running-sum divisor is
       applied at the chain's single Store. *)
    match Rng.int rng 6 with
    | 0 | 1 -> Esoftmax (1.0 /. sqrt (float_of_int reduce_size))
    | 2 -> Egelu
    | 3 -> Erelu
    | 4 -> Escale (Rng.pick rng scales)
    | _ -> Enone
  end
  else begin
    match Rng.int rng 5 with
    | 0 -> Egelu
    | 1 -> Erelu
    | 2 -> Escale (Rng.pick rng scales)
    | _ -> Enone
  end

let random_spec rng =
  let l = 1 + Rng.int rng 3 in
  let sbatch = Rng.pick rng batches in
  let sizes = if l >= 3 then small_sizes else col_sizes in
  let sm =
    if l >= 3 then Rng.pick rng small_sizes else Rng.pick rng m_sizes
  in
  let cols =
    List.init (l + 1) (fun i -> (Printf.sprintf "c%d" i, Rng.pick rng sizes))
  in
  let epis =
    List.init l (fun idx ->
        let i = idx + 1 in
        random_epi rng ~last:(i = l) ~penultimate:(i = l - 1)
          ~reduce_size:(snd (List.nth cols (i - 1))))
  in
  { sbatch; sm; cols; epis }

(* --- random candidates --------------------------------------------------- *)

let random_candidate rng (chain : Chain.t) =
  let tilings = Array.of_list (Tiling.enumerate chain) in
  let tiling = Rng.pick rng tilings in
  let tiles =
    List.map
      (fun (a : Axis.t) ->
        (a.name, Rng.pick_list rng (Candidate.tile_options a.size)))
      chain.axes
  in
  Candidate.make tiling tiles

(* --- cases --------------------------------------------------------------- *)

type case = {
  id : int;
  seed : int;
  cspec : spec;
  chain : Chain.t;
  cand : Candidate.t;
  rule1 : bool;
  dle : bool;
  hoist : bool;
  elem_bytes : int;
  device : Mcf_gpu.Spec.t;
}

(* Every case draws from its own stream keyed by (seed, id, purpose), so
   the sequence is identical whatever subset of oracles runs and however
   the run is parallelized or resumed. *)
let stream seed id purpose =
  Rng.create
    (Mcf_util.Hashing.seed
       (Printf.sprintf "mcfuser.fuzz|%d|%d|%s" seed id purpose))

let case_of_id ~seed id =
  let rng = stream seed id "case" in
  let cspec = random_spec rng in
  let chain = chain_of_spec cspec in
  let cand = random_candidate rng chain in
  let rule1 = Rng.bool rng in
  let dle = Rng.bool rng in
  let hoist = Rng.bool rng in
  let elem_bytes = if Rng.bool rng then 2 else 4 in
  let device =
    if Rng.bool rng then Mcf_gpu.Spec.a100 else Mcf_gpu.Spec.rtx3080
  in
  { id; seed; cspec; chain; cand; rule1; dle; hoist; elem_bytes; device }

(* Rebuild a case around an edited genome, projecting the tiling and tile
   vector onto the surviving axes (by name).  [keep_structure] keeps the
   tiling's deep/flat shape when the axis set is unchanged; a genome that
   dropped a block falls back to the canonical deep order (flat groups are
   per-block and no longer line up). *)
let respec case cspec =
  let chain = chain_of_spec cspec in
  let live name = List.exists (fun (a : Axis.t) -> a.name = name) chain.axes in
  let resolve (a : Axis.t) =
    if live a.name then Some (Chain.axis chain a.name) else None
  in
  let project_axes axes = List.filter_map resolve axes in
  let same_axes =
    List.length chain.axes = List.length case.chain.Chain.axes
    && List.for_all (fun (a : Axis.t) -> live a.name) case.chain.Chain.axes
  in
  let tiling =
    match case.cand.Candidate.tiling with
    | Tiling.Deep perm -> Tiling.Deep (project_axes perm)
    | Tiling.Flat (prefix, groups) when same_axes ->
      Tiling.Flat (project_axes prefix, List.map project_axes groups)
    | Tiling.Flat (prefix, groups) ->
      Tiling.Deep (project_axes (prefix @ List.concat groups))
  in
  let tiles =
    List.map
      (fun (a : Axis.t) ->
        let old =
          match List.assoc_opt a.name case.cand.Candidate.tiles with
          | Some t -> t
          | None -> a.size
        in
        (a.name, max 1 (min old a.size)))
      chain.axes
  in
  { case with cspec; chain; cand = Candidate.make tiling tiles }

let inputs case =
  let rng = stream case.seed case.id "data" in
  let chain = case.chain in
  List.map
    (fun (ts : Chain.tensor_spec) ->
      let dims = List.map (fun (a : Axis.t) -> a.Axis.size) ts.taxes in
      let dims =
        if chain.Chain.batch > 1 then chain.Chain.batch :: dims else dims
      in
      (ts.Chain.tname, Mcf_tensor.Tensor.random rng (Array.of_list dims)))
    (Chain.input_tensors chain)

(* Deterministic work estimate: padded contraction points of the fused
   schedule plus the exact points of the reference — what the interpreter
   oracle actually executes.  Drives the virtual budget, so case counts
   are machine-independent. *)
let interp_work case =
  let chain = case.chain in
  let per_block (b : Chain.block) =
    List.fold_left
      (fun acc a -> acc *. float_of_int (Candidate.padded_size case.cand a))
      1.0 (Chain.used_axes b)
  in
  let exact (b : Chain.block) =
    List.fold_left
      (fun acc (a : Axis.t) -> acc *. float_of_int a.size)
      1.0 (Chain.used_axes b)
  in
  float_of_int chain.Chain.batch
  *. (Mcf_util.Listx.sum_by per_block chain.Chain.blocks
     +. Mcf_util.Listx.sum_by exact chain.Chain.blocks)

let case_to_string case =
  Printf.sprintf "case %d (seed %d): %s | %s | rule1=%b dle=%b hoist=%b eb=%d %s"
    case.id case.seed (spec_to_string case.cspec)
    (Candidate.to_string case.cand)
    case.rule1 case.dle case.hoist case.elem_bytes case.device.name
