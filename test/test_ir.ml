(* Tests for the IR: axes, chains, tiling enumeration, candidates, the
   placed-program construction (placement, dead-loop elimination, hoisting,
   validity, residency) and the traffic/FLOP accounting of lowering.

   Several cases check the exact examples of the paper: Fig. 4(a)'s
   optimized mhnk expression, Fig. 4(b)'s dead-loop hoist of L_A, the
   residency blow-up of Fig. 6(b), Rule-1 equivalence of mhnk and mnkh. *)

open Mcf_ir

let gemm = Chain.gemm_chain ~m:1024 ~n:1024 ~k:512 ~h:512 ()
let attn = Chain.attention ~heads:8 ~m:512 ~n:512 ~k:64 ~h:64 ()
let gemm3 = Chain.gemm_chain3 ~m:256 ~n:128 ~k:64 ~h:128 ~p:64 ()

let ax chain name = Chain.axis chain name
let m = ax gemm "m"
let n = ax gemm "n"
let k = ax gemm "k"
let h = ax gemm "h"

let deep order tiles = Candidate.make (Tiling.Deep order) tiles
let std_tiles = [ ("m", 128); ("n", 64); ("k", 32); ("h", 64) ]

let build ?rule1 ?dead_loop_elim ?hoisting chain cand =
  Program.build ?rule1 ?dead_loop_elim ?hoisting chain cand

let stmt_path program key =
  List.find_map
    (fun (path, s) ->
      let k =
        match s with
        | Program.Load (ts, _) -> "L" ^ ts.Chain.tname
        | Program.Store (ts, _) -> "S" ^ ts.Chain.tname
        | Program.Compute b -> "C" ^ b.Chain.bname
        | Program.Epilogue b -> "E" ^ b.Chain.bname
      in
      if k = key then Some (Axis.names path) else None)
    (Program.placed_stmts program)

let check_path program key expected =
  match stmt_path program key with
  | Some got -> Alcotest.(check string) (key ^ " path") expected got
  | None -> Alcotest.failf "statement %s not found" key

(* --- Axis ---------------------------------------------------------------- *)

let test_axis_basics () =
  let a = Axis.spatial "m" 128 in
  Alcotest.(check bool) "spatial" true (Axis.is_spatial a);
  Alcotest.(check bool) "not reduce" false (Axis.is_reduce a);
  Alcotest.(check bool) "equal by name" true
    (Axis.equal a (Axis.reduce "m" 64));
  Alcotest.(check string) "names" "mnkh" (Axis.names [ m; n; k; h ])

let test_axis_find () =
  Alcotest.(check int) "find size" 512 (Axis.find "k" gemm.axes).size;
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Axis.find "z" gemm.axes);
       false
     with Not_found -> true)

(* --- Chain --------------------------------------------------------------- *)

let test_chain_validate () =
  List.iter
    (fun chain ->
      match Chain.validate chain with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" chain.Chain.cname e)
    [ gemm; attn; gemm3 ]

let test_chain_roles () =
  Alcotest.(check bool) "m spatial" true (Axis.is_spatial m);
  Alcotest.(check bool) "n reduce" true (Axis.is_reduce n);
  Alcotest.(check bool) "k reduce" true (Axis.is_reduce k);
  Alcotest.(check bool) "h spatial" true (Axis.is_spatial h)

let test_used_axes () =
  let c_block = List.hd gemm.blocks in
  let e_block = List.nth gemm.blocks 1 in
  Alcotest.(check string) "C uses mnk" "mnk"
    (Axis.names (Chain.used_axes c_block));
  Alcotest.(check string) "E uses mhn" "mhn"
    (Axis.names (Chain.used_axes e_block))

let test_private_shared () =
  let c_block = List.hd gemm.blocks in
  let e_block = List.nth gemm.blocks 1 in
  Alcotest.(check string) "C private k" "k"
    (Axis.names (Chain.private_axes gemm c_block));
  Alcotest.(check string) "E private h" "h"
    (Axis.names (Chain.private_axes gemm e_block));
  Alcotest.(check string) "shared mn" "mn" (Axis.names (Chain.shared_axes gemm))

let test_producer_consumer () =
  let c_spec =
    List.find (fun (t : Chain.tensor_spec) -> t.tname = "C") gemm.tensors
  in
  (match Chain.producer_of gemm c_spec with
  | Some b -> Alcotest.(check string) "producer of C" "C" b.bname
  | None -> Alcotest.fail "C has a producer");
  Alcotest.(check int) "C consumed once" 1
    (List.length (Chain.consumers_of gemm c_spec));
  let a_spec =
    List.find (fun (t : Chain.tensor_spec) -> t.tname = "A") gemm.tensors
  in
  Alcotest.(check bool) "inputs have no producer" true
    (Chain.producer_of gemm a_spec = None)

let test_linearity () =
  let s_block = List.hd attn.blocks in
  let c_block = List.hd gemm.blocks in
  Alcotest.(check bool) "softmax nonlinear" false
    (Chain.is_linear_through attn s_block);
  Alcotest.(check bool) "plain contraction linear" true
    (Chain.is_linear_through gemm c_block)

let test_total_flops () =
  let want = 2.0 *. 1024.0 *. 1024.0 *. (512.0 +. 512.0) in
  Alcotest.(check (float 1.0)) "gemm chain flops" want (Chain.total_flops gemm)

let test_traffic_bounds () =
  let fused = Chain.min_traffic_bytes gemm ~elem_bytes:2 in
  let unfused = Chain.unfused_traffic_bytes gemm ~elem_bytes:2 in
  Alcotest.(check bool) "unfused adds intermediate roundtrip" true
    (unfused > fused);
  Alcotest.(check (float 1.0)) "delta = 2x|C|"
    (2.0 *. 1024.0 *. 1024.0 *. 2.0)
    (unfused -. fused)

let test_batch_scaling () =
  let b4 = Chain.gemm_chain ~batch:4 ~m:64 ~n:64 ~k:64 ~h:64 () in
  let b1 = Chain.gemm_chain ~batch:1 ~m:64 ~n:64 ~k:64 ~h:64 () in
  Alcotest.(check (float 1.0)) "flops scale with batch"
    (4.0 *. Chain.total_flops b1)
    (Chain.total_flops b4)

(* --- Tiling -------------------------------------------------------------- *)

let test_tiling_counts () =
  Alcotest.(check int) "24 deep (2-op)" 24
    (List.length (Tiling.enumerate_deep gemm));
  Alcotest.(check int) "2 flat (2-op)" 2
    (List.length (Tiling.enumerate_flat gemm));
  Alcotest.(check int) "26 total (paper)" 26
    (List.length (Tiling.enumerate gemm));
  Alcotest.(check int) "120 deep (3-op)" 120
    (List.length (Tiling.enumerate_deep gemm3));
  Alcotest.(check int) "6 flat (3-op)" 6
    (List.length (Tiling.enumerate_flat gemm3))

let test_tiling_notation () =
  Alcotest.(check string) "deep" "mhnk"
    (Tiling.to_string (Tiling.Deep [ m; h; n; k ]));
  Alcotest.(check string) "flat" "mn(k,h)"
    (Tiling.to_string (Tiling.Flat ([ m; n ], [ [ k ]; [ h ] ])))

let test_sub_tiling_rule1 () =
  let sub t = Tiling.to_string (Tiling.sub_tiling gemm t) in
  Alcotest.(check string) "mhnk -> nk" "nk" (sub (Tiling.Deep [ m; h; n; k ]));
  Alcotest.(check string) "mnkh -> nk" "nk" (sub (Tiling.Deep [ m; n; k; h ]));
  Alcotest.(check bool) "kn differs" true
    (sub (Tiling.Deep [ m; h; k; n ]) <> "nk");
  Alcotest.(check string) "flat strips spatial" "n(k,)"
    (sub (Tiling.Flat ([ m; n ], [ [ k ]; [ h ] ])))

let test_tiling_equal () =
  Alcotest.(check bool) "equal deep" true
    (Tiling.equal (Tiling.Deep [ m; n ]) (Tiling.Deep [ m; n ]));
  Alcotest.(check bool) "order matters" false
    (Tiling.equal (Tiling.Deep [ m; n ]) (Tiling.Deep [ n; m ]));
  Alcotest.(check bool) "deep <> flat" false
    (Tiling.equal (Tiling.Deep [ m ]) (Tiling.Flat ([ m ], [])))

(* --- Candidate ----------------------------------------------------------- *)

let test_candidate_trip_padding () =
  let c = deep [ m; h; n; k ] [ ("m", 100); ("n", 64); ("k", 32); ("h", 64) ] in
  Alcotest.(check int) "tile" 100 (Candidate.tile c m);
  Alcotest.(check int) "trip ceil" 11 (Candidate.trip c m);
  Alcotest.(check int) "padded" 1100 (Candidate.padded_size c m);
  Alcotest.(check (float 1e-9)) "padding ratio" (76.0 /. 1024.0)
    (Candidate.padding_ratio c m);
  Alcotest.(check (float 1e-9)) "no padding" 0.0 (Candidate.padding_ratio c n)

let test_tile_options () =
  let opts = Candidate.tile_options 64 in
  Alcotest.(check (list int)) "multiples of 16" [ 16; 32; 48; 64 ] opts;
  Alcotest.(check (list int)) "small dim single option" [ 8 ]
    (Candidate.tile_options 8);
  let opts100 = Candidate.tile_options 100 in
  Alcotest.(check bool) "dimension itself included" true (List.mem 100 opts100)

let test_candidate_key_stable () =
  let c1 = deep [ m; h; n; k ] [ ("m", 64); ("n", 32); ("k", 16); ("h", 64) ] in
  let c2 = deep [ m; h; n; k ] [ ("h", 64); ("k", 16); ("n", 32); ("m", 64) ] in
  Alcotest.(check bool) "tile order irrelevant" true (Candidate.equal c1 c2)

(* --- Program: placement (Fig. 4) ----------------------------------------- *)

let test_fig4a_structure () =
  let p = build gemm (deep [ m; h; n; k ] std_tiles) in
  Alcotest.(check string) "grid binds spatial" "mh" (Axis.names p.grid_axes);
  check_path p "LA" "nk";
  check_path p "LB" "nk";
  check_path p "CC" "nk";
  check_path p "LD" "n";
  check_path p "CE" "n";
  check_path p "SE" ""

let test_fig4b_dead_loop_hoist () =
  let tiles = [ ("m", 128); ("n", 64); ("k", 512); ("h", 64) ] in
  let p = build gemm (deep [ m; h; n; k ] tiles) in
  check_path p "LA" "";
  check_path p "LB" "n";
  check_path p "CC" "n";
  let p' = build ~dead_loop_elim:false gemm (deep [ m; h; n; k ] tiles) in
  check_path p' "LA" "nk"

let test_no_hoisting () =
  (* with the k loop dead, L_A sits in the n scope by default; only the
     hoisting pass moves it to the top of the block *)
  let tiles = [ ("m", 128); ("n", 64); ("k", 512); ("h", 64) ] in
  let p = build ~hoisting:false gemm (deep [ m; h; n; k ] tiles) in
  check_path p "LA" "n";
  let p' = build ~hoisting:true gemm (deep [ m; h; n; k ] tiles) in
  check_path p' "LA" ""

let test_rule1_grid_binding () =
  let p = build ~rule1:false gemm (deep [ m; n; k; h ] std_tiles) in
  Alcotest.(check string) "prefix only" "m" (Axis.names p.grid_axes);
  let p' = build gemm (deep [ m; n; k; h ] std_tiles) in
  Alcotest.(check string) "rule1 binds all spatial" "mh"
    (Axis.names p'.grid_axes)

let test_rule1_equivalence () =
  let p1 = build gemm (deep [ m; h; n; k ] std_tiles) in
  let p2 = build gemm (deep [ m; n; k; h ] std_tiles) in
  Alcotest.(check string) "same program" (Program.to_string p1)
    (Program.to_string p2)

let test_flat_structure () =
  let cand =
    Candidate.make (Tiling.Flat ([ m; n ], [ [ k ]; [ h ] ])) std_tiles
  in
  let p = build gemm cand in
  Alcotest.(check string) "only m in grid" "m" (Axis.names p.grid_axes);
  check_path p "CC" "nk";
  check_path p "CE" "nh";
  check_path p "SE" ""

let test_flat_group_order () =
  let cand =
    Candidate.make
      (Tiling.Flat ([ m; n ], [ [ k ]; [ h ] ]))
      [ ("m", 128); ("n", 64); ("k", 512); ("h", 64) ]
  in
  let p = build gemm cand in
  let order =
    List.filter_map
      (fun (_, s) ->
        match s with Program.Compute b -> Some b.Chain.bname | _ -> None)
      (Program.placed_stmts p)
  in
  Alcotest.(check (list string)) "C before E" [ "C"; "E" ] order

let test_grid_blocks () =
  let p = build gemm (deep [ m; h; n; k ] std_tiles) in
  Alcotest.(check int) "(1024/128)*(512/64)" 64 (Program.grid_blocks p);
  let pa =
    build attn
      (Candidate.make
         (Tiling.Deep (List.map (ax attn) [ "m"; "h"; "n"; "k" ]))
         [ ("m", 128); ("n", 64); ("k", 64); ("h", 64) ])
  in
  Alcotest.(check int) "batch multiplies grid" (8 * 4) (Program.grid_blocks pa)

let test_trips () =
  let l = Lower.lower ~elem_bytes:2 gemm (deep [ m; h; n; k ] std_tiles) in
  let c =
    List.find
      (fun (c : Lower.compute_info) -> c.block.bname = "C")
      l.Lower.computes
  in
  Alcotest.(check int) "C trips = n*k" (16 * 16) c.ctrips

(* --- Program: validity and online softmax -------------------------------- *)

let attn_cand order tiles =
  Candidate.make (Tiling.Deep (List.map (ax attn) order)) tiles

let test_attention_valid_online () =
  let p =
    build attn
      (attn_cand [ "m"; "h"; "n"; "k" ]
         [ ("m", 128); ("n", 64); ("k", 64); ("h", 64) ])
  in
  Alcotest.(check bool) "valid" true (Result.is_ok (Skeleton.validate p));
  Alcotest.(check bool) "online when n tiled" true (Program.online_softmax p)

let test_attention_offline () =
  let p =
    build attn
      (attn_cand [ "m"; "h"; "n"; "k" ]
         [ ("m", 128); ("n", 512); ("k", 64); ("h", 64) ])
  in
  Alcotest.(check bool) "offline when n whole" false (Program.online_softmax p)

let test_attention_invalid_kn () =
  let p =
    build attn
      (attn_cand [ "m"; "h"; "k"; "n" ]
         [ ("m", 128); ("n", 64); ("k", 16); ("h", 64) ])
  in
  match Skeleton.validate p with
  | Error (Program.Nonlinear_partial_consume { producer; loop }) ->
    Alcotest.(check string) "producer" "S" producer;
    Alcotest.(check string) "loop" "k" loop
  | Error e ->
    Alcotest.failf "expected partial-consume violation, got: %s"
      (Program.string_of_invalid e)
  | Ok () -> Alcotest.fail "kn attention with partial k must be invalid"

(* Without rule 1 the m loop stays in the block, below n and h; the
   softmax of S sits above it and would transform only the m=0 tile. *)
let test_attention_blind_epilogue () =
  let p =
    build ~rule1:false attn
      (attn_cand [ "n"; "h"; "m"; "k" ]
         [ ("m", 16); ("n", 16); ("k", 16); ("h", 16) ])
  in
  match Skeleton.validate p with
  | Error (Program.Blind_epilogue { producer; axis }) ->
    Alcotest.(check string) "producer" "S" producer;
    Alcotest.(check string) "axis" "m" axis
  | Error e ->
    Alcotest.failf "expected a blind epilogue, got: %s"
      (Program.string_of_invalid e)
  | Ok () -> Alcotest.fail "softmax above a live m loop must be invalid"

let test_gemm_kn_valid () =
  let p = build gemm (deep [ m; h; k; n ] std_tiles) in
  Alcotest.(check bool) "linear chains allow partial consumption" true
    (Result.is_ok (Skeleton.validate p))

let mlp = Chain.mlp_chain ~m:256 ~n:256 ~k:128 ~h:128 ()

let test_mlp_unary_nonlinear () =
  Alcotest.(check bool) "mlp chain validates" true
    (Result.is_ok (Chain.validate mlp));
  let a s = Chain.axis mlp s in
  (* gelu between the GEMMs forbids consuming C inside its k loop *)
  let bad =
    build mlp
      (Candidate.make
         (Tiling.Deep [ a "m"; a "h"; a "k"; a "n" ])
         [ ("m", 64); ("n", 32); ("k", 32); ("h", 32) ])
  in
  Alcotest.(check bool) "partial-k consumption invalid" true
    (Result.is_error (Skeleton.validate bad));
  let good =
    build mlp
      (Candidate.make
         (Tiling.Deep [ a "m"; a "h"; a "n"; a "k" ])
         [ ("m", 64); ("n", 32); ("k", 32); ("h", 32) ])
  in
  Alcotest.(check bool) "nk order valid" true
    (Result.is_ok (Skeleton.validate good));
  Alcotest.(check bool) "unary adds no online stats" false
    (Program.online_softmax good)

(* --- Program: residency (Fig. 6) ----------------------------------------- *)

(* A tensor's Rule-2 multiplier, as lowering accounts it. *)
let residency_multiplier chain cand name =
  (List.find
     (fun (r : Lower.residency_item) -> r.rtensor.tname = name)
     (Lower.lower ~elem_bytes:2 chain cand).residency)
    .mult

let test_residency_nk () =
  let cand = deep [ m; h; n; k ] std_tiles in
  Alcotest.(check int) "C single tile (Fig 6a)" 1
    (residency_multiplier gemm cand "C");
  Alcotest.(check int) "E single tile" 1 (residency_multiplier gemm cand "E")

let test_residency_kn_blowup () =
  Alcotest.(check int) "C tiles x trip(n) (Fig 6b)" 16
    (residency_multiplier gemm (deep [ m; h; k; n ] std_tiles) "C")

let test_residency_flat_accumulator () =
  let cand =
    Candidate.make (Tiling.Flat ([ m; n ], [ [ k ]; [ h ] ])) std_tiles
  in
  Alcotest.(check int) "E x trip(h)" 8 (residency_multiplier gemm cand "E");
  Alcotest.(check int) "inputs always 1" 1 (residency_multiplier gemm cand "A")

(* --- Program: DAG export -------------------------------------------------- *)

let test_to_dot () =
  let p = build gemm (deep [ m; h; n; k ] std_tiles) in
  let dot = Program.to_dot p in
  let has sub =
    let ns = String.length dot and msub = String.length sub in
    let rec go i = i + msub <= ns && (String.sub dot i msub = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (has "digraph schedule");
  Alcotest.(check bool) "loop node" true (has "loop k (x16)");
  Alcotest.(check bool) "order edges dashed" true (has "style=dashed");
  Alcotest.(check bool) "closes" true (has "}")

let test_dag_edges () =
  let p = build gemm (deep [ m; h; n; k ] std_tiles) in
  let edges = Program.dag_edges p in
  Alcotest.(check bool) "scope edge loop k -> compute C" true
    (List.mem ("loop:k", "C:C") edges);
  Alcotest.(check bool) "order edge load D -> compute E" true
    (List.mem ("L:D:E", "C:E") edges)

(* --- TIR round trip (SV-B) ------------------------------------------------- *)

let test_tir_roundtrip_deep () =
  let cand = deep [ m; h; n; k ] std_tiles in
  let tir = Tir.of_candidate gemm cand in
  let back = Tir.extract tir in
  Alcotest.(check string) "canonical deep candidate survives"
    (Candidate.key cand) (Candidate.key back)

let test_tir_roundtrip_rule1_equivalence () =
  (* mnkh extracts to its canonical form mhnk: same per-block program *)
  let cand = deep [ m; n; k; h ] std_tiles in
  let back = Tir.extract (Tir.of_candidate gemm cand) in
  Alcotest.(check string) "Rule-1 equivalent program"
    (Program.to_string (Program.build gemm cand))
    (Program.to_string (Program.build gemm back))

let test_tir_roundtrip_flat () =
  let cand =
    Candidate.make (Tiling.Flat ([ m; n ], [ [ k ]; [ h ] ])) std_tiles
  in
  let back = Tir.extract (Tir.of_candidate gemm cand) in
  Alcotest.(check string) "flat candidate survives" (Candidate.key cand)
    (Candidate.key back)

let test_tir_structure () =
  let cand = deep [ m; h; n; k ] std_tiles in
  let tir = Tir.of_candidate gemm cand in
  (* grid m, h + serial n, k = four loops (dead loops preserved) *)
  Alcotest.(check int) "four cross-tile loops" 4 (Tir.loop_count tir);
  let src = Tir.pretty tir in
  let has sub =
    let n = String.length src and msub = String.length sub in
    let rec go i = i + msub <= n && (String.sub src i msub = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prim_func header" true (has "@T.prim_func");
  Alcotest.(check bool) "blockIdx binding" true
    (has "T.thread_binding(8, \"blockIdx.x\")");
  Alcotest.(check bool) "reduction init" true (has "T.init()");
  Alcotest.(check bool) "read regions" true (has "T.reads(A[m_0, k_0], B[k_0, n_0])")

let test_tir_attention_epilogue_block () =
  let a s = Chain.axis attn s in
  let cand =
    Candidate.make
      (Tiling.Deep [ a "m"; a "h"; a "n"; a "k" ])
      [ ("m", 128); ("n", 64); ("k", 64); ("h", 64) ]
  in
  let src = Tir.pretty (Tir.of_candidate attn cand) in
  let has sub =
    let n = String.length src and msub = String.length sub in
    let rec go i = i + msub <= n && (String.sub src i msub = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "softmax epilogue block" true
    (has "T.block(\"S_epilogue\")")

(* --- Lower: accounting ---------------------------------------------------- *)

let lower chain cand = Lower.lower ~elem_bytes:2 chain cand

let test_lower_traffic_mhnk () =
  let l = lower gemm (deep [ m; h; n; k ] std_tiles) in
  let want =
    2.0
    *. ((128.0 *. 32.0 *. 256.0) +. (32.0 *. 64.0 *. 256.0)
       +. (64.0 *. 64.0 *. 16.0) +. (128.0 *. 64.0))
  in
  Alcotest.(check (float 1.0)) "bytes per block" want (Lower.bytes_per_block l);
  Alcotest.(check (float 1.0)) "total = per block x grid" (want *. 64.0)
    (Lower.total_traffic_bytes l)

let test_lower_flops () =
  let l = lower gemm (deep [ m; h; n; k ] std_tiles) in
  let want =
    (2.0 *. 128.0 *. 64.0 *. 32.0 *. 256.0)
    +. (2.0 *. 128.0 *. 64.0 *. 64.0 *. 16.0)
  in
  Alcotest.(check (float 1.0)) "flops per block" want (Lower.flops_per_block l)

let test_lower_dead_loop_saves_traffic () =
  let tiles = [ ("m", 128); ("n", 64); ("k", 512); ("h", 64) ] in
  let with_opt = lower gemm (deep [ m; h; n; k ] tiles) in
  let without =
    Lower.lower ~dead_loop_elim:false ~elem_bytes:2 gemm
      (deep [ m; h; n; k ] tiles)
  in
  Alcotest.(check bool) "Fig 4(b) optimization reduces traffic" true
    (Lower.bytes_per_block with_opt < Lower.bytes_per_block without)

let test_lower_redundant_compute () =
  let good = lower gemm (deep [ m; h; n; k ] std_tiles) in
  let bad =
    Lower.lower ~rule1:false ~elem_bytes:2 gemm (deep [ m; n; k; h ] std_tiles)
  in
  Alcotest.(check bool) "redundant compute costed" true
    (Lower.flops_per_block bad *. float_of_int bad.blocks
    > Lower.flops_per_block good *. float_of_int good.blocks)

let test_lower_kernel_fields () =
  let l = lower gemm (deep [ m; h; n; k ] std_tiles) in
  let kernel = Lower.to_kernel l ~smem_bytes:12345 in
  Alcotest.(check int) "blocks" 64 kernel.Mcf_gpu.Kernel.blocks;
  Alcotest.(check int) "smem passthrough" 12345 kernel.Mcf_gpu.Kernel.smem_bytes;
  Alcotest.(check int) "4 accesses" 4 (List.length kernel.Mcf_gpu.Kernel.accesses);
  Alcotest.(check int) "2 computes" 2 (List.length kernel.Mcf_gpu.Kernel.computes);
  Alcotest.(check (float 1.0)) "kernel flops match lowering"
    (Lower.flops_per_block l *. 64.0)
    (Mcf_gpu.Kernel.total_flops kernel)

let test_lower_epilogue_labels () =
  let l =
    lower attn
      (attn_cand [ "m"; "h"; "n"; "k" ]
         [ ("m", 128); ("n", 64); ("k", 64); ("h", 64) ])
  in
  let kernel = Lower.to_kernel l ~smem_bytes:0 in
  Alcotest.(check bool) "epilogue labeled" true
    (List.exists
       (fun (c : Mcf_gpu.Kernel.compute) -> c.clabel = "S!epi")
       kernel.Mcf_gpu.Kernel.computes)

let test_lower_online_softmax_flag () =
  let online =
    lower attn
      (attn_cand [ "m"; "h"; "n"; "k" ]
         [ ("m", 128); ("n", 64); ("k", 64); ("h", 64) ])
  in
  Alcotest.(check bool) "flag set" true online.Lower.online_softmax;
  let offline =
    lower attn
      (attn_cand [ "m"; "h"; "n"; "k" ]
         [ ("m", 128); ("n", 512); ("k", 64); ("h", 64) ])
  in
  Alcotest.(check bool) "flag clear" false offline.Lower.online_softmax

let test_lower_validity_propagates () =
  let l =
    lower attn
      (attn_cand [ "m"; "h"; "k"; "n" ]
         [ ("m", 128); ("n", 64); ("k", 16); ("h", 64) ])
  in
  Alcotest.(check bool) "invalid schedule flagged" true
    (Result.is_error l.Lower.validity)

let test_lower_flat_store_whole_rowblock () =
  let cand =
    Candidate.make (Tiling.Flat ([ m; n ], [ [ k ]; [ h ] ])) std_tiles
  in
  let l = lower gemm cand in
  let store =
    List.find (fun (a : Lower.access) -> a.direction = Lower.Dstore) l.accesses
  in
  Alcotest.(check int) "store flushes trip(h) tiles at once" (128 * 64 * 8)
    store.tile_elems;
  Alcotest.(check int) "stored once" 1 store.trips

(* --- property: accounting consistency ------------------------------------

   The random chains and candidates come from the fuzzing subsystem's
   seeded generator, so the properties range over arbitrary MBCI chains —
   varying depth, batch, epilogues, odd extents, flat and deep tilings —
   instead of one pinned workload; the paper workloads above remain as
   exact fixtures. *)

let fuzz_case n = Mcf_fuzz.Gen.case_of_id ~seed:20260806 (n mod 64)

let fuzz_lower (c : Mcf_fuzz.Gen.case) =
  Lower.lower ~rule1:c.rule1 ~dead_loop_elim:c.dle ~hoisting:c.hoist
    ~elem_bytes:c.elem_bytes c.chain c.cand

let prop_tir_roundtrip =
  QCheck.Test.make ~count:100
    ~name:"TIR round trip preserves the per-block program" QCheck.small_int
    (fun n ->
      let c = fuzz_case n in
      match Tir.extract (Tir.of_candidate c.chain c.cand) with
      | back ->
        Program.to_string (Program.build c.chain c.cand)
        = Program.to_string (Program.build c.chain back)
      | exception Invalid_argument _ -> false)

let prop_lowering_totals_positive =
  QCheck.Test.make ~count:100 ~name:"lowering accounting is sane"
    QCheck.small_int (fun n ->
      let c = fuzz_case n in
      let l = fuzz_lower c in
      l.Lower.blocks >= 1
      && Lower.bytes_per_block l > 0.0
      && Lower.flops_per_block l > 0.0
      && l.Lower.stmt_trips_total >= List.length l.Lower.accesses)

let prop_traffic_at_least_compulsory =
  QCheck.Test.make ~count:100 ~name:"traffic >= fused lower bound"
    QCheck.small_int (fun n ->
      let c = fuzz_case n in
      let l = fuzz_lower c in
      Lower.total_traffic_bytes l
      >= 0.99 *. Chain.min_traffic_bytes c.chain ~elem_bytes:c.elem_bytes)

let prop_flops_at_least_chain =
  QCheck.Test.make ~count:100
    ~name:"flops >= chain flops (redundancy only adds)" QCheck.small_int
    (fun n ->
      let c = fuzz_case n in
      let l = fuzz_lower c in
      Lower.flops_per_block l *. float_of_int l.blocks
      >= 0.99 *. Chain.total_flops c.chain)

let () =
  Alcotest.run "mcf_ir"
    [ ( "axis",
        [ Alcotest.test_case "basics" `Quick test_axis_basics;
          Alcotest.test_case "find" `Quick test_axis_find ] );
      ( "chain",
        [ Alcotest.test_case "validate builders" `Quick test_chain_validate;
          Alcotest.test_case "axis roles" `Quick test_chain_roles;
          Alcotest.test_case "used axes" `Quick test_used_axes;
          Alcotest.test_case "private/shared" `Quick test_private_shared;
          Alcotest.test_case "producer/consumer" `Quick test_producer_consumer;
          Alcotest.test_case "linearity" `Quick test_linearity;
          Alcotest.test_case "total flops" `Quick test_total_flops;
          Alcotest.test_case "traffic bounds" `Quick test_traffic_bounds;
          Alcotest.test_case "batch scaling" `Quick test_batch_scaling ] );
      ( "tiling",
        [ Alcotest.test_case "enumeration counts" `Quick test_tiling_counts;
          Alcotest.test_case "notation" `Quick test_tiling_notation;
          Alcotest.test_case "rule-1 sub-tiling" `Quick test_sub_tiling_rule1;
          Alcotest.test_case "equality" `Quick test_tiling_equal ] );
      ( "candidate",
        [ Alcotest.test_case "trip/padding" `Quick test_candidate_trip_padding;
          Alcotest.test_case "tile options" `Quick test_tile_options;
          Alcotest.test_case "key stability" `Quick test_candidate_key_stable ]
      );
      ( "placement",
        [ Alcotest.test_case "Fig 4(a) mhnk" `Quick test_fig4a_structure;
          Alcotest.test_case "Fig 4(b) dead-loop hoist" `Quick
            test_fig4b_dead_loop_hoist;
          Alcotest.test_case "no hoisting" `Quick test_no_hoisting;
          Alcotest.test_case "rule-1 grid binding" `Quick
            test_rule1_grid_binding;
          Alcotest.test_case "rule-1 equivalence" `Quick test_rule1_equivalence;
          Alcotest.test_case "flat structure" `Quick test_flat_structure;
          Alcotest.test_case "flat group order" `Quick test_flat_group_order;
          Alcotest.test_case "grid blocks" `Quick test_grid_blocks;
          Alcotest.test_case "trip counts" `Quick test_trips ] );
      ( "validity",
        [ Alcotest.test_case "attention online" `Quick
            test_attention_valid_online;
          Alcotest.test_case "attention offline" `Quick test_attention_offline;
          Alcotest.test_case "attention kn invalid" `Quick
            test_attention_invalid_kn;
          Alcotest.test_case "attention blind epilogue" `Quick
            test_attention_blind_epilogue;
          Alcotest.test_case "gemm kn valid" `Quick test_gemm_kn_valid;
          Alcotest.test_case "mlp unary nonlinear" `Quick
            test_mlp_unary_nonlinear ] );
      ( "residency",
        [ Alcotest.test_case "nk single tiles" `Quick test_residency_nk;
          Alcotest.test_case "kn blow-up (Fig 6b)" `Quick
            test_residency_kn_blowup;
          Alcotest.test_case "flat accumulator" `Quick
            test_residency_flat_accumulator ] );
      ( "dag",
        [ Alcotest.test_case "edges" `Quick test_dag_edges;
          Alcotest.test_case "dot export" `Quick test_to_dot ] );
      ( "tir",
        [ Alcotest.test_case "roundtrip deep" `Quick test_tir_roundtrip_deep;
          Alcotest.test_case "roundtrip rule-1 equivalence" `Quick
            test_tir_roundtrip_rule1_equivalence;
          Alcotest.test_case "roundtrip flat" `Quick test_tir_roundtrip_flat;
          Alcotest.test_case "structure + pretty" `Quick test_tir_structure;
          Alcotest.test_case "attention epilogue block" `Quick
            test_tir_attention_epilogue_block ] );
      ( "lowering",
        [ Alcotest.test_case "traffic mhnk" `Quick test_lower_traffic_mhnk;
          Alcotest.test_case "flops" `Quick test_lower_flops;
          Alcotest.test_case "dead loop saves traffic" `Quick
            test_lower_dead_loop_saves_traffic;
          Alcotest.test_case "redundant compute costed" `Quick
            test_lower_redundant_compute;
          Alcotest.test_case "kernel fields" `Quick test_lower_kernel_fields;
          Alcotest.test_case "epilogue labels" `Quick test_lower_epilogue_labels;
          Alcotest.test_case "online softmax flag" `Quick
            test_lower_online_softmax_flag;
          Alcotest.test_case "validity propagates" `Quick
            test_lower_validity_propagates;
          Alcotest.test_case "flat store row-block" `Quick
            test_lower_flat_store_whole_rowblock ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tir_roundtrip; prop_lowering_totals_positive;
            prop_traffic_at_least_compulsory; prop_flops_at_least_chain ] ) ]
