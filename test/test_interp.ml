(* Correctness tests: the tile-level interpreter executing fused schedules
   must agree with the reference operators for every valid candidate —
   across deep/flat tilings, dead loops, padding, online softmax, partial
   reductions, and 3-operator chains.  The property tests draw random
   candidates from the full structural space. *)

open Mcf_ir
module T = Mcf_tensor.Tensor
module Ops = Mcf_tensor.Ops

let rng = Mcf_util.Rng.create 987654

let inputs_for chain =
  List.map
    (fun (ts : Chain.tensor_spec) ->
      let dims = List.map (fun (a : Axis.t) -> a.size) ts.taxes in
      let shape =
        Array.of_list
          (if chain.Chain.batch > 1 then chain.Chain.batch :: dims else dims)
      in
      (ts.tname, T.random rng shape))
    (Chain.input_tensors chain)

let check_candidate ?(tol = 1e-3) name chain cand =
  let p = Program.build chain cand in
  (match Skeleton.validate p with
  | Error e ->
    Alcotest.failf "%s: invalid: %s" name (Program.string_of_invalid e)
  | Ok () -> ());
  let inputs = inputs_for chain in
  let got = Mcf_interp.Interp.run p ~inputs in
  let want = Mcf_interp.Interp.reference chain ~inputs in
  if not (T.approx_equal ~tol got want) then
    Alcotest.failf "%s: fused differs from reference by %g" name
      (T.max_abs_diff got want)

let gemm = Chain.gemm_chain ~m:96 ~n:80 ~k:64 ~h:48 ()
let ax c s = Chain.axis c s
let gm = ax gemm "m"
let gn = ax gemm "n"
let gk = ax gemm "k"
let gh = ax gemm "h"

let attn = Chain.attention ~m:64 ~n:64 ~k:32 ~h:32 ()
let am = ax attn "m"
let an = ax attn "n"
let akk = ax attn "k"
let ah = ax attn "h"

(* --- GEMM chain schedules ------------------------------------------------- *)

let test_gemm_mhnk () =
  check_candidate "mhnk" gemm
    (Candidate.make
       (Tiling.Deep [ gm; gh; gn; gk ])
       [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ])

let test_gemm_dead_k () =
  check_candidate "mhnk full k" gemm
    (Candidate.make
       (Tiling.Deep [ gm; gh; gn; gk ])
       [ ("m", 32); ("n", 16); ("k", 64); ("h", 16) ])

let test_gemm_kn_partial () =
  check_candidate "kn partial" gemm
    (Candidate.make
       (Tiling.Deep [ gm; gh; gk; gn ])
       [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ])

let test_gemm_flat () =
  check_candidate "flat mn(k,h)" gemm
    (Candidate.make
       (Tiling.Flat ([ gm; gn ], [ [ gk ]; [ gh ] ]))
       [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ])

let test_gemm_flat_reversed_prefix () =
  check_candidate "flat nm(k,h)" gemm
    (Candidate.make
       (Tiling.Flat ([ gn; gm ], [ [ gk ]; [ gh ] ]))
       [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ])

let test_gemm_reduce_first () =
  check_candidate "nmkh (reduce-leading)" gemm
    (Candidate.make
       (Tiling.Deep [ gn; gm; gk; gh ])
       [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ])

let test_gemm_padding () =
  check_candidate "padding" gemm
    (Candidate.make
       (Tiling.Deep [ gm; gh; gn; gk ])
       [ ("m", 80); ("n", 48); ("k", 48); ("h", 32) ])

let test_gemm_single_block () =
  check_candidate "whole-tensor tiles" gemm
    (Candidate.make
       (Tiling.Deep [ gm; gh; gn; gk ])
       [ ("m", 96); ("n", 80); ("k", 64); ("h", 48) ])

let test_gemm_no_rule1 () =
  let cand =
    Candidate.make
      (Tiling.Deep [ gm; gn; gk; gh ])
      [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ]
  in
  let p = Program.build ~rule1:false gemm cand in
  let inputs = inputs_for gemm in
  let got = Mcf_interp.Interp.run p ~inputs in
  let want = Mcf_interp.Interp.reference gemm ~inputs in
  Alcotest.(check bool) "redundant-compute schedule still correct" true
    (T.approx_equal ~tol:1e-3 got want)

let test_gemm_no_dead_loop_elim () =
  let cand =
    Candidate.make
      (Tiling.Deep [ gm; gh; gn; gk ])
      [ ("m", 32); ("n", 16); ("k", 64); ("h", 16) ]
  in
  let p = Program.build ~dead_loop_elim:false gemm cand in
  let inputs = inputs_for gemm in
  let got = Mcf_interp.Interp.run p ~inputs in
  let want = Mcf_interp.Interp.reference gemm ~inputs in
  Alcotest.(check bool) "unoptimized placement still correct" true
    (T.approx_equal ~tol:1e-3 got want)

(* --- attention schedules -------------------------------------------------- *)

let attn_tiles m n k h = [ ("m", m); ("n", n); ("k", k); ("h", h) ]

let test_attn_online () =
  check_candidate "attention online" attn
    (Candidate.make (Tiling.Deep [ am; ah; an; akk ]) (attn_tiles 32 16 32 32))

let test_attn_online_tiled_k () =
  check_candidate "attention online tiled k" attn
    (Candidate.make (Tiling.Deep [ am; ah; an; akk ]) (attn_tiles 32 16 16 32))

let test_attn_offline () =
  check_candidate "attention offline (full n)" attn
    (Candidate.make (Tiling.Deep [ am; ah; an; akk ]) (attn_tiles 32 64 32 32))

let test_attn_flash_like () =
  check_candidate "attention flat (flash-like)" attn
    (Candidate.make
       (Tiling.Flat ([ am; an ], [ [ akk ]; [ ah ] ]))
       (attn_tiles 32 16 32 16))

let test_attn_padding () =
  let odd = Chain.attention ~m:80 ~n:72 ~k:24 ~h:40 () in
  let a s = Chain.axis odd s in
  check_candidate "attention padding" odd
    (Candidate.make
       (Tiling.Deep [ a "m"; a "h"; a "n"; a "k" ])
       [ ("m", 32); ("n", 32); ("k", 24); ("h", 40) ])

let test_attn_vs_ops_attention () =
  let q = T.random rng [| 64; 32 |] in
  let kk = T.random rng [| 64; 32 |] in
  let v = T.random rng [| 64; 32 |] in
  let inputs = [ ("Q", q); ("K", Ops.transpose_last2 kk); ("V", v) ] in
  let cand =
    Candidate.make (Tiling.Deep [ am; ah; an; akk ]) (attn_tiles 16 16 32 32)
  in
  let got = Mcf_interp.Interp.run_candidate attn cand ~inputs in
  let want = Ops.attention ~q ~k:kk ~v in
  Alcotest.(check bool) "matches Ops.attention" true
    (T.approx_equal ~tol:1e-4 got want)

(* --- three-operator chain -------------------------------------------------- *)

let gemm3 = Chain.gemm_chain3 ~m:48 ~n:32 ~k:32 ~h:32 ~p:16 ()

let test_gemm3_deep () =
  let a s = Chain.axis gemm3 s in
  check_candidate "gemm3 deep" gemm3
    (Candidate.make
       (Tiling.Deep [ a "m"; a "p"; a "n"; a "k"; a "h" ])
       [ ("m", 16); ("n", 16); ("k", 16); ("h", 16); ("p", 16) ])

let test_gemm3_flat () =
  let a s = Chain.axis gemm3 s in
  check_candidate "gemm3 flat" gemm3
    (Candidate.make
       (Tiling.Flat ([ a "m"; a "n"; a "h" ], [ [ a "k" ]; []; [ a "p" ] ]))
       [ ("m", 16); ("n", 16); ("k", 16); ("h", 16); ("p", 16) ])

let test_gemm3_vs_ops () =
  let a = T.random rng [| 48; 32 |] in
  let b = T.random rng [| 32; 32 |] in
  let d = T.random rng [| 32; 32 |] in
  let f = T.random rng [| 32; 16 |] in
  let axn s = Chain.axis gemm3 s in
  let cand =
    Candidate.make
      (Tiling.Deep [ axn "m"; axn "p"; axn "n"; axn "k"; axn "h" ])
      [ ("m", 16); ("n", 32); ("k", 16); ("h", 16); ("p", 16) ]
  in
  let got =
    Mcf_interp.Interp.run_candidate gemm3 cand
      ~inputs:[ ("A", a); ("B", b); ("D", d); ("F", f) ]
  in
  let want = Ops.matmul (Ops.gemm_chain ~a ~b ~d) f in
  Alcotest.(check bool) "((AB)D)F" true (T.approx_equal ~tol:1e-3 got want)

(* --- batched (multi-head) chains --------------------------------------------- *)

let test_batched_attention_vs_ops () =
  let heads = 3 in
  let batched = Chain.attention ~heads ~m:32 ~n:32 ~k:16 ~h:16 () in
  let a s = Chain.axis batched s in
  let q = T.random rng [| heads; 32; 16 |] in
  let kk = T.random rng [| heads; 32; 16 |] in
  let v = T.random rng [| heads; 32; 16 |] in
  let inputs = [ ("Q", q); ("K", Ops.transpose_last2 kk); ("V", v) ] in
  let cand =
    Candidate.make
      (Tiling.Deep [ a "m"; a "h"; a "n"; a "k" ])
      [ ("m", 16); ("n", 16); ("k", 16); ("h", 16) ]
  in
  let got = Mcf_interp.Interp.run_candidate batched cand ~inputs in
  let want = Ops.attention ~q ~k:kk ~v in
  Alcotest.(check (array int)) "batched output shape" [| heads; 32; 16 |]
    (T.shape got);
  Alcotest.(check bool) "matches batched Ops.attention" true
    (T.approx_equal ~tol:1e-4 got want)

let test_batched_gemm_chain () =
  let batched = Chain.gemm_chain ~batch:4 ~m:32 ~n:32 ~k:16 ~h:16 () in
  let a s = Chain.axis batched s in
  check_candidate "batched gemm chain" batched
    (Candidate.make
       (Tiling.Deep [ a "m"; a "h"; a "n"; a "k" ])
       [ ("m", 16); ("n", 16); ("k", 16); ("h", 16) ])

let test_batched_shape_mismatch () =
  let batched = Chain.gemm_chain ~batch:4 ~m:32 ~n:32 ~k:16 ~h:16 () in
  let a s = Chain.axis batched s in
  let cand =
    Candidate.make
      (Tiling.Deep [ a "m"; a "h"; a "n"; a "k" ])
      [ ("m", 16); ("n", 16); ("k", 16); ("h", 16) ]
  in
  (* unbatched inputs to a batched chain must be rejected *)
  let bad =
    List.map
      (fun (ts : Chain.tensor_spec) ->
        let dims =
          Array.of_list (List.map (fun (ax : Axis.t) -> ax.size) ts.taxes)
        in
        (ts.tname, T.random rng dims))
      (Chain.input_tensors batched)
  in
  Alcotest.(check bool) "missing batch axis rejected" true
    (try
       ignore (Mcf_interp.Interp.run_candidate batched cand ~inputs:bad);
       false
     with Invalid_argument _ -> true)

(* --- unary-epilogue (MLP) chain --------------------------------------------- *)

let mlp = Chain.mlp_chain ~m:64 ~n:48 ~k:32 ~h:32 ()

let mlp_reference inputs =
  let a = List.assoc "A" inputs and b = List.assoc "B" inputs in
  let d = List.assoc "D" inputs in
  Ops.matmul (Ops.gelu (Ops.matmul a b)) d

let test_mlp_deep () =
  let ax s = Chain.axis mlp s in
  let cand =
    Candidate.make
      (Tiling.Deep [ ax "m"; ax "h"; ax "n"; ax "k" ])
      [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ]
  in
  let inputs = inputs_for mlp in
  let got = Mcf_interp.Interp.run_candidate mlp cand ~inputs in
  Alcotest.(check bool) "matches interp reference" true
    (T.approx_equal ~tol:1e-3 got (Mcf_interp.Interp.reference mlp ~inputs));
  Alcotest.(check bool) "matches gelu composition" true
    (T.approx_equal ~tol:1e-3 got (mlp_reference inputs))

let test_mlp_flat () =
  let ax s = Chain.axis mlp s in
  check_candidate "mlp flat" mlp
    (Candidate.make
       (Tiling.Flat ([ ax "m"; ax "n" ], [ [ ax "k" ]; [ ax "h" ] ]))
       [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ])

let test_mlp_whole_k () =
  let ax s = Chain.axis mlp s in
  check_candidate "mlp dead k" mlp
    (Candidate.make
       (Tiling.Deep [ ax "m"; ax "h"; ax "n"; ax "k" ])
       [ ("m", 32); ("n", 16); ("k", 32); ("h", 16) ])

(* --- convolution chain -------------------------------------------------------- *)

let test_conv_chain_vs_conv2d () =
  let height = 10 and width = 9 in
  let c_in = 2 and c_mid = 3 and c_out = 4 in
  let chain =
    Chain.conv_pointwise_chain ~height ~width ~c_in ~c_mid ~c_out ~ksize:3 ()
  in
  let a s = Chain.axis chain s in
  let cand =
    Candidate.make
      (Tiling.Deep [ a "m"; a "h"; a "n"; a "k" ])
      [ ("m", 16); ("n", 3); ("k", 16); ("h", 4) ]
  in
  let image = T.random rng [| c_in; height; width |] in
  let w1 = T.random rng [| c_mid; c_in; 3; 3 |] in
  let w2 = T.random rng [| c_out; c_mid; 1; 1 |] in
  let fused =
    Mcf_interp.Interp.run_candidate chain cand
      ~inputs:
        [ ("A", Ops.im2col ~input:image ~kh:3 ~kw:3);
          ("B", Ops.conv_weights_matrix w1);
          ("D", Ops.conv_weights_matrix w2) ]
  in
  let direct =
    Ops.conv2d ~input:(Ops.conv2d ~input:image ~weights:w1) ~weights:w2
  in
  let ho = height - 2 and wo = width - 2 in
  let flat =
    T.init [| ho * wo; c_out |] (fun idx ->
        T.get direct [| idx.(1); idx.(0) / wo; idx.(0) mod wo |])
  in
  Alcotest.(check bool) "fused conv chain = direct conv2d" true
    (T.approx_equal ~tol:1e-3 fused flat)

(* --- error handling -------------------------------------------------------- *)

let test_missing_input () =
  let cand =
    Candidate.make
      (Tiling.Deep [ gm; gh; gn; gk ])
      [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ]
  in
  Alcotest.(check bool) "missing input raises" true
    (try
       ignore (Mcf_interp.Interp.run_candidate gemm cand ~inputs:[]);
       false
     with Invalid_argument _ -> true)

let test_shape_mismatch () =
  let cand =
    Candidate.make
      (Tiling.Deep [ gm; gh; gn; gk ])
      [ ("m", 32); ("n", 16); ("k", 16); ("h", 16) ]
  in
  let bad =
    List.map
      (fun (name, t) ->
        if name = "A" then (name, T.create [| 2; 2 |]) else (name, t))
      (inputs_for gemm)
  in
  Alcotest.(check bool) "shape mismatch raises" true
    (try
       ignore (Mcf_interp.Interp.run_candidate gemm cand ~inputs:bad);
       false
     with Invalid_argument _ -> true)

let test_uninitialized_tile_message () =
  (* A statically mis-ordered schedule (the consumer G descends into the
     p loop while its producer E sits after it — a shape Skeleton.validate
     rejects, but the interpreter does not check) must fail loudly with
     the tile name AND the loop indices at the failing read, so a fuzz
     reproducer is debuggable from the message alone. *)
  let a s = Chain.axis gemm3 s in
  let cand =
    Candidate.make
      (Tiling.Deep [ a "n"; a "m"; a "h"; a "p"; a "k" ])
      [ ("m", 48); ("n", 32); ("k", 32); ("h", 32); ("p", 16) ]
  in
  let p = Program.build ~rule1:false ~dead_loop_elim:false gemm3 cand in
  Alcotest.(check bool) "mis-ordered schedule is invalid" true
    (Result.is_error (Skeleton.validate p));
  let inputs = inputs_for gemm3 in
  match Mcf_interp.Interp.run p ~inputs with
  | _ -> Alcotest.fail "expected Uninitialized_tile"
  | exception Mcf_interp.Interp.Uninitialized_tile msg ->
    let contains needle =
      let nl = String.length needle and ml = String.length msg in
      let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "message %S carries %S" msg needle)
          true (contains needle))
      [ "tile E"; "read before any Load"; "h=0"; "m=0"; "n=0"; "p=0" ]

(* --- property: any valid candidate computes the right thing ---------------- *)

let tiny_gemm = Chain.gemm_chain ~m:48 ~n:32 ~k:32 ~h:32 ()
let tiny_attn = Chain.attention ~m:32 ~n:32 ~k:16 ~h:16 ()

let random_candidate chain seed =
  let rng = Mcf_util.Rng.create seed in
  let tilings = Array.of_list (Tiling.enumerate chain) in
  let tiling = Mcf_util.Rng.pick rng tilings in
  let tiles =
    List.map
      (fun (a : Axis.t) ->
        let opts = Array.of_list (Candidate.tile_options a.size) in
        (a.Axis.name, Mcf_util.Rng.pick rng opts))
      chain.Chain.axes
  in
  Candidate.make tiling tiles

let prop_chain chain name =
  QCheck.Test.make ~count:40 ~name QCheck.small_int (fun seed ->
      let cand = random_candidate chain (seed + 1) in
      let p = Program.build chain cand in
      match Skeleton.validate p with
      | Error _ -> true (* invalid candidates are excluded from the space *)
      | Ok () ->
        let inputs = inputs_for chain in
        let got = Mcf_interp.Interp.run p ~inputs in
        let want = Mcf_interp.Interp.reference chain ~inputs in
        T.approx_equal ~tol:1e-3 got want)

let tiny_gemm3 = Chain.gemm_chain3 ~m:32 ~n:16 ~k:16 ~h:16 ~p:16 ()

let prop_gemm = prop_chain tiny_gemm "random gemm-chain schedules are exact"
let prop_gemm3 = prop_chain tiny_gemm3 "random 3-op schedules are exact"
let prop_attn = prop_chain tiny_attn "random attention schedules are exact"

let tiny_mlp = Chain.mlp_chain ~m:32 ~n:32 ~k:16 ~h:16 ()
let prop_mlp = prop_chain tiny_mlp "random mlp-chain schedules are exact"

let prop_attn_no_opt =
  QCheck.Test.make ~count:15
    ~name:"attention schedules survive disabled optimizations"
    QCheck.small_int (fun seed ->
      let cand = random_candidate tiny_attn (seed + 5) in
      (* only compare schedules that are valid in every configuration *)
      let valid flags =
        let p = flags tiny_attn cand in
        Result.is_ok (Skeleton.validate p)
      in
      let build_full c cc = Program.build c cc in
      let build_noelim c cc = Program.build ~dead_loop_elim:false c cc in
      let build_nohoist c cc = Program.build ~hoisting:false c cc in
      if not (valid build_full && valid build_noelim && valid build_nohoist)
      then true
      else begin
        let inputs = inputs_for tiny_attn in
        let run b = Mcf_interp.Interp.run (b tiny_attn cand) ~inputs in
        let base = run build_full in
        T.approx_equal ~tol:1e-3 base (run build_noelim)
        && T.approx_equal ~tol:1e-3 base (run build_nohoist)
      end)

let prop_gemm_no_opt =
  QCheck.Test.make ~count:20 ~name:"optimization passes preserve semantics"
    QCheck.small_int (fun seed ->
      let cand = random_candidate tiny_gemm (seed + 1) in
      let inputs = inputs_for tiny_gemm in
      let run ?rule1 ?dead_loop_elim ?hoisting () =
        Mcf_interp.Interp.run
          (Program.build ?rule1 ?dead_loop_elim ?hoisting tiny_gemm cand)
          ~inputs
      in
      let base = run () in
      T.approx_equal ~tol:1e-3 base (run ~dead_loop_elim:false ())
      && T.approx_equal ~tol:1e-3 base (run ~hoisting:false ())
      && T.approx_equal ~tol:1e-3 base (run ~rule1:false ()))

let () =
  Alcotest.run "mcf_interp"
    [ ( "gemm-chain",
        [ Alcotest.test_case "mhnk" `Quick test_gemm_mhnk;
          Alcotest.test_case "dead k loop" `Quick test_gemm_dead_k;
          Alcotest.test_case "kn partial reduction" `Quick test_gemm_kn_partial;
          Alcotest.test_case "flat mn(k,h)" `Quick test_gemm_flat;
          Alcotest.test_case "flat nm(k,h)" `Quick
            test_gemm_flat_reversed_prefix;
          Alcotest.test_case "reduce-leading" `Quick test_gemm_reduce_first;
          Alcotest.test_case "padding" `Quick test_gemm_padding;
          Alcotest.test_case "single block" `Quick test_gemm_single_block;
          Alcotest.test_case "no rule 1" `Quick test_gemm_no_rule1;
          Alcotest.test_case "no dead-loop elim" `Quick
            test_gemm_no_dead_loop_elim ] );
      ( "attention",
        [ Alcotest.test_case "online softmax" `Quick test_attn_online;
          Alcotest.test_case "online + tiled k" `Quick test_attn_online_tiled_k;
          Alcotest.test_case "offline softmax" `Quick test_attn_offline;
          Alcotest.test_case "flash-like flat" `Quick test_attn_flash_like;
          Alcotest.test_case "padding" `Quick test_attn_padding;
          Alcotest.test_case "vs Ops.attention" `Quick
            test_attn_vs_ops_attention ] );
      ( "three-op",
        [ Alcotest.test_case "deep" `Quick test_gemm3_deep;
          Alcotest.test_case "flat" `Quick test_gemm3_flat;
          Alcotest.test_case "vs Ops" `Quick test_gemm3_vs_ops ] );
      ( "batched",
        [ Alcotest.test_case "attention vs Ops" `Quick
            test_batched_attention_vs_ops;
          Alcotest.test_case "gemm chain" `Quick test_batched_gemm_chain;
          Alcotest.test_case "shape mismatch" `Quick
            test_batched_shape_mismatch ] );
      ( "mlp-unary",
        [ Alcotest.test_case "deep" `Quick test_mlp_deep;
          Alcotest.test_case "flat" `Quick test_mlp_flat;
          Alcotest.test_case "whole k" `Quick test_mlp_whole_k ] );
      ( "conv",
        [ Alcotest.test_case "vs direct conv2d" `Quick
            test_conv_chain_vs_conv2d ] );
      ( "errors",
        [ Alcotest.test_case "missing input" `Quick test_missing_input;
          Alcotest.test_case "uninitialized tile diagnostics" `Quick
            test_uninitialized_tile_message;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_gemm; prop_attn; prop_mlp; prop_gemm3; prop_gemm_no_opt;
            prop_attn_no_opt ] ) ]
