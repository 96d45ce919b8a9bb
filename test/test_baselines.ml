(* Tests for the comparison systems: vendor-op kernels, the GBDT cost
   model, and each baseline's documented capabilities and limitations
   (BOLT's pattern table and sm86 gap, FlashAttention's K=H constraint,
   Ansor's fallback, Chimera's restricted space). *)

module B = Mcf_baselines

let a100 = Mcf_gpu.Spec.a100
let rtx = Mcf_gpu.Spec.rtx3080
let gemm = Mcf_ir.Chain.gemm_chain ~m:512 ~n:256 ~k:64 ~h:64 ()
let attn = Mcf_ir.Chain.attention ~heads:8 ~m:512 ~n:512 ~k:64 ~h:64 ()

let () = B.Ansor.trials := 100 (* keep tests fast; accounting still exercised *)

(* --- Op_kernels --------------------------------------------------------------- *)

let test_gemm_kernel_valid () =
  let k = B.Op_kernels.gemm a100 ~batch:1 ~m:512 ~n:512 ~k:256 in
  match Mcf_gpu.Sim.run a100 k with
  | Ok v -> Alcotest.(check bool) "launches" true (v.time_s > 0.0)
  | Error e -> Alcotest.failf "vendor kernel failed: %s" (Mcf_gpu.Sim.string_of_error e)

let test_gemm_cublas_beats_fixed () =
  let t quality =
    Mcf_gpu.Sim.time_exn ~noise:false a100
      (B.Op_kernels.gemm ~quality a100 ~batch:1 ~m:1024 ~n:1024 ~k:512)
  in
  Alcotest.(check bool) "shape dispatch helps" true
    (t `Cublas <= t (`Fixed (32, 32, 32)))

let test_gemm_split_k () =
  (* a very skinny-M GEMM benefits from split-K parallelism *)
  let k = B.Op_kernels.gemm a100 ~batch:1 ~m:256 ~n:256 ~k:16384 in
  Alcotest.(check bool) "split-K grid is parallel enough" true
    (k.Mcf_gpu.Kernel.blocks > 16)

let test_memory_op_traffic () =
  let k =
    B.Op_kernels.memory_op a100 ~name:"x" ~read_elems:1e7 ~write_elems:1e7
      ~flops_per_elem:1.0
  in
  Alcotest.(check (float 1e4)) "total bytes = 2 x 20MB" 4e7
    (Mcf_gpu.Kernel.total_bytes k);
  match Mcf_gpu.Sim.run ~noise:false a100 k with
  | Ok v -> Alcotest.(check bool) "memory bound" true (v.bound = Mcf_gpu.Sim.Memory)
  | Error _ -> Alcotest.fail "memory op failed"

let test_softmax_kernels () =
  Alcotest.(check int) "fused = 1 kernel" 1
    (List.length (B.Op_kernels.softmax_kernels ~fused:true a100 ~rows:512.0 ~cols:512));
  Alcotest.(check int) "eager = 3 kernels" 3
    (List.length (B.Op_kernels.softmax_kernels ~fused:false a100 ~rows:512.0 ~cols:512))

(* --- Xgb ----------------------------------------------------------------------- *)

let test_xgb_learns () =
  let rng = Mcf_util.Rng.create 55 in
  let sample _ =
    let f = Array.init 6 (fun _ -> Mcf_util.Rng.float rng 5.0) in
    (f, (2.0 *. f.(0)) -. f.(3) +. 1.0)
  in
  let train = List.init 400 sample in
  let test = List.init 100 sample in
  let model = B.Xgb.train train in
  let mae =
    Mcf_util.Stats.mean
      (List.map (fun (f, y) -> Float.abs (B.Xgb.predict model f -. y)) test)
  in
  let baseline =
    let mean = Mcf_util.Stats.mean (List.map snd train) in
    Mcf_util.Stats.mean (List.map (fun (_, y) -> Float.abs (mean -. y)) test)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mae %.3f < const baseline %.3f" mae baseline)
    true (mae < 0.5 *. baseline)

let test_xgb_deterministic () =
  let samples = List.init 50 (fun i -> ([| float_of_int i |], float_of_int (i * 2))) in
  let m1 = B.Xgb.train samples and m2 = B.Xgb.train samples in
  Alcotest.(check (float 1e-12)) "same prediction"
    (B.Xgb.predict m1 [| 25.0 |])
    (B.Xgb.predict m2 [| 25.0 |])

let test_xgb_errors () =
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (B.Xgb.train []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "arity mismatch raises" true
    (try
       ignore (B.Xgb.train [ ([| 1.0 |], 1.0); ([| 1.0; 2.0 |], 2.0) ]);
       false
     with Invalid_argument _ -> true)

let test_xgb_features () =
  let l = Mcf_ir.Lower.lower ~elem_bytes:2 gemm
      (Mcf_ir.Candidate.make
         (Mcf_ir.Tiling.Deep
            (List.map (Mcf_ir.Chain.axis gemm) [ "m"; "h"; "n"; "k" ]))
         [ ("m", 64); ("n", 64); ("k", 32); ("h", 32) ])
  in
  let f = B.Xgb.feature_vector l in
  Alcotest.(check int) "11 features" 11 (Array.length f);
  Array.iter (fun v -> Alcotest.(check bool) "finite" true (Float.is_finite v)) f

(* --- derate helper --------------------------------------------------------------- *)

let test_derate_math () =
  let k = B.Op_kernels.gemm a100 ~batch:1 ~m:256 ~n:256 ~k:256 in
  let d = B.Backend.derate_math 3.0 k in
  Alcotest.(check (float 1.0)) "flops tripled"
    (3.0 *. Mcf_gpu.Kernel.total_flops k)
    (Mcf_gpu.Kernel.total_flops d);
  (* epilogue entries are untouched *)
  let withepi =
    { k with
      Mcf_gpu.Kernel.computes =
        { Mcf_gpu.Kernel.clabel = "S!epi";
          flops_per_block = 100.0;
          tile_m = 16;
          tile_n = 16;
          tile_k = 16 }
        :: k.computes }
  in
  let d2 = B.Backend.derate_math 3.0 withepi in
  let epi =
    List.find
      (fun (c : Mcf_gpu.Kernel.compute) -> c.clabel = "S!epi")
      d2.Mcf_gpu.Kernel.computes
  in
  Alcotest.(check (float 1e-9)) "epilogue untouched" 100.0 epi.flops_per_block

(* --- PyTorch / Relay --------------------------------------------------------------- *)

let test_pytorch_gemm_chain () =
  match B.Pytorch.backend.tune a100 gemm with
  | Ok o ->
    Alcotest.(check int) "two kernels" 2 (List.length o.kernels);
    Alcotest.(check bool) "unfused" false o.fused;
    Alcotest.(check (float 1e-12)) "no tuning" 0.0 o.tuning_virtual_s
  | Error _ -> Alcotest.fail "pytorch failed"

let test_pytorch_attention_kernels () =
  match B.Pytorch.backend.tune a100 attn with
  | Ok o ->
    (* bmm1 + 3 eager softmax passes + bmm2 *)
    Alcotest.(check int) "five kernels" 5 (List.length o.kernels)
  | Error _ -> Alcotest.fail "pytorch attention failed"

let test_relay_fewer_kernels () =
  match (B.Relay.backend.tune a100 attn, B.Pytorch.backend.tune a100 attn) with
  | Ok r, Ok p ->
    Alcotest.(check bool) "relay fuses softmax" true
      (List.length r.kernels < List.length p.kernels)
  | _ -> Alcotest.fail "backends failed"

(* --- BOLT ----------------------------------------------------------------------- *)

let test_bolt_sm86_unsupported () =
  match B.Bolt.backend.tune rtx gemm with
  | Error (B.Backend.Unsupported msg) ->
    Alcotest.(check bool) "mentions sm86" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "BOLT must refuse sm86"

let test_bolt_no_attention () =
  match B.Bolt.backend.tune a100 attn with
  | Error (B.Backend.Unsupported _) -> ()
  | Ok _ -> Alcotest.fail "BOLT cannot fuse softmax chains"

let test_bolt_fuses_small_chain () =
  match B.Bolt.backend.tune a100 gemm with
  | Ok o ->
    Alcotest.(check bool) "fused template" true o.fused;
    Alcotest.(check bool) "template instantiation charged" true
      (o.tuning_virtual_s > 40.0)
  | Error _ -> Alcotest.fail "BOLT failed on a dual-GEMM"

let test_bolt_fallback_on_large_n () =
  (* full-N residency cannot fit for N = 1024 at batch 8 *)
  let big = Mcf_ir.Chain.gemm_chain ~batch:8 ~m:1024 ~n:1024 ~k:128 ~h:128 () in
  match B.Bolt.backend.tune a100 big with
  | Ok o ->
    Alcotest.(check bool) "falls back unfused" false o.fused;
    Alcotest.(check bool) "notes the fallback" true (o.note <> None)
  | Error _ -> Alcotest.fail "BOLT fallback failed"

(* --- FlashAttention ---------------------------------------------------------------- *)

let test_flash_requires_attention () =
  match B.Flash_attention.backend.tune a100 gemm with
  | Error (B.Backend.Unsupported _) -> ()
  | Ok _ -> Alcotest.fail "FA must reject plain GEMM chains"

let test_flash_requires_k_eq_h () =
  let kh = Mcf_ir.Chain.attention ~heads:8 ~m:512 ~n:512 ~k:64 ~h:128 () in
  match B.Flash_attention.backend.tune a100 kh with
  | Error (B.Backend.Unsupported msg) ->
    Alcotest.(check bool) "K=H constraint" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "FA must reject K <> H"

let test_flash_head_dim_limit () =
  let big = Mcf_ir.Chain.attention ~heads:2 ~m:256 ~n:256 ~k:256 ~h:256 () in
  match B.Flash_attention.backend.tune a100 big with
  | Error (B.Backend.Unsupported _) -> ()
  | Ok _ -> Alcotest.fail "FA must reject head dim > 128"

let test_flash_runs_attention () =
  match B.Flash_attention.backend.tune a100 attn with
  | Ok o ->
    Alcotest.(check bool) "fused" true o.fused;
    Alcotest.(check (float 1e-12)) "no tuning" 0.0 o.tuning_virtual_s
  | Error _ -> Alcotest.fail "FA failed on S1-like shape"

(* --- Ansor ------------------------------------------------------------------------ *)

let test_ansor_fuses_small_batch () =
  match B.Ansor.backend.tune a100 gemm with
  | Ok o ->
    Alcotest.(check bool) "fused" true o.fused;
    Alcotest.(check bool) "trial budget charged" true
      (o.tuning_virtual_s > float_of_int !B.Ansor.trials *. 4.0)
  | Error _ -> Alcotest.fail "Ansor failed"

let test_ansor_fallback_large_batch () =
  let big = Mcf_ir.Chain.gemm_chain ~batch:8 ~m:256 ~n:256 ~k:64 ~h:64 () in
  match B.Ansor.backend.tune a100 big with
  | Ok o ->
    Alcotest.(check bool) "unfused fallback" false o.fused;
    Alcotest.(check bool) "notes it" true (o.note <> None)
  | Error _ -> Alcotest.fail "Ansor fallback failed"

(* Ansor at [trials := 100] on the paper's table workloads: kernel time
   and virtual tuning seconds as hex floats, whether it fused, and an
   FNV-1a hash of each kernel's [Kernel.fingerprint] (the bytes that fix
   its simulated time).  The rows pin the learned-model loop end to end:
   pick order, revisit charges, training-sample order and the winner. *)
let table_names =
  List.map
    (fun (g : Mcf_workloads.Configs.gemm_config) -> g.gname)
    Mcf_workloads.Configs.gemm_chains
  @ List.map
      (fun (s : Mcf_workloads.Configs.attention_config) -> s.sname)
      Mcf_workloads.Configs.attentions

let ansor_row spec name =
  let chain =
    match Mcf_serve.Protocol.chain_of_workload name with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let label = Printf.sprintf "%s %s" name spec.Mcf_gpu.Spec.name in
  match B.Ansor.backend.tune spec chain with
  | Error _ -> (label, "unsupported", "")
  | Ok o ->
    ( label,
      Printf.sprintf "%h %h fused=%b" o.time_s o.tuning_virtual_s o.fused,
      String.concat " "
        (List.map
           (fun k ->
             Printf.sprintf "%016Lx"
               (Mcf_util.Hashing.fnv1a64 (Mcf_gpu.Kernel.fingerprint k)))
           o.kernels) )

let ansor_golden =
  [ ( "G1 A100",
      "0x1.7b84563704c6cp-18 0x1.c6309b3939a2fp+8 fused=true",
      "79b56874613afb45" );
    ( "G2 A100",
      "0x1.88595026ab5e5p-18 0x1.c6310e8d53a52p+8 fused=true",
      "edf53ef6bc35492a" );
    ( "G3 A100",
      "0x1.ab3cc4810495cp-18 0x1.c634d9ddf8c95p+8 fused=true",
      "038907ae51669811" );
    ( "G4 A100",
      "0x1.ec79bbaa0979ep-17 0x1.c63b0a313d472p+8 fused=true",
      "b8acd3ed3d7a1b19" );
    ( "G5 A100",
      "0x1.6d478171215f9p-16 0x1.c64342fc558a9p+8 fused=true",
      "a7113253fbef0e18" );
    ( "G6 A100",
      "0x1.306b972020751p-15 0x1.c64e8ec85312cp+8 fused=true",
      "846010dac125f96e" );
    ( "G7 A100",
      "0x1.440e5b06876ecp-17 0x1.c637ffc5f90ebp+8 fused=true",
      "7b513dabd1a346cd" );
    ( "G8 A100",
      "0x1.77f3971101a87p-17 0x1.c637736071fdbp+8 fused=true",
      "7678035e9c158d82" );
    ( "G9 A100",
      "0x1.d5944231198bfp-17 0x1.c63bbf8f447adp+8 fused=true",
      "33189386dd6bc8a8" );
    ( "G10 A100",
      "0x1.3a10926f35032p-16 0x1.c63aec38abf49p+8 fused=true",
      "9e6183ccc45fad1e" );
    ( "G11 A100",
      "0x1.37c164ce7449ap-15 0x1.c643b23aa8d9p+8 fused=true",
      "a281e2fd91549851" );
    ( "G12 A100",
      "0x1.291a1de450fa5p-14 0x1.c2p+8 fused=false",
      "d949cfa191926a62 a13a1d8148860ff8" );
    ( "S1 A100",
      "0x1.2756066552588p-15 0x1.c2p+8 fused=false",
      "a24e50699d15aa37 778a164066763743 deec94e3a444494d" );
    ( "S2 A100",
      "0x1.5955722f83ff2p-15 0x1.c2p+8 fused=false",
      "35acd85bf5d5da6c 6f3d8bf74b687626 0837efc09988b3bd" );
    ( "S3 A100",
      "0x1.8a18dc02bcdb6p-15 0x1.c2p+8 fused=false",
      "1a631d5071b05702 60574d111780c7bf 40152cb94e4c197b" );
    ( "S4 A100",
      "0x1.af7fffcf2aeb1p-16 0x1.c2p+8 fused=false",
      "3647563431605a6a 403f60ae811e3e72 fa8741ccdda68c1f" );
    ( "S5 A100",
      "0x1.c9edcfc9ec79ep-16 0x1.c2p+8 fused=false",
      "a27f3946cb31e3b6 6598383317f900dc 99520ce13b4742b4" );
    ( "S6 A100",
      "0x1.f35627a1076f9p-16 0x1.c2p+8 fused=false",
      "84755404aad435b9 6598383317f900dc 54e1e07710308fd3" );
    ( "S7 A100",
      "0x1.7c15a6e841f56p-18 0x1.c632e2281ae76p+8 fused=true",
      "4968d26d4f0316b6" );
    ( "S8 A100",
      "0x1.a368934a72a15p-18 0x1.c636ba500485ap+8 fused=true",
      "b43b172a1eef2ba5" );
    ( "S9 A100",
      "0x1.085ccdda43975p-17 0x1.c6384adfe388fp+8 fused=true",
      "2bfe931aacf3b2c5" );
    ( "G1 RTX3080",
      "0x1.aac1f42474cf1p-18 0x1.c63151d5a6a7cp+8 fused=true",
      "48a90dceafd30e7a" );
    ( "G2 RTX3080",
      "0x1.e8edf095abcaep-18 0x1.c63344e9c5e64p+8 fused=true",
      "fbb147e23791433f" );
    ( "G3 RTX3080",
      "0x1.24d060b21c09cp-17 0x1.c6337aee7016bp+8 fused=true",
      "e05b075faebca4e8" );
    ( "G4 RTX3080",
      "0x1.791b46bbdd30bp-16 0x1.c63b46492d6ffp+8 fused=true",
      "7d2045ae0515408c" );
    ( "G5 RTX3080",
      "0x1.2aa0ca30559b2p-15 0x1.c651c09989a82p+8 fused=true",
      "73e7a522b9a4b075" );
    ( "G6 RTX3080",
      "0x1.e9762b8aea0b6p-15 0x1.c66c02bf0958bp+8 fused=true",
      "ed1f66fc914d079a" );
    ( "G7 RTX3080",
      "0x1.c34ddd076ca8ap-17 0x1.c63085bbadbedp+8 fused=true",
      "7fb8f67fbf492a05" );
    ( "G8 RTX3080",
      "0x1.1223082f9d5aap-16 0x1.c63876aab5e47p+8 fused=true",
      "72c23d9cb427f515" );
    ( "G9 RTX3080",
      "0x1.9255852853388p-16 0x1.c63b3bd0029p+8 fused=true",
      "f41e859529f06894" );
    ( "G10 RTX3080",
      "0x1.d4f696daa8345p-16 0x1.c647148b98dabp+8 fused=true",
      "4337f57c8feeae8f" );
    ( "G11 RTX3080",
      "0x1.37874563ea46dp-14 0x1.c6637ac612dc4p+8 fused=true",
      "b8641e321d2d1803" );
    ( "G12 RTX3080",
      "0x1.5e5b7c9cbd41fp-13 0x1.c2p+8 fused=false",
      "d949cfa191926a62 7041fd5ab2c1db27" );
    ( "S1 RTX3080",
      "0x1.ac3e9d8457d98p-15 0x1.c2p+8 fused=false",
      "1d46d33ef31e02e0 778a164066763743 deec94e3a444494d" );
    ( "S2 RTX3080",
      "0x1.28b85213583fdp-14 0x1.c2p+8 fused=false",
      "35acd85bf5d5da6c 6f3d8bf74b687626 0837efc09988b3bd" );
    ( "S3 RTX3080",
      "0x1.59a20f83fba3ap-14 0x1.c2p+8 fused=false",
      "1a631d5071b05702 60574d111780c7bf 40152cb94e4c197b" );
    ( "S4 RTX3080",
      "0x1.115c710992276p-15 0x1.c2p+8 fused=false",
      "3647563431605a6a 403f60ae811e3e72 fa8741ccdda68c1f" );
    ( "S5 RTX3080",
      "0x1.26e4e99dbdc35p-15 0x1.c2p+8 fused=false",
      "535d04be88ca2326 6598383317f900dc 99520ce13b4742b4" );
    ( "S6 RTX3080",
      "0x1.4e440bf4133fp-15 0x1.c2p+8 fused=false",
      "84755404aad435b9 6598383317f900dc fb62b37ffe6ec837" );
    ( "S7 RTX3080",
      "0x1.b6d8a4dc1b39cp-18 0x1.c631c5329f961p+8 fused=true",
      "e9c92972bfcab498" );
    ( "S8 RTX3080",
      "0x1.29579f0d31757p-17 0x1.c6348f6147a6p+8 fused=true",
      "5d186763a010970d" );
    ( "S9 RTX3080",
      "0x1.6c387cf1fd0a1p-17 0x1.c63446f09a45dp+8 fused=true",
      "05032322b043fc36" ) ]

let test_ansor_golden () =
  List.iter
    (fun jobs ->
      let saved = Mcf_util.Pool.jobs () in
      Fun.protect
        ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
        (fun () ->
          Mcf_util.Pool.set_jobs jobs;
          Alcotest.(check (list (triple string string string)))
            (Printf.sprintf "Ansor outcomes at jobs %d" jobs)
            ansor_golden
            (List.concat_map
               (fun spec -> List.map (ansor_row spec) table_names)
               [ a100; rtx ])))
    [ 1; 4 ]

(* --- Chimera / MCFuser ------------------------------------------------------------- *)

let test_chimera_runs () =
  match B.Chimera.backend.tune a100 gemm with
  | Ok o ->
    Alcotest.(check bool) "fused" true o.fused;
    Alcotest.(check string) "named for reports" "MCFuser-Chimera" o.backend
  | Error _ -> Alcotest.fail "Chimera failed"

let test_mcfuser_backend_wraps_tuner () =
  match B.Mcfuser_backend.backend.tune a100 gemm with
  | Ok o ->
    Alcotest.(check bool) "fused single kernel" true
      (o.fused && List.length o.kernels = 1)
  | Error _ -> Alcotest.fail "MCFuser backend failed"

let test_mcfuser_beats_pytorch () =
  match (B.Mcfuser_backend.backend.tune a100 gemm, B.Pytorch.backend.tune a100 gemm)
  with
  | Ok f, Ok p ->
    Alcotest.(check bool) "MBCI fusion wins" true (f.time_s < p.time_s)
  | _ -> Alcotest.fail "backends failed"

let test_mcfuser_beats_flash_on_s1 () =
  match
    ( B.Mcfuser_backend.backend.tune a100 attn,
      B.Flash_attention.backend.tune a100 attn )
  with
  | Ok f, Ok fa ->
    Alcotest.(check bool) "searched schedule beats handcrafted" true
      (f.time_s < fa.time_s)
  | _ -> Alcotest.fail "backends failed"

(* Chimera's data-movement objective and the ablation's no-alpha model
   rank the same enumeration as the full tuner; pin what each search
   picks: winner key, measured time and virtual tuning seconds. *)
let objective_fingerprint (name, wl) =
  let chain =
    match Mcf_serve.Protocol.chain_of_workload wl with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let label = Printf.sprintf "%s %s" name wl in
  let row key time_s virtual_s =
    (label, key, Printf.sprintf "%.17g %.17g" time_s virtual_s)
  in
  match name with
  | "Chimera" -> (
    match B.Chimera.backend.tune a100 chain with
    | Error _ -> (label, "unsupported", "")
    | Ok o ->
      (* A fused kernel is named [<chain>[<candidate key>]]. *)
      let kname = (List.hd o.kernels).Mcf_gpu.Kernel.kname in
      let skip = String.length chain.cname + 1 in
      row
        (String.sub kname skip (String.length kname - skip - 1))
        o.time_s o.tuning_virtual_s)
  | _ -> (
    match Mcf_experiments.Exp_ablation.tune_no_alpha a100 chain with
    | Error _ -> (label, "no viable candidate", "")
    | Ok o ->
      row
        (Mcf_ir.Candidate.key o.best.cand)
        o.kernel_time_s o.tuning_virtual_s)

let objective_golden =
  [ ( "Chimera G1",
      "mnkh {h=16 k=64 m=32 n=256}",
      "4.9041553456897276e-06 18.855566986404874" );
    ( "no-alpha G1",
      "mn(k,h) {h=64 k=64 m=64 n=64}",
      "6.3442859514457476e-06 56.978743767266472" );
    ( "Chimera G4",
      "mnkh {h=64 k=128 m=32 n=256}",
      "9.4644191625529078e-06 38.103937567774395" );
    ( "no-alpha G4",
      "mn(k,h) {h=128 k=128 m=64 n=128}",
      "1.9550944817948204e-05 53.371611019165357" );
    ( "Chimera S3",
      "mnkh {h=64 k=32 m=64 n=128}",
      "1.10133675288221e-05 35.096051861326742" );
    ( "no-alpha S3",
      "mnkh {h=64 k=64 m=128 n=256}",
      "1.2827107921822133e-05 44.939560197170792" ) ]

let test_objective_golden () =
  Alcotest.(check (list (triple string string string)))
    "objective outcomes" objective_golden
    (List.map objective_fingerprint
       (List.concat_map
          (fun wl -> [ ("Chimera", wl); ("no-alpha", wl) ])
          [ "G1"; "G4"; "S3" ]))

let () =
  Alcotest.run "mcf_baselines"
    [ ( "op-kernels",
        [ Alcotest.test_case "gemm valid" `Quick test_gemm_kernel_valid;
          Alcotest.test_case "cublas beats fixed" `Quick
            test_gemm_cublas_beats_fixed;
          Alcotest.test_case "split-K" `Quick test_gemm_split_k;
          Alcotest.test_case "memory op" `Quick test_memory_op_traffic;
          Alcotest.test_case "softmax kernels" `Quick test_softmax_kernels ] );
      ( "xgb",
        [ Alcotest.test_case "learns" `Quick test_xgb_learns;
          Alcotest.test_case "deterministic" `Quick test_xgb_deterministic;
          Alcotest.test_case "errors" `Quick test_xgb_errors;
          Alcotest.test_case "features" `Quick test_xgb_features ] );
      ("derate", [ Alcotest.test_case "math only" `Quick test_derate_math ]);
      ( "pytorch/relay",
        [ Alcotest.test_case "gemm chain" `Quick test_pytorch_gemm_chain;
          Alcotest.test_case "attention kernels" `Quick
            test_pytorch_attention_kernels;
          Alcotest.test_case "relay fuses softmax" `Quick
            test_relay_fewer_kernels ] );
      ( "bolt",
        [ Alcotest.test_case "sm86" `Quick test_bolt_sm86_unsupported;
          Alcotest.test_case "no attention pattern" `Quick
            test_bolt_no_attention;
          Alcotest.test_case "fuses dual gemm" `Quick
            test_bolt_fuses_small_chain;
          Alcotest.test_case "fallback big N" `Quick
            test_bolt_fallback_on_large_n ] );
      ( "flash-attention",
        [ Alcotest.test_case "attention only" `Quick
            test_flash_requires_attention;
          Alcotest.test_case "K = H" `Quick test_flash_requires_k_eq_h;
          Alcotest.test_case "head dim" `Quick test_flash_head_dim_limit;
          Alcotest.test_case "runs" `Quick test_flash_runs_attention ] );
      ( "ansor",
        [ Alcotest.test_case "fuses small batch" `Quick
            test_ansor_fuses_small_batch;
          Alcotest.test_case "fallback big batch" `Quick
            test_ansor_fallback_large_batch;
          Alcotest.test_case "golden outcomes" `Quick test_ansor_golden ] );
      ( "mcfuser-vs",
        [ Alcotest.test_case "chimera runs" `Quick test_chimera_runs;
          Alcotest.test_case "backend wrapper" `Quick
            test_mcfuser_backend_wraps_tuner;
          Alcotest.test_case "beats pytorch" `Quick test_mcfuser_beats_pytorch;
          Alcotest.test_case "beats flash-attention" `Quick
            test_mcfuser_beats_flash_on_s1;
          Alcotest.test_case "objective golden outcomes" `Quick
            test_objective_golden ] ) ]
