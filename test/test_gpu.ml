(* Tests for the GPU substrate: hardware specs, the kernel cost simulator
   (occupancy, waves, bounds, failure modes) and the virtual clock. *)

module Spec = Mcf_gpu.Spec
module Kernel = Mcf_gpu.Kernel
module Sim = Mcf_gpu.Sim
module Clock = Mcf_gpu.Clock

let a100 = Spec.a100

let base_kernel =
  { Kernel.kname = "k";
    blocks = 256;
    smem_bytes = 32 * 1024;
    accesses =
      [ { Kernel.label = "A";
          bytes_per_block = 1.0e5;
          unique_bytes = 2.56e7;
          row_bytes = 256;
          direction = Kernel.Load };
        { Kernel.label = "C";
          bytes_per_block = 5.0e4;
          unique_bytes = 1.28e7;
          row_bytes = 256;
          direction = Kernel.Store } ];
    computes =
      [ { Kernel.clabel = "C";
          flops_per_block = 1.0e8;
          tile_m = 128;
          tile_n = 128;
          tile_k = 64 } ];
    stmt_trips_per_block = 64.0 }

let time k = Sim.time_exn ~noise:false a100 k

(* --- Spec ---------------------------------------------------------------- *)

let test_spec_lookup () =
  Alcotest.(check bool) "a100" true (Spec.by_name "a100" <> None);
  Alcotest.(check bool) "case insensitive" true (Spec.by_name "RTX3080" <> None);
  Alcotest.(check bool) "unknown" true (Spec.by_name "h100" = None)

let test_spec_roofline () =
  Alcotest.(check (float 1.0)) "A100 P/W" 200.6 (Spec.roofline_ratio a100);
  Alcotest.(check bool) "3080 lower peak" true
    (Spec.rtx3080.peak_flops < a100.peak_flops)

let test_spec_fields () =
  Alcotest.(check int) "A100 SMs" 108 a100.sm_count;
  Alcotest.(check string) "sm86" "sm86" Spec.rtx3080.compute_capability;
  Alcotest.(check int) "fp16 elements" 2 a100.elem_bytes

(* --- Sim: failure modes -------------------------------------------------- *)

let test_smem_overflow () =
  let k = { base_kernel with Kernel.smem_bytes = a100.smem_per_block + 1 } in
  match Sim.run a100 k with
  | Error (Sim.Smem_overflow { used; limit }) ->
    Alcotest.(check int) "used" (a100.smem_per_block + 1) used;
    Alcotest.(check int) "limit" a100.smem_per_block limit
  | Ok _ | Error Sim.Empty_grid -> Alcotest.fail "expected overflow"

let test_empty_grid () =
  match Sim.run a100 { base_kernel with Kernel.blocks = 0 } with
  | Error Sim.Empty_grid -> ()
  | _ -> Alcotest.fail "expected empty grid error"

(* --- Sim: monotonicity and structure ------------------------------------- *)

let test_more_traffic_slower () =
  let heavier =
    { base_kernel with
      Kernel.accesses =
        List.map
          (fun (a : Kernel.access) ->
            { a with bytes_per_block = a.bytes_per_block *. 4.0;
                     unique_bytes = a.unique_bytes *. 4.0 })
          base_kernel.accesses }
  in
  Alcotest.(check bool) "4x traffic strictly slower" true
    (time heavier > time base_kernel)

let test_more_flops_slower () =
  let heavier =
    { base_kernel with
      Kernel.computes =
        List.map
          (fun (c : Kernel.compute) ->
            { c with flops_per_block = c.flops_per_block *. 50.0 })
          base_kernel.computes }
  in
  Alcotest.(check bool) "more flops slower" true
    (time heavier > time base_kernel)

let test_launch_overhead_floor () =
  let tiny =
    { base_kernel with
      Kernel.blocks = 1;
      accesses = [];
      computes = [];
      stmt_trips_per_block = 0.0 }
  in
  Alcotest.(check bool) "at least launch latency" true
    (time tiny >= a100.launch_overhead_s)

let test_occupancy_from_smem () =
  let v k =
    match Sim.run ~noise:false a100 k with
    | Ok v -> v
    | Error e -> Alcotest.failf "sim error: %s" (Sim.string_of_error e)
  in
  let small = v { base_kernel with Kernel.smem_bytes = 16 * 1024 } in
  let big = v { base_kernel with Kernel.smem_bytes = 120 * 1024 } in
  Alcotest.(check bool) "smem limits blocks in flight" true
    (big.blocks_in_flight < small.blocks_in_flight);
  Alcotest.(check bool) "more waves when fewer in flight" true
    (big.waves >= small.waves)

let test_wave_count () =
  let v =
    match Sim.run ~noise:false a100 { base_kernel with Kernel.blocks = 108 } with
    | Ok v -> v
    | Error _ -> Alcotest.fail "sim error"
  in
  Alcotest.(check int) "one wave when blocks <= in flight" 1 v.waves

let test_bound_classification () =
  let mem_kernel =
    { base_kernel with
      Kernel.computes = [];
      accesses =
        [ { Kernel.label = "A";
            bytes_per_block = 1.0e6;
            unique_bytes = 2.56e8;
            row_bytes = 256;
            direction = Kernel.Load } ] }
  in
  let comp_kernel =
    { base_kernel with
      Kernel.accesses = [];
      computes =
        [ { Kernel.clabel = "C";
            flops_per_block = 1.0e10;
            tile_m = 128;
            tile_n = 128;
            tile_k = 64 } ] }
  in
  (match Sim.run ~noise:false a100 mem_kernel with
  | Ok v -> Alcotest.(check bool) "memory bound" true (v.bound = Sim.Memory)
  | Error _ -> Alcotest.fail "sim error");
  match Sim.run ~noise:false a100 comp_kernel with
  | Ok v -> Alcotest.(check bool) "compute bound" true (v.bound = Sim.Compute)
  | Error _ -> Alcotest.fail "sim error"

let test_noise_deterministic () =
  let t1 = Sim.time_exn a100 base_kernel in
  let t2 = Sim.time_exn a100 base_kernel in
  Alcotest.(check (float 0.0)) "same kernel same noise" t1 t2;
  let clean = time base_kernel in
  Alcotest.(check bool) "noise within 3%" true
    (Float.abs (t1 -. clean) /. clean <= 0.031)

let test_noise_differs_across_kernels () =
  let k2 = { base_kernel with Kernel.kname = "other" } in
  let r1 = Sim.time_exn a100 base_kernel /. time base_kernel in
  let r2 = Sim.time_exn a100 k2 /. time k2 in
  Alcotest.(check bool) "fingerprint changes noise" true (r1 <> r2)

let test_devices_differ () =
  let ta = Sim.time_exn ~noise:false a100 base_kernel in
  let tr = Sim.time_exn ~noise:false Spec.rtx3080 base_kernel in
  Alcotest.(check bool) "A100 faster" true (ta < tr)

let test_l2_reuse_discount () =
  (* re-reads beyond the unique footprint get discounted when the footprint
     fits in L2 *)
  let fits =
    { base_kernel with
      Kernel.accesses =
        [ { Kernel.label = "A";
            bytes_per_block = 1.0e6;
            unique_bytes = 1.0e6 (* 1 MB fits L2; rest are re-reads *);
            row_bytes = 256;
            direction = Kernel.Load } ] }
  in
  let misses =
    { fits with
      Kernel.accesses =
        [ { Kernel.label = "A";
            bytes_per_block = 1.0e6;
            unique_bytes = 2.56e8 (* everything unique: all DRAM *);
            row_bytes = 256;
            direction = Kernel.Load } ] }
  in
  Alcotest.(check bool) "L2 reuse is faster" true (time fits < time misses)

let test_coalesce_efficiency () =
  Alcotest.(check (float 1e-9)) "wide rows full bw" 1.0
    (Sim.coalesce_efficiency ~row_bytes:256);
  Alcotest.(check bool) "narrow rows penalized" true
    (Sim.coalesce_efficiency ~row_bytes:32 < 0.7)

let test_tc_efficiency () =
  let big = Sim.tensor_core_efficiency ~m:128 ~n:128 ~k:64 in
  let small = Sim.tensor_core_efficiency ~m:16 ~n:16 ~k:16 in
  Alcotest.(check bool) "big tiles better" true (big > small);
  Alcotest.(check bool) "never exceeds 0.9" true (big <= 0.9);
  Alcotest.(check bool) "small tiles above 0.3" true (small > 0.3)

let test_run_sequence () =
  let t1 = Sim.time_exn a100 base_kernel in
  match Sim.run_sequence a100 [ base_kernel; base_kernel ] with
  | Ok t -> Alcotest.(check (float 1e-12)) "sums" (2.0 *. t1) t
  | Error _ -> Alcotest.fail "sequence failed"

let test_run_sequence_error () =
  let bad = { base_kernel with Kernel.smem_bytes = 10_000_000 } in
  match Sim.run_sequence a100 [ base_kernel; bad ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure"

let test_kernel_totals () =
  Alcotest.(check (float 1.0)) "total flops" (1.0e8 *. 256.0)
    (Kernel.total_flops base_kernel);
  Alcotest.(check (float 1.0)) "total bytes" (1.5e5 *. 256.0)
    (Kernel.total_bytes base_kernel)

let test_fingerprint_sensitivity () =
  let k2 = { base_kernel with Kernel.blocks = 257 } in
  Alcotest.(check bool) "blocks in fingerprint" true
    (Kernel.fingerprint base_kernel <> Kernel.fingerprint k2)

(* The fingerprint as first written, with [Printf]: the byte format that
   fixes every noisy time, and the oracle [Kernel.fingerprint] must match. *)
let printf_fingerprint (k : Kernel.t) =
  String.concat ""
    ((Printf.sprintf "%s|g%d|s%d" k.kname k.blocks k.smem_bytes
     :: List.map
          (fun (a : Kernel.access) ->
            Printf.sprintf "|%s%c%.0f/%.0f/%d" a.label
              (match a.direction with Kernel.Load -> 'L' | Kernel.Store -> 'S')
              a.bytes_per_block a.unique_bytes a.row_bytes)
          k.accesses)
    @ List.map
        (fun (c : Kernel.compute) ->
          Printf.sprintf "|C%s%.0f/%d/%d/%d" c.clabel c.flops_per_block
            c.tile_m c.tile_n c.tile_k)
        k.computes)

let compiled_kernels ?reservoir spec chain =
  fst (Mcf_search.Space.enumerate ?reservoir spec chain)
  |> List.filter_map (fun e ->
         Result.to_option
           (Mcf_codegen.Compile.compile spec (Mcf_search.Space.lowered e)))

let deep name =
  Mcf_workloads.Configs.(deep_chain (Option.get (find_deep name)))

(* The compiled kernel of every valid candidate of Tables II and III on
   both devices, and of D5/D6 at reservoir 256. *)
let space_kernels =
  lazy
    (let module W = Mcf_workloads.Configs in
     let chains =
       List.map W.gemm_chain W.gemm_chains
       @ List.map W.attention W.attentions
     in
     let with_spec ?reservoir spec chain =
       List.map (fun k -> (spec, k)) (compiled_kernels ?reservoir spec chain)
     in
     List.concat_map
       (fun spec -> List.concat_map (with_spec spec) chains)
       [ a100; Spec.rtx3080 ]
     @ List.concat_map (with_spec ~reservoir:256 a100) [ deep "D5"; deep "D6" ])

let test_fingerprint_matches_printf () =
  let kernels = Lazy.force space_kernels in
  Alcotest.(check bool) "thousands of kernels" true (List.length kernels > 10_000);
  (* Report only the first mismatch: a check per kernel floods the log. *)
  (match
     List.find_opt
       (fun ((_ : Spec.t), k) -> printf_fingerprint k <> Kernel.fingerprint k)
       kernels
   with
  | None -> ()
  | Some (_, k) ->
    Alcotest.(check string) k.Kernel.kname (printf_fingerprint k)
      (Kernel.fingerprint k));
  let edge x =
    { base_kernel with
      Kernel.accesses =
        [ { (List.hd base_kernel.accesses) with
            Kernel.bytes_per_block = x;
            unique_bytes = -.x } ];
      computes =
        [ { (List.hd base_kernel.computes) with Kernel.flops_per_block = x } ] }
  in
  List.iter
    (fun x ->
      let k = edge x in
      Alcotest.(check string) (Printf.sprintf "%h" x) (printf_fingerprint k)
        (Kernel.fingerprint k))
    [ 0.0; -0.0; 0.5; 1.5; 2.5; 3.5; -2.5; 7.0; -7.0; 1e20; 0x1p53; 0x1p53 +. 2.0;
      0x1p53 -. 1.0; Float.nan; Float.infinity; Float.neg_infinity;
      float_of_int max_int ];
  Alcotest.(check string) "-0.0 prints -0" "k|g256|s32768|AL-0/0/256|CC-0/128/128/64"
    (Kernel.fingerprint (edge (-0.0)));
  let big = { base_kernel with Kernel.blocks = min_int; smem_bytes = max_int } in
  Alcotest.(check string) "min_int/max_int" (printf_fingerprint big)
    (Kernel.fingerprint big)

(* Every noisy time is the clean time scaled by the FNV of the Printf
   fingerprint and the device name, to the bit. *)
let test_noise_seeded_by_printf_fingerprint () =
  let bits (spec : Spec.t) k =
    let h =
      Mcf_util.Hashing.combine
        (Mcf_util.Hashing.fnv1a64 (printf_fingerprint k))
        spec.name
    in
    let noise = 1.0 +. (0.06 *. (Mcf_util.Hashing.to_unit_float h -. 0.5)) in
    ( Int64.bits_of_float (Sim.time_exn ~noise:false spec k *. noise),
      Int64.bits_of_float (Sim.time_exn spec k) )
  in
  match
    List.find_opt
      (fun (spec, k) ->
        let want, got = bits spec k in
        want <> got)
      (Lazy.force space_kernels)
  with
  | None -> ()
  | Some (spec, k) ->
    let want, got = bits spec k in
    Alcotest.(check int64) k.Kernel.kname want got

(* Seeding the noise costs no more than the run it seeds: minor words are
   deterministic, so this needs no timing gate. *)
let test_noise_allocation () =
  let words noise k =
    let before = Gc.minor_words () in
    for _ = 1 to 10 do
      ignore (Sim.run ~noise a100 k)
    done;
    (Gc.minor_words () -. before) /. 10.0
  in
  List.iter
    (fun (chain, reservoir) ->
      let k = List.hd (compiled_kernels ?reservoir a100 chain) in
      let quiet = words false k and noisy = words true k in
      if noisy > 2.0 *. quiet then
        Alcotest.failf "%s: %.0f words with noise, %.0f without" chain.Mcf_ir.Chain.cname
          noisy quiet)
    [ (Mcf_workloads.Configs.(gemm_chain (List.hd gemm_chains)), None);
      (deep "D6", Some 256) ]

let test_per_block_bandwidth_cap () =
  (* the same total traffic is slower when one block must move it alone *)
  let total = 1.0e8 in
  let mk blocks =
    { base_kernel with
      Kernel.blocks;
      computes = [];
      stmt_trips_per_block = 0.0;
      accesses =
        [ { Kernel.label = "A";
            bytes_per_block = total /. float_of_int blocks;
            unique_bytes = total;
            row_bytes = 256;
            direction = Kernel.Load } ] }
  in
  Alcotest.(check bool) "single block cannot saturate DRAM" true
    (time (mk 1) > 2.0 *. time (mk 256))

let test_explain () =
  let s = Sim.explain a100 base_kernel in
  let has sub =
    let ns = String.length s and msub = String.length sub in
    let rec go i = i + msub <= ns && (String.sub s i msub = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names kernel" true (has "k on A100");
  Alcotest.(check bool) "shows bound" true (has "bound");
  Alcotest.(check bool) "per-access lines" true (has "effective DRAM");
  let bad = { base_kernel with Kernel.smem_bytes = 10_000_000 } in
  Alcotest.(check bool) "failure explained" true
    (let s = Sim.explain a100 bad in
     let ns = String.length s in
     ns > 0 && (let sub = "DOES NOT LAUNCH" in
                let msub = String.length sub in
                let rec go i = i + msub <= ns && (String.sub s i msub = sub || go (i + 1)) in
                go 0))

(* --- Clock --------------------------------------------------------------- *)

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.elapsed_s c);
  Clock.charge c 2.5;
  Clock.charge_compile c ~toolchain_s:1.5;
  Alcotest.(check (float 1e-9)) "accumulates" 4.0 (Clock.elapsed_s c);
  Clock.charge c (-5.0);
  Alcotest.(check (float 1e-9)) "negative charges ignored" 4.0
    (Clock.elapsed_s c);
  Clock.reset c;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Clock.elapsed_s c)

let test_clock_measure () =
  let c = Clock.create () in
  Clock.charge_measure c ~kernel_time_s:1e-3 ~repeats:10;
  Alcotest.(check bool) "session overhead + repeats" true
    (Clock.elapsed_s c >= 0.01 && Clock.elapsed_s c < 0.02)

let test_wall_clock () =
  let r, w = Clock.with_wall_clock (fun () -> 42) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "non-negative time" true (w >= 0.0)

(* --- properties ---------------------------------------------------------- *)

let prop_sim_time_positive =
  QCheck.Test.make ~count:100 ~name:"sim time always positive"
    QCheck.(triple (int_range 1 10000) (float_range 0.0 1e7) (float_range 0.0 1e9))
    (fun (blocks, bytes, flops) ->
      let k =
        { base_kernel with
          Kernel.blocks;
          accesses =
            [ { Kernel.label = "x";
                bytes_per_block = bytes;
                unique_bytes = bytes *. float_of_int blocks;
                row_bytes = 128;
                direction = Kernel.Load } ];
          computes =
            [ { Kernel.clabel = "c";
                flops_per_block = flops;
                tile_m = 64;
                tile_n = 64;
                tile_k = 32 } ] }
      in
      match Sim.run a100 k with
      | Ok v -> v.time_s > 0.0 && Float.is_finite v.time_s
      | Error _ -> false)

let prop_more_blocks_not_faster =
  QCheck.Test.make ~count:50 ~name:"scaling grid scales time sublinearly"
    QCheck.(int_range 1 6)
    (fun mult ->
      let k n = { base_kernel with Kernel.blocks = 108 * n } in
      let t1 = time (k 1) and tn = time (k mult) in
      tn >= t1 -. 1e-12 && tn <= (t1 *. float_of_int mult) +. 1e-9)

let () =
  Alcotest.run "mcf_gpu"
    [ ( "spec",
        [ Alcotest.test_case "lookup" `Quick test_spec_lookup;
          Alcotest.test_case "roofline" `Quick test_spec_roofline;
          Alcotest.test_case "fields" `Quick test_spec_fields ] );
      ( "sim-errors",
        [ Alcotest.test_case "smem overflow" `Quick test_smem_overflow;
          Alcotest.test_case "empty grid" `Quick test_empty_grid ] );
      ( "sim-model",
        [ Alcotest.test_case "traffic monotone" `Quick test_more_traffic_slower;
          Alcotest.test_case "flops monotone" `Quick test_more_flops_slower;
          Alcotest.test_case "launch floor" `Quick test_launch_overhead_floor;
          Alcotest.test_case "occupancy from smem" `Quick
            test_occupancy_from_smem;
          Alcotest.test_case "wave count" `Quick test_wave_count;
          Alcotest.test_case "bound classification" `Quick
            test_bound_classification;
          Alcotest.test_case "noise deterministic" `Quick
            test_noise_deterministic;
          Alcotest.test_case "noise per kernel" `Quick
            test_noise_differs_across_kernels;
          Alcotest.test_case "devices differ" `Quick test_devices_differ;
          Alcotest.test_case "L2 reuse" `Quick test_l2_reuse_discount;
          Alcotest.test_case "coalescing" `Quick test_coalesce_efficiency;
          Alcotest.test_case "tensor cores" `Quick test_tc_efficiency;
          Alcotest.test_case "run_sequence" `Quick test_run_sequence;
          Alcotest.test_case "run_sequence error" `Quick
            test_run_sequence_error;
          Alcotest.test_case "kernel totals" `Quick test_kernel_totals;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "fingerprint = Printf oracle" `Quick
            test_fingerprint_matches_printf;
          Alcotest.test_case "noise seeded by Printf fingerprint" `Quick
            test_noise_seeded_by_printf_fingerprint;
          Alcotest.test_case "noise allocation" `Quick test_noise_allocation;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "per-block bandwidth cap" `Quick
            test_per_block_bandwidth_cap ] );
      ( "clock",
        [ Alcotest.test_case "accumulate/reset" `Quick test_clock;
          Alcotest.test_case "measure session" `Quick test_clock_measure;
          Alcotest.test_case "wall clock" `Quick test_wall_clock ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sim_time_positive; prop_more_blocks_not_faster ] ) ]
