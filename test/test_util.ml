(* Unit and property tests for Mcf_util: PRNG, statistics, list
   combinators, hashing, table/chart rendering. *)

open Mcf_util

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tol want got = Alcotest.(check (float tol)) msg want got

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.int64 a <> Rng.int64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_float_mean () =
  let rng = Rng.create 13 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  check_close "mean near 0.5" 0.02 0.5 (!sum /. float_of_int n)

let test_rng_bool_balance () =
  let rng = Rng.create 17 in
  let n = 20000 in
  let t = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng then incr t
  done;
  check_close "bool near 50%" 0.03 0.5 (float_of_int !t /. float_of_int n)

let test_rng_gaussian () =
  let rng = Rng.create 23 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng ~mu:2.0 ~sigma:3.0) in
  check_close "gaussian mean" 0.1 2.0 (Stats.mean xs);
  check_close "gaussian stddev" 0.1 3.0 (Stats.stddev xs)

let test_rng_pick () =
  let rng = Rng.create 29 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "picks member" true (Array.mem (Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 31 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i))
    sorted

let test_rng_weighted_index () =
  let rng = Rng.create 37 in
  let w = [| 0.0; 10.0; 0.0 |] in
  for _ = 1 to 100 do
    Alcotest.(check int) "mass on index 1" 1 (Rng.weighted_index rng w)
  done

let test_rng_weighted_zero_mass () =
  let rng = Rng.create 41 in
  let w = [| 0.0; 0.0 |] in
  for _ = 1 to 50 do
    let i = Rng.weighted_index rng w in
    Alcotest.(check bool) "uniform fallback" true (i = 0 || i = 1)
  done

let test_rng_weighted_proportional () =
  let rng = Rng.create 43 in
  let w = [| 1.0; 3.0 |] in
  let n = 20000 in
  let c1 = ref 0 in
  for _ = 1 to n do
    if Rng.weighted_index rng w = 1 then incr c1
  done;
  check_close "3:1 ratio" 0.03 0.75 (float_of_int !c1 /. float_of_int n)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 47 in
  let s = Rng.sample_without_replacement rng 5 10 in
  Alcotest.(check int) "size" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (Listx.dedup ~compare s));
  List.iter
    (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 10))
    s;
  let all = Rng.sample_without_replacement rng 20 10 in
  Alcotest.(check int) "clamped to n" 10 (List.length all)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 5 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

(* xoshiro256** through splitmix64 seeding: the reference generator's
   first outputs (seed 0 starts 0x99ec5f36cb75f2b4), pinned so a change to
   the state's representation cannot move any seeded stream. *)
let test_rng_known_answers () =
  let first8 seed =
    let r = Rng.create seed in
    List.init 8 (fun _ -> Rng.int64 r)
  in
  let check seed want =
    Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) want
      (first8 seed)
  in
  check 0
    [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L;
      0x6aa594f1262d2d2cL; 0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL;
      0x6c160deed2f54c98L; 0x8920ad648fc30a3fL ];
  check 1
    [ 0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L;
      0x642e1c7bc266a3a7L; 0xb27a48e29a233673L; 0x24c123126ffda722L;
      0x123004ef8df510e6L; 0x61954dcc47b1e89dL ];
  check 42
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
      0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
      0xb82154855a65ddb2L; 0xd99a2743ebe60087L ];
  let r = Rng.create 42 in
  let s = Rng.split r in
  Alcotest.(check int64) "split child" 0x8ee445d14631c453L (Rng.int64 s);
  Alcotest.(check int64) "split advances parent once" 0x6104d9866d113a7eL
    (Rng.int64 r)

(* Every kind of draw, in one stream per seed: the values are pinned so a
   change to the state's layout or to a draw's arithmetic that moves any
   draw fails here, not only through the tuner's golden tables.  The
   sampler's weights hold zeros and a negative weight, never drawn, and
   its zero-total fallback draws uniformly. *)
let test_rng_stream_pinned () =
  let check seed ~int64s ~ints ~bools ~floats ~weighted ~uniform ~split
      ~copied =
    let r = Rng.create seed in
    let name what = Printf.sprintf "seed %d %s" seed what in
    Alcotest.(check (list int64))
      (name "int64") int64s
      (List.init 3 (fun _ -> Rng.int64 r));
    Alcotest.(check (list int))
      (name "int") ints
      (List.map (Rng.int r) [ 1; 2; 7; 1000; max_int ]);
    Alcotest.(check (list bool))
      (name "bool") bools
      (List.init 8 (fun _ -> Rng.bool r));
    Alcotest.(check (list (float 0.0)))
      (name "float") floats
      (List.map (Rng.float r) [ 1.0; 3.5; 1e-3 ]);
    let sample = Rng.weighted_sampler r [| 0.0; 2.0; -1.0; 5.0; 0.0; 1.0 |] in
    Alcotest.(check (list int))
      (name "weighted_sampler") weighted
      (List.init 8 (fun _ -> sample ()));
    let sample = Rng.weighted_sampler r [| 0.0; -2.0; 0.0 |] in
    Alcotest.(check (list int))
      (name "zero-total fallback") uniform
      (List.init 6 (fun _ -> sample ()));
    let child = Rng.split r in
    let child_first = Rng.int64 child in
    Alcotest.(check (pair int64 int64))
      (name "split child, parent") split
      (child_first, Rng.int64 r);
    let c = Rng.copy r in
    let copy_first = Rng.int64 c in
    Alcotest.(check (pair int64 int64))
      (name "copy, original") (copied, copied)
      (copy_first, Rng.int64 r)
  in
  check 7
    ~int64s:[ 0xb358faf74ef9765aL; 0x475c3d964f482cd2L; 0xd6f1d349952c7996L ]
    ~ints:[ 0; 0; 1; 429; 481625069074503799 ]
    ~bools:[ false; true; true; false; true; true; false; true ]
    ~floats:[ 0x1.06dbd667cf696p-2; 0x1.a1c46ef5a8084p+0;
              0x1.48343fa6388fep-13 ]
    ~weighted:[ 1; 1; 3; 3; 3; 3; 1; 1 ]
    ~uniform:[ 2; 0; 0; 1; 0; 2 ]
    ~split:(0xbb868632def29accL, 0xeb246dd0cc16bcbeL)
    ~copied:0x6cc12303065089baL;
  check 20261019
    ~int64s:[ 0x529b65ab2d750843L; 0xdc4c3ff9f9647de3L; 0x51fdedd6953568abL ]
    ~ints:[ 0; 0; 5; 475; 3996297635796908709 ]
    ~bools:[ false; true; false; false; true; false; false; false ]
    ~floats:[ 0x1.20eac05a6d856p-1; 0x1.bc26384c712a6p+1;
              0x1.193bbcb1760dbp-11 ]
    ~weighted:[ 3; 3; 1; 3; 3; 5; 5; 1 ]
    ~uniform:[ 1; 1; 0; 0; 2; 1 ]
    ~split:(0xed095ddb06a7ed57L, 0xd2dfee6d74ad10f5L)
    ~copied:0x985ae08cc9241f0fL

(* The state is unboxed: a draw allocates nothing, or only its boxed
   result when it returns an [int64]. *)
let test_rng_draws_do_not_allocate () =
  let r = Rng.create 3 in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    (Gc.minor_words () -. before) /. 1000.0
  in
  check_float "Rng.int" 0.0 (words (fun () -> ignore (Rng.int r 17)));
  check_float "Rng.bool" 0.0 (words (fun () -> ignore (Rng.bool r)));
  Alcotest.(check bool) "Rng.int64: its result only" true
    (words (fun () -> ignore (Rng.int64 r)) <= 3.0);
  let sample = Rng.weighted_sampler r [| 1.0; 0.0; 2.0; 4.0; 0.5 |] in
  check_float "weighted sampler draw" 0.0 (words (fun () -> ignore (sample ())));
  let uniform = Rng.weighted_sampler r [| 0.0; 0.0 |] in
  check_float "zero-total sampler draw" 0.0
    (words (fun () -> ignore (uniform ())))

(* --- Stats --------------------------------------------------------------- *)

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty" 0.0 (Stats.mean [])

let test_geomean () =
  check_close "geomean 2,8" 1e-9 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check_close "geomean 1,2,4" 1e-9 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_close "known" 1e-9 2.0
    (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_minmax () =
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check_raises "min empty"
    (Invalid_argument "Stats.minimum: empty list") (fun () ->
      ignore (Stats.minimum []))

let test_median () =
  check_float "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "empty" 0.0 (Stats.median [])

let test_percentile () =
  let xs = List.init 101 float_of_int in
  check_float "p0" 0.0 (Stats.percentile 0.0 xs);
  check_float "p50" 50.0 (Stats.percentile 50.0 xs);
  check_float "p100" 100.0 (Stats.percentile 100.0 xs);
  check_float "p25" 25.0 (Stats.percentile 25.0 xs)

let test_pearson () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  check_close "perfect" 1e-9 1.0
    (Stats.pearson xs (List.map (fun x -> (2.0 *. x) +. 1.0) xs));
  check_close "anti" 1e-9 (-1.0) (Stats.pearson xs (List.map (fun x -> -.x) xs));
  check_float "constant series" 0.0 (Stats.pearson xs [ 1.0; 1.0; 1.0; 1.0 ]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.pearson: length mismatch") (fun () ->
      ignore (Stats.pearson [ 1.0 ] [ 1.0; 2.0 ]))

let test_spearman () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  let ys = List.map (fun x -> exp x) xs in
  check_close "monotone" 1e-9 1.0 (Stats.spearman xs ys)

let test_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 4 total

(* --- Listx --------------------------------------------------------------- *)

let test_permutations () =
  Alcotest.(check int) "3! perms" 6 (List.length (Listx.permutations [ 1; 2; 3 ]));
  Alcotest.(check int) "4! perms" 24
    (List.length (Listx.permutations [ 1; 2; 3; 4 ]));
  Alcotest.(check int) "unique" 6
    (List.length (Listx.dedup ~compare (Listx.permutations [ 1; 2; 3 ])));
  Alcotest.(check (list (list int))) "empty" [ [] ] (Listx.permutations []);
  List.iter
    (fun l ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "lazy = strict on %d elements" (List.length l))
        (Listx.permutations l)
        (List.of_seq (Listx.seq_permutations l)))
    [ []; [ 7 ]; [ 3; 1 ]; [ 1; 2; 3 ]; [ 5; 2; 9; 4; 1 ] ];
  let s = Listx.seq_permutations [ 1; 2; 3 ] in
  Alcotest.(check (list (list int))) "lazy sequence is persistent"
    (List.of_seq s) (List.of_seq s)

let test_cartesian () =
  Alcotest.(check int) "2x3" 6
    (List.length (Listx.cartesian [ [ 1; 2 ]; [ 3; 4; 5 ] ]));
  Alcotest.(check (list (list int))) "nil" [ [] ] (Listx.cartesian []);
  Alcotest.(check (list (list int))) "empty choice" []
    (Listx.cartesian [ [ 1 ]; [] ])

let test_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take long" [ 1; 2; 3 ] (Listx.take 9 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Listx.drop 9 [ 1; 2; 3 ])

let test_index_of () =
  Alcotest.(check (option int)) "found" (Some 1)
    (Listx.index_of (fun x -> x = 5) [ 3; 5; 7 ]);
  Alcotest.(check (option int)) "missing" None
    (Listx.index_of (fun x -> x = 9) [ 3; 5; 7 ])

let test_dedup () =
  Alcotest.(check (list int)) "sorted dedup" [ 1; 2; 3 ]
    (Listx.dedup ~compare [ 3; 1; 2; 1; 3 ]);
  Alcotest.(check (list string)) "keep order" [ "b"; "a"; "c" ]
    (Listx.dedup_keep_order ~key:Fun.id [ "b"; "a"; "b"; "c"; "a" ])

let test_min_max_by () =
  Alcotest.(check (option int)) "min_by" (Some 3)
    (Listx.min_by float_of_int [ 5; 3; 9 ]);
  Alcotest.(check (option int)) "max_by" (Some 9)
    (Listx.max_by float_of_int [ 5; 3; 9 ]);
  Alcotest.(check (option int)) "empty" None (Listx.min_by float_of_int [])

let test_sum_by () = check_float "sum" 6.0 (Listx.sum_by float_of_int [ 1; 2; 3 ])

let test_range () = Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Listx.range 3)

let test_interleavings () =
  let ways = Listx.interleavings [ 1; 2 ] [ 3; 4 ] in
  Alcotest.(check int) "C(4,2)" 6 (List.length ways);
  List.iter
    (fun l -> Alcotest.(check int) "length preserved" 4 (List.length l))
    ways

(* --- Hashing ------------------------------------------------------------- *)

let test_hashing () =
  Alcotest.(check bool) "deterministic" true
    (Hashing.fnv1a64 "hello" = Hashing.fnv1a64 "hello");
  Alcotest.(check bool) "distinct" true
    (Hashing.fnv1a64 "hello" <> Hashing.fnv1a64 "hellp");
  let u = Hashing.to_unit_float (Hashing.fnv1a64 "x") in
  Alcotest.(check bool) "unit range" true (u >= 0.0 && u < 1.0);
  Alcotest.(check int64) "combine = concat" (Hashing.fnv1a64 "ab")
    (Hashing.combine (Hashing.fnv1a64 "a") "b")

(* FNV-1a 64 reference vectors (offset basis, one byte, a word). *)
let test_fnv_known_answers () =
  List.iter
    (fun (s, want) -> Alcotest.(check int64) (Printf.sprintf "%S" s) want
        (Hashing.fnv1a64 s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L) ]

(* --- Table / Chart ------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has content" true (contains s "yy" && contains s "22");
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only one" ])

let test_table_markdown () =
  let t = Table.create ~headers:[ "col" ] in
  Table.add_row t [ "val" ];
  let md = Table.render_markdown t in
  Alcotest.(check bool) "markdown separator" true (contains md "---");
  Alcotest.(check bool) "value present" true (contains md "val")

let test_fmt () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "us" "12.0us" (Table.fmt_time_s 12e-6);
  Alcotest.(check string) "ms" "3.40ms" (Table.fmt_time_s 3.4e-3);
  Alcotest.(check string) "s" "7.89s" (Table.fmt_time_s 7.89);
  Alcotest.(check string) "h" "2.00h" (Table.fmt_time_s 7200.0);
  Alcotest.(check string) "sci" "1.09e8" (Table.fmt_sci 1.09e8);
  Alcotest.(check string) "sci zero" "0" (Table.fmt_sci 0.0)

let test_chart_bar () =
  let s = Chart.bar ~title:"t" ~unit_label:"u" [ ("aa", 1.0); ("bb", 2.0) ] in
  Alcotest.(check bool) "mentions labels" true (contains s "aa" && contains s "bb")

let test_chart_scatter () =
  let s =
    Chart.scatter ~title:"sc" ~x_label:"x" ~y_label:"y"
      [ (0.0, 0.0); (1.0, 1.0); (0.5, 0.5) ]
  in
  Alcotest.(check bool) "has frame" true (contains s "+---")

let test_chart_line () =
  let s =
    Chart.line ~title:"l" ~x_label:"x" [ ("srs", [ (0.0, 1.0); (1.0, 2.0) ]) ]
  in
  Alcotest.(check bool) "legend" true (contains s "# = srs")

let test_chart_sparkline () =
  Alcotest.(check string) "empty" "" (Chart.sparkline []);
  Alcotest.(check string) "flat series is dashes" "---"
    (Chart.sparkline [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check string) "min to max shape" "_#"
    (Chart.sparkline [ 1.0; 2.0 ]);
  Alcotest.(check string) "midpoint rounds to middle glyph" "_=#"
    (Chart.sparkline [ 0.0; 0.5; 1.0 ]);
  (* Overflow keeps the most recent values, one glyph per value. *)
  let long = List.init 50 float_of_int in
  let s = Chart.sparkline ~max_width:10 long in
  Alcotest.(check int) "truncated to max_width" 10 (String.length s);
  Alcotest.(check bool) "ends at the newest (max) value" true
    (s.[9] = '#')

(* --- Parallel init over a temporary pool --------------------------------- *)

let test_parallel_matches_sequential () =
  let f x = (x * x) + 1 in
  let par ~jobs n =
    Pool.with_pool ~jobs (fun p -> Pool.init ~min_chunk_work:1 p n f)
  in
  Alcotest.(check (array int)) "same result, same order" (Array.init 1000 f)
    (par ~jobs:4 1000);
  Alcotest.(check (array int)) "single domain" (Array.init 1000 f)
    (par ~jobs:1 1000);
  Alcotest.(check (array int)) "more domains than elements" (Array.init 3 f)
    (par ~jobs:16 3)

let test_parallel_array () =
  let a = Array.init 500 (fun i -> i) in
  Alcotest.(check (array int)) "array map" (Array.map succ a)
    (Pool.with_pool ~jobs:3 (fun p ->
         Pool.init ~min_chunk_work:1 p (Array.length a) (fun i -> succ a.(i))))

let test_parallel_exception () =
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      ignore
        (Pool.with_pool ~jobs:4 (fun p ->
             Pool.init ~min_chunk_work:1 p 1000 (fun x ->
                 if x = 777 then failwith "boom" else x))))

let test_parallel_empty () =
  Alcotest.(check (array int)) "empty" [||]
    (Pool.with_pool ~jobs:4 (fun p -> Pool.init ~min_chunk_work:1 p 0 succ))

let test_default_domains () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_init_matches_sequential () =
  let f x = (x * 7) - 3 in
  let seq = Array.init 1000 f in
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check (array int)) "jobs=1" seq
        (Pool.init ~min_chunk_work:1 p 1000 f));
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "jobs=4" seq
        (Pool.init ~min_chunk_work:1 p 1000 f))

let test_pool_init_float_cells () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "init" (Array.init 300 (fun i -> i * i))
        (Pool.init ~min_chunk_work:1 p 300 (fun i -> i * i));
      (* result may use the flat float-array representation; spot-check a
         cell computed by a worker chunk *)
      let fl = Pool.init ~min_chunk_work:1 p 257 float_of_int in
      Alcotest.(check (float 1e-9)) "float cells" 256.0 fl.(256))

let test_pool_empty_singleton () =
  Pool.with_pool ~jobs:4 (fun p ->
      let calls = ref [] in
      let record lo hi = calls := (lo, hi) :: !calls in
      Pool.run_range ~min_chunk_work:1 p 0 record;
      Alcotest.(check (list (pair int int))) "empty range: no body call" []
        !calls;
      Alcotest.(check (array int)) "init 0" [||]
        (Pool.init ~min_chunk_work:1 p 0 succ);
      Pool.run_range ~min_chunk_work:1 p 1 record;
      Alcotest.(check (list (pair int int))) "singleton range: one call"
        [ (0, 1) ] !calls;
      Alcotest.(check (array int)) "init 1" [| 1 |]
        (Pool.init ~min_chunk_work:1 p 1 succ))

let test_pool_exception () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
          ignore
            (Pool.init ~min_chunk_work:1 p 2000 (fun x ->
                 if x = 913 then failwith "boom" else x)));
      Alcotest.(check (array int)) "pool usable after a failed job"
        (Array.init 100 succ)
        (Pool.init ~min_chunk_work:1 p 100 succ))

let test_pool_nested_sequential () =
  (* Calls from inside a pool task must fall back to sequential execution
     instead of deadlocking on the shared pool. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let got =
        Pool.init ~min_chunk_work:1 p 128 (fun i ->
            Array.fold_left ( + ) 0
              (Pool.init ~min_chunk_work:1 p 64 (fun j -> i + j)))
      in
      let want =
        Array.init 128 (fun i ->
            Array.fold_left ( + ) 0 (Array.init 64 (fun j -> i + j)))
      in
      Alcotest.(check (array int)) "nested init" want got)

let test_pool_run_range_covers () =
  Pool.with_pool ~jobs:4 (fun p ->
      List.iter
        (fun (n, mcw) ->
          let label = Printf.sprintf "n=%d min_chunk_work=%d" n mcw in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          let calls = Atomic.make 0 in
          let before = Pool.stats () in
          Pool.run_range ~min_chunk_work:mcw p n (fun lo hi ->
              Atomic.incr calls;
              (* One slow chunk: the others must not wait on it for work. *)
              if lo <= n / 2 && n / 2 < hi then Unix.sleepf 0.002;
              for i = lo to hi - 1 do
                Atomic.incr hits.(i)
              done);
          let after = Pool.stats () in
          Alcotest.(check (array int)) (label ^ ": each index exactly once")
            (Array.make n 1) (Array.map Atomic.get hits);
          (* Ranges below the cutoff run as one inline call, outside the
             chunk counter; every parallel chunk is one body call. *)
          let want_chunks = if n < mcw then 0 else Atomic.get calls in
          if n < mcw then
            Alcotest.(check int) (label ^ ": inline call") 1 (Atomic.get calls);
          Alcotest.(check int) (label ^ ": body calls = chunks delta")
            want_chunks (after.Pool.chunks - before.Pool.chunks))
        (List.concat_map
           (fun n -> List.map (fun mcw -> (n, mcw)) [ 1; 7; 64 ])
           [ 1; 63; 64; 65; 1000; 4097 ]))

let test_pool_concurrent_callers () =
  (* Serve workers share the global pool from several systhreads, so one
     pool must serve concurrent callers: each call covers its own indices
     exactly once and returns. *)
  Pool.with_pool ~jobs:3 (fun p ->
      let caller () =
        let ok = ref true in
        for round = 1 to 200 do
          let n = 50 + round in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Pool.run_range ~min_chunk_work:1 p n (fun lo hi ->
              for i = lo to hi - 1 do
                Atomic.incr hits.(i)
              done);
          if Array.exists (fun h -> Atomic.get h <> 1) hits then ok := false
        done;
        !ok
      in
      let results = Array.make 2 false in
      let threads =
        List.init 2 (fun k ->
            Thread.create (fun () -> results.(k) <- caller ()) ())
      in
      let d = Domain.spawn caller in
      List.iter Thread.join threads;
      let domain_ok = Domain.join d in
      Alcotest.(check (array bool)) "systhread callers" [| true; true |]
        results;
      Alcotest.(check bool) "domain caller" true domain_ok)

let test_pool_global_and_stats () =
  let saved = Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      Pool.set_jobs 3;
      Alcotest.(check int) "set_jobs round-trip" 3 (Pool.jobs ());
      (* The global pool is clamped to the hardware: asking for 3 domains
         on a smaller machine must not oversubscribe it. *)
      let clamped = min 3 (max 1 (Domain.recommended_domain_count ())) in
      Alcotest.(check int) "effective_jobs clamps to cores" clamped
        (Pool.effective_jobs ());
      let p = Pool.get () in
      Alcotest.(check int) "global pool size" clamped (Pool.size p);
      ignore (Pool.init ~min_chunk_work:32 p 10_000 (fun i -> i land 7));
      let after = Pool.stats () in
      Alcotest.(check int) "domains snapshot" clamped after.Pool.domains)

let test_pool_stats_counters () =
  (* Explicit [create ~domains] pools are deliberately unclamped, so the
     counters grow even on a single-core machine. *)
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check int) "explicit pool unclamped" 3 (Pool.size p);
      let before = Pool.stats () in
      ignore (Pool.init ~min_chunk_work:32 p 10_000 (fun i -> i land 7));
      let after = Pool.stats () in
      Alcotest.(check bool) "jobs counter grows" true
        (after.Pool.jobs > before.Pool.jobs);
      Alcotest.(check bool) "chunks counter grows" true
        (after.Pool.chunks > before.Pool.chunks);
      Alcotest.(check bool) "spawned covers workers" true
        (after.Pool.spawned >= Pool.size p - 1);
      (* [busy] is live occupancy, not cumulative: back to 0 once the
         job drains (the resource sampler graphs it mid-run). *)
      Alcotest.(check int) "busy drains to zero at rest" 0 after.Pool.busy)

let test_pool_min_chunk_work () =
  Pool.with_pool ~jobs:4 (fun p ->
      let want = Array.init 2000 succ in
      (* Results are bit-identical whatever the cutoff. *)
      List.iter
        (fun mcw ->
          Alcotest.(check (array int))
            (Printf.sprintf "min_chunk_work=%d" mcw)
            want
            (Pool.init ~min_chunk_work:mcw p 2000 succ))
        [ 1; 64; 512; 5000 ];
      (* Ranges shorter than the cutoff run inline: no pool job counted. *)
      let before = Pool.stats () in
      ignore (Pool.init ~min_chunk_work:5000 p 2000 (fun i -> i));
      let after = Pool.stats () in
      Alcotest.(check int) "sequential below cutoff" before.Pool.jobs
        after.Pool.jobs)

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check (array int)) "sequential after shutdown" [| 2; 3 |]
    (Pool.init ~min_chunk_work:1 p 2 (fun i -> i + 2))

(* --- Once ----------------------------------------------------------------- *)

let test_once_forces_once () =
  let calls = ref 0 in
  let o =
    Once.make (fun () ->
        incr calls;
        41 + 1)
  in
  Alcotest.(check bool) "not forced yet" false (Once.is_forced o);
  Alcotest.(check int) "value" 42 (Once.force o);
  Alcotest.(check bool) "forced" true (Once.is_forced o);
  Alcotest.(check int) "memoized" 42 (Once.force o);
  Alcotest.(check int) "thunk ran once" 1 !calls

let test_once_memoizes_exception () =
  let calls = ref 0 in
  let o =
    Once.make (fun () ->
        incr calls;
        failwith "boom")
  in
  Alcotest.check_raises "raises" (Failure "boom") (fun () ->
      ignore (Once.force o));
  Alcotest.check_raises "re-raises memoized" (Failure "boom") (fun () ->
      ignore (Once.force o));
  Alcotest.(check bool) "forced after raise" true (Once.is_forced o);
  Alcotest.(check int) "thunk ran once" 1 !calls

let test_once_cross_domain () =
  (* Lazy.t would raise RacyLazy here; Once must serialize the forcers. *)
  let calls = Atomic.make 0 in
  let o =
    Once.make (fun () ->
        Atomic.incr calls;
        7)
  in
  let ds = List.init 4 (fun _ -> Domain.spawn (fun () -> Once.force o)) in
  List.iter (fun d -> Alcotest.(check int) "value" 7 (Domain.join d)) ds;
  Alcotest.(check int) "single execution" 1 (Atomic.get calls)

(* --- properties ---------------------------------------------------------- *)

let prop_percentile_bounded =
  QCheck.Test.make ~count:200 ~name:"percentile within min/max"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
        (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

let prop_pearson_bounded =
  QCheck.Test.make ~count:200 ~name:"pearson in [-1,1]"
    QCheck.(
      list_of_size
        Gen.(int_range 2 30)
        (pair (float_range (-10.) 10.) (float_range (-10.) 10.)))
    (fun pairs ->
      let xs = List.map fst pairs and ys = List.map snd pairs in
      let r = Stats.pearson xs ys in
      r >= -1.0 -. 1e-9 && r <= 1.0 +. 1e-9)

let prop_shuffle_multiset =
  QCheck.Test.make ~count:100 ~name:"shuffle preserves multiset"
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let arr = Array.of_list l in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let prop_dedup_sorted =
  QCheck.Test.make ~count:100 ~name:"dedup yields sorted uniques"
    QCheck.(list small_int)
    (fun l -> Listx.dedup ~compare l = List.sort_uniq compare l)

let prop_geomean_between =
  QCheck.Test.make ~count:200 ~name:"geomean between min and max"
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.1 100.0))
    (fun xs ->
      let g = Stats.geomean xs in
      g >= Stats.minimum xs -. 1e-6 && g <= Stats.maximum xs +. 1e-6)

(* The prefix-sum sampler against the linear scan it replaced, kept here
   as the reference: same index and same RNG advance (the next raw
   output must match), on weight vectors with zeros, negatives, all-zero
   mass and a single entry. *)
let weighted_index_linear t weights =
  let n = Array.length weights in
  let total =
    Array.fold_left (fun acc w -> acc +. Float.max w 0.0) 0.0 weights
  in
  if total <= 0.0 then Rng.int t n
  else begin
    let target = Rng.float t total in
    let rec scan i acc =
      if i >= n - 1 then n - 1
      else
        let acc = acc +. Float.max weights.(i) 0.0 in
        if target < acc then i else scan (i + 1) acc
    in
    scan 0 0.0
  end

let prop_weighted_sampler_linear =
  let weight =
    QCheck.Gen.(
      frequency
        [ (2, return 0.0);
          (1, float_range (-5.0) 0.0);
          (4, float_range 0.0 10.0) ])
  in
  let weights =
    QCheck.Gen.(
      frequency
        [ (1, map (fun n -> Array.make n 0.0) (int_range 1 8));
          (1, map (fun w -> [| w |]) weight);
          (6, array_size (int_range 1 64) weight) ])
  in
  QCheck.Test.make ~count:500 ~name:"weighted sampler = linear scan"
    QCheck.(pair small_int (make ~print:Print.(array float) weights))
    (fun (seed, w) ->
      let a = Rng.create seed and b = Rng.create seed in
      let sample = Rng.weighted_sampler a w in
      List.for_all
        (fun _ ->
          let i = sample () and j = weighted_index_linear b w in
          i = j && Rng.int64 a = Rng.int64 b)
        (List.init 8 Fun.id))

(* Idsort.by_key against the Array.sort it transcribes: the whole
   permutation must match, ties included, since the explorer's outcomes
   depend on where ties land.  Keys draw from a handful of values so most
   comparisons tie; the values include -0.0 beside 0.0, both infinities
   and nan, whose [Float.compare] order the transcription must keep.  The
   ids are either every id of the key array, as the seed rankings sort
   them, or a population's: up to 300 ids in any order, repeats included,
   drawn from a longer key array (from a prefix of it, so some draws
   repeat heavily). *)
let prop_idsort_array_sort =
  let values = [| 0.0; -0.0; 1.0; 2.5; infinity; neg_infinity; nan; 1e-9 |] in
  let keys len =
    QCheck.Gen.(
      int_range 1 (Array.length values) >>= fun d ->
      array_size len (map (Array.get values) (int_bound (d - 1))))
  in
  let population =
    QCheck.Gen.(
      keys (int_range 301 2000) >>= fun key ->
      int_range 1 (Array.length key) >>= fun prefix ->
      array_size (int_range 0 300) (int_bound (prefix - 1)) >|= fun ids ->
      (key, ids))
  in
  let whole =
    QCheck.Gen.(
      keys (int_range 0 2000) >|= fun key ->
      (key, Array.init (Array.length key) Fun.id))
  in
  QCheck.Test.make ~count:300 ~name:"idsort = Array.sort"
    (QCheck.make
       ~print:QCheck.Print.(pair (array float) (array int))
       QCheck.Gen.(oneof [ whole; population ]))
    (fun (key, ids) ->
      let want = Array.copy ids in
      Array.sort (fun a b -> Float.compare key.(a) key.(b)) want;
      let got = Array.copy ids in
      Idsort.by_key key got;
      want = got)

(* Idsort.ranking pops ids in the order a stable sort by key leaves
   ascending ids, ties toward the lower id: the explorer's
   stale-population fallback relies on it.  Same tie-heavy keys as
   above. *)
let prop_ranking_stable_sort =
  let values = [| 0.0; -0.0; 1.0; 2.5; infinity; neg_infinity; nan; 1e-9 |] in
  let keys =
    QCheck.Gen.(
      int_range 1 (Array.length values) >>= fun d ->
      array_size (int_range 0 2000) (map (Array.get values) (int_bound (d - 1))))
  in
  QCheck.Test.make ~count:300 ~name:"ranking = Array.stable_sort"
    (QCheck.make ~print:QCheck.Print.(array float) keys)
    (fun key ->
      let want = Array.init (Array.length key) Fun.id in
      Array.stable_sort (fun a b -> Float.compare key.(a) key.(b)) want;
      let r = Idsort.ranking key in
      let got = Array.init (Array.length key) (fun _ -> Idsort.next r) in
      want = got && Idsort.next r = -1)

let () =
  Alcotest.run "mcf_util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balance;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "shuffle is permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "weighted mass" `Quick test_rng_weighted_index;
          Alcotest.test_case "weighted zero mass" `Quick
            test_rng_weighted_zero_mass;
          Alcotest.test_case "weighted proportional" `Quick
            test_rng_weighted_proportional;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws do not allocate" `Quick
            test_rng_draws_do_not_allocate ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "min/max" `Quick test_minmax;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "pearson" `Quick test_pearson;
          Alcotest.test_case "spearman" `Quick test_spearman;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "listx",
        [ Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "cartesian" `Quick test_cartesian;
          Alcotest.test_case "take/drop" `Quick test_take_drop;
          Alcotest.test_case "index_of" `Quick test_index_of;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "min/max_by" `Quick test_min_max_by;
          Alcotest.test_case "sum_by" `Quick test_sum_by;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "interleavings" `Quick test_interleavings ] );
      ( "hashing",
        [ Alcotest.test_case "fnv1a" `Quick test_hashing;
          Alcotest.test_case "fnv1a known answers" `Quick
            test_fnv_known_answers ] );
      ( "render",
        [ Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "markdown" `Quick test_table_markdown;
          Alcotest.test_case "formats" `Quick test_fmt;
          Alcotest.test_case "bar chart" `Quick test_chart_bar;
          Alcotest.test_case "scatter" `Quick test_chart_scatter;
          Alcotest.test_case "line chart" `Quick test_chart_line;
          Alcotest.test_case "sparkline" `Quick test_chart_sparkline ] );
      ( "parallel",
        [ Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "arrays" `Quick test_parallel_array;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_exception;
          Alcotest.test_case "empty" `Quick test_parallel_empty;
          Alcotest.test_case "default domains" `Quick test_default_domains ] );
      ( "pool",
        [ Alcotest.test_case "init matches sequential" `Quick
            test_pool_init_matches_sequential;
          Alcotest.test_case "init float cells" `Quick
            test_pool_init_float_cells;
          Alcotest.test_case "empty and singleton" `Quick
            test_pool_empty_singleton;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "nested calls run sequentially" `Quick
            test_pool_nested_sequential;
          Alcotest.test_case "run_range covers once" `Quick
            test_pool_run_range_covers;
          Alcotest.test_case "concurrent callers" `Quick
            test_pool_concurrent_callers;
          Alcotest.test_case "global pool and stats" `Quick
            test_pool_global_and_stats;
          Alcotest.test_case "stats counters" `Quick test_pool_stats_counters;
          Alcotest.test_case "min_chunk_work cutoff" `Quick
            test_pool_min_chunk_work;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent ] );
      ( "once",
        [ Alcotest.test_case "forces once" `Quick test_once_forces_once;
          Alcotest.test_case "memoizes exceptions" `Quick
            test_once_memoizes_exception;
          Alcotest.test_case "cross-domain" `Quick test_once_cross_domain ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percentile_bounded; prop_pearson_bounded;
            prop_shuffle_multiset; prop_dedup_sorted; prop_geomean_between;
            prop_weighted_sampler_linear; prop_idsort_array_sort;
            QCheck.Test.make ~count:50 ~name:"parallel init = Array.init"
              QCheck.(pair (int_range 1 6) (array small_int))
              (fun (d, a) ->
                let f i = a.(i) * 3 in
                Pool.with_pool ~jobs:d (fun p ->
                    Pool.init ~min_chunk_work:1 p (Array.length a) f)
                = Array.init (Array.length a) f);
            prop_ranking_stable_sort ] ) ]
