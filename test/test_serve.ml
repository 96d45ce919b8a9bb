(* Tests for the tuning service: protocol parsing and coalescing-key
   derivation, duplicate-submission coalescing under a saturated worker
   pool, bit-identity of served schedules against one-shot tunes at
   several pool sizes, graceful drain mid-burst with cache persistence
   and warm-start, HTTP fault injection (malformed bodies, unknown
   devices, oversized payloads, client disconnects) against a live
   socket, and the Httpd per-connection read timeout that keeps a
   stalled client from pinning a slot; and the schedule-cache file that
   [mcfuser tune --cache] and serve share. *)

module Server = Mcf_serve.Server
module Protocol = Mcf_serve.Protocol
module Metrics = Mcf_obs.Metrics
module Httpd = Mcf_util.Httpd
module Json = Mcf_util.Json

let a100 = Mcf_gpu.Spec.a100

(* Distinct tiny chains so each test works fresh keys; [m] picks the
   chain, everything else is pinned small to keep tuning fast. *)
let chain ~m = Mcf_ir.Chain.gemm_chain ~m ~n:64 ~k:32 ~h:32 ()

let req ?seed ?reservoir ~m () =
  let chain = chain ~m in
  { Protocol.workload = chain.Mcf_ir.Chain.cname; chain; spec = a100;
    seed; reservoir }

(* D8 tunes for about half a second: long enough to keep a one-worker
   server busy while a test submits behind it. *)
let d8_req () =
  match Protocol.chain_of_workload "D8" with
  | Ok chain ->
    { Protocol.workload = "D8"; chain; spec = a100; seed = None;
      reservoir = None }
  | Error e -> Alcotest.fail e

let with_server ?(config = Server.default_config) f =
  match Server.start ~config () with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok t -> Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let submit_ok t r =
  match Server.submit t r with
  | Ok (jid, source) -> (jid, source)
  | Error e -> Alcotest.failf "submit: %s" e

let await_done t jid =
  match Server.await t jid with
  | Some { Server.vstatus = Server.Done s; _ } -> s
  | Some { Server.vstatus = Server.Failed e; _ } ->
    Alcotest.failf "job %s failed: %s" jid e
  | Some _ -> Alcotest.failf "job %s not terminal after await" jid
  | None -> Alcotest.failf "job %s unknown" jid

let sched_fingerprint (s : Protocol.sched) =
  Printf.sprintf "%s|%.17g|%.17g|%d|%d|%d" s.cand s.time_s s.virtual_s
    s.estimated s.measured s.generations

(* Schedule-cache lookups so far: [cache.hits] + [cache.misses] on the
   process-wide registry, so tests take deltas. *)
let lookups () =
  Metrics.counter_value "cache.hits" + Metrics.counter_value "cache.misses"

(* --- protocol ---------------------------------------------------------------- *)

let test_parse_workload () =
  match Protocol.parse_tune_request {|{"workload":"G1","seed":7}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok r ->
    Alcotest.(check string) "label" "G1" r.Protocol.workload;
    Alcotest.(check string) "default device" "A100" r.Protocol.spec.name;
    Alcotest.(check (option int)) "seed" (Some 7) r.Protocol.seed;
    Alcotest.(check (option int)) "no reservoir" None r.Protocol.reservoir

let test_parse_chain () =
  let body =
    {|{"chain":{"kind":"gemm","m":128,"n":64,"k":32,"h":32},"device":"RTX3080"}|}
  in
  match Protocol.parse_tune_request body with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok r ->
    Alcotest.(check string) "device honoured" "RTX3080" r.Protocol.spec.name;
    Alcotest.(check string)
      "same chain as the builder"
      (Mcf_ir.Chain.fingerprint (chain ~m:128))
      (Mcf_ir.Chain.fingerprint r.Protocol.chain)

let test_parse_errors () =
  let bad name body =
    match Protocol.parse_tune_request body with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
      Alcotest.(check bool)
        (name ^ ": error is descriptive")
        true
        (String.length e > 0)
  in
  bad "not json" "{nope";
  bad "not an object" {|[1,2]|};
  bad "neither workload nor chain" {|{"device":"A100"}|};
  bad "both workload and chain"
    {|{"workload":"G1","chain":{"kind":"gemm","m":8,"n":8,"k":8,"h":8}}|};
  bad "unknown workload" {|{"workload":"G999"}|};
  bad "unknown device" {|{"workload":"G1","device":"TPU9000"}|};
  bad "unknown chain kind" {|{"chain":{"kind":"conv","m":8}}|};
  bad "negative seed" {|{"workload":"G1","seed":-3}|};
  bad "negative reservoir" {|{"workload":"G1","reservoir":-1}|}

(* A zero reservoir is refused, not clamped: the enumeration would run it
   as 1, under a second coalescing key.  A zero seed stays valid. *)
let test_parse_zero_reservoir () =
  (match Protocol.parse_tune_request {|{"workload":"G1","reservoir":0}|} with
  | Ok _ -> Alcotest.fail "reservoir 0 accepted"
  | Error e ->
    Alcotest.(check string)
      "typed error" {|field "reservoir" must be a positive integer|} e);
  match
    Protocol.parse_tune_request {|{"workload":"G1","seed":0,"reservoir":1}|}
  with
  | Error e -> Alcotest.failf "seed 0 refused: %s" e
  | Ok r ->
    Alcotest.(check (option int)) "seed 0" (Some 0) r.Protocol.seed;
    Alcotest.(check (option int)) "reservoir 1" (Some 1) r.Protocol.reservoir

let test_key_derivation () =
  let k1 = Protocol.key (req ~m:96 ()) in
  let k1' = Protocol.key (req ~m:96 ()) in
  Alcotest.(check string) "deterministic" k1 k1';
  Alcotest.(check bool) "device leads the key" true
    (String.length k1 > 5 && String.sub k1 0 5 = "A100|");
  let distinct name k other =
    Alcotest.(check bool) (name ^ " changes the key") true (k <> other)
  in
  distinct "chain" k1 (Protocol.key (req ~m:112 ()));
  distinct "seed" k1 (Protocol.key (req ~m:96 ~seed:7 ()));
  distinct "reservoir" k1 (Protocol.key (req ~m:96 ~reservoir:256 ()));
  let rtx = { (req ~m:96 ()) with Protocol.spec = Mcf_gpu.Spec.rtx3080 } in
  distinct "device" k1 (Protocol.key rtx)

let test_sched_json_roundtrip () =
  let s =
    { Protocol.cand = "deep:m,n;m=16,n=32"; time_s = 4.212e-6;
      virtual_s = 23.5; estimated = 493; measured = 32; generations = 7 }
  in
  match Protocol.sched_of_json (Protocol.sched_json s) with
  | Some s' ->
    Alcotest.(check string) "roundtrip" (sched_fingerprint s)
      (sched_fingerprint s')
  | None -> Alcotest.fail "sched_json did not round-trip"

(* --- coalescing -------------------------------------------------------------- *)

let test_duplicates_coalesce () =
  (* One worker, occupied by chain A (D8, so it is still tuning when
     every duplicate arrives); K duplicate submissions of chain B from
     concurrent threads must collapse onto a single tuner session:
     exactly one [Tuned], the rest [Coalesced], and every returned
     schedule bit-identical. *)
  let sessions_before = Metrics.counter_value "serve.sessions" in
  let lookups_before = lookups () in
  with_server ~config:{ Server.default_config with workers = 1 } (fun t ->
      let a_jid, a_src = submit_ok t (d8_req ()) in
      Alcotest.(check string) "A is a fresh session" "tuned"
        (Server.source_string a_src);
      let dup = req ~m:112 () in
      let k = 6 in
      let results = Array.make k ("", Server.Tuned) in
      let threads =
        Array.init k (fun i ->
            Thread.create (fun () -> results.(i) <- submit_ok t dup) ())
      in
      Array.iter Thread.join threads;
      let count src =
        Array.to_list results
        |> List.filter (fun (_, s) -> s = src)
        |> List.length
      in
      Alcotest.(check int) "exactly one fresh session" 1 (count Server.Tuned);
      Alcotest.(check int) "every duplicate coalesced" (k - 1)
        (count Server.Coalesced);
      let scheds =
        Array.to_list results
        |> List.map (fun (jid, _) -> sched_fingerprint (await_done t jid))
      in
      List.iter
        (fun s -> Alcotest.(check string) "identical answers" (List.hd scheds) s)
        scheds;
      ignore (await_done t a_jid);
      let sessions_after = Metrics.counter_value "serve.sessions" in
      Alcotest.(check int) "two tuner sessions total" 2
        (sessions_after - sessions_before);
      (* a resubmission after completion is a cache hit, not a session *)
      let _, src = submit_ok t dup in
      Alcotest.(check string) "warm resubmission" "cached"
        (Server.source_string src);
      Alcotest.(check int) "one cache lookup per accepted submission"
        (1 + k + 1)
        (lookups () - lookups_before))

(* Every accepted request's table lookup counts on the pair
   [tune --cache] moves and /status reports as caches.schedule. *)
let test_lookups_counted () =
  let counts () =
    let status name =
      match Json.member "caches" (Mcf_obs.Export.status_json ()) with
      | Some caches -> (
        match Option.bind (Json.member "schedule" caches) (Json.member name) with
        | Some (Json.Num n) -> int_of_float n
        | _ -> Alcotest.failf "/status lacks caches.schedule.%s" name)
      | None -> Alcotest.fail "/status lacks caches"
    in
    [ Metrics.counter_value "cache.hits"; Metrics.counter_value "cache.misses";
      status "hits"; status "misses" ]
  in
  with_server (fun t ->
      let before = counts () in
      let r = req ~m:256 () in
      let cold, _ = submit_ok t r in
      ignore (await_done t cold);
      let warm, src = submit_ok t r in
      ignore (await_done t warm);
      Alcotest.(check string) "second submission cached" "cached"
        (Server.source_string src);
      Alcotest.(check (list int))
        "hits, misses; /status hits, misses: one each" [ 1; 1; 1; 1 ]
        (List.map2 ( - ) (counts ()) before))

(* --- bit-identity ------------------------------------------------------------ *)

let test_served_equals_oneshot () =
  (* ISSUE 10 acceptance: a served schedule is bit-identical to a
     one-shot [Tuner.tune] of the same (chain, spec, seed) — at jobs 1
     and 4, served cold, coalesced and cached. *)
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
    (fun () ->
      List.iter
        (fun jobs ->
          Mcf_util.Pool.set_jobs jobs;
          let r = req ~m:(128 + jobs) () in
          let direct =
            match Mcf_search.Tuner.tune r.Protocol.spec r.Protocol.chain with
            | Ok o -> sched_fingerprint (Protocol.sched_of_outcome o)
            | Error _ -> Alcotest.fail "one-shot tune failed"
          in
          with_server (fun t ->
              let jid, _ = submit_ok t r in
              let cold = sched_fingerprint (await_done t jid) in
              Alcotest.(check string)
                (Printf.sprintf "cold serve at jobs=%d" jobs)
                direct cold;
              let jid2, src = submit_ok t r in
              Alcotest.(check string) "second submission cached" "cached"
                (Server.source_string src);
              Alcotest.(check string)
                (Printf.sprintf "cached serve at jobs=%d" jobs)
                direct
                (sched_fingerprint (await_done t jid2))))
        [ 1; 4 ])

(* --- drain and persistence ---------------------------------------------------- *)

let test_stop_drains_and_persists () =
  let dir = Filename.temp_file "mcf_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sched_file = Filename.concat dir "sched.jsonl" in
  let measure_file = Filename.concat dir "measure.jsonl" in
  let config =
    { Server.default_config with
      workers = 2;
      schedule_cache_file = Some sched_file;
      measure_cache_file = Some measure_file }
  in
  let n = 5 in
  let jids =
    match Server.start ~config () with
    | Error e -> Alcotest.failf "server start: %s" e
    | Ok t ->
      (* a burst of distinct chains, then stop mid-flight: every accepted
         job must drain to completion, none lost or corrupted *)
      let jids = List.init n (fun i -> fst (submit_ok t (req ~m:(160 + (16 * i)) ()))) in
      Server.stop t;
      List.iter
        (fun jid ->
          match Server.job t jid with
          | Some { Server.vstatus = Server.Done _; _ } -> ()
          | Some _ -> Alcotest.failf "job %s not drained" jid
          | None -> Alcotest.failf "job %s lost" jid)
        jids;
      Alcotest.(check int) "cache holds every schedule" n (Server.cache_size t);
      (match Server.submit t (req ~m:512 ()) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "submission accepted after stop");
      jids
  in
  ignore jids;
  (* the persisted JSONL must round-trip: a fresh daemon warm-starts
     from it and answers the same requests from cache *)
  let lines path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  Alcotest.(check int) "one JSONL entry per schedule" n
    (List.length (lines sched_file));
  Alcotest.(check bool) "measurement cache persisted" true
    (List.length (lines measure_file) > 0);
  with_server ~config (fun t ->
      Alcotest.(check int) "warm-started" n (Server.cache_size t);
      let _, src = submit_ok t (req ~m:160 ()) in
      Alcotest.(check string) "answered from the warm cache" "cached"
        (Server.source_string src));
  List.iter Sys.remove (lines sched_file |> fun _ -> [ sched_file; measure_file ]);
  Unix.rmdir dir

(* --- schedule-cache file --------------------------------------------------------

   [Protocol.tune ~cache_file] is [mcfuser tune --cache]'s one path, and
   its file is the one serve warm-starts from. *)

let with_cache_file f =
  let path = Filename.temp_file "mcf_sched" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let tune_ok ?cache_file r =
  match Protocol.tune ?cache_file r with
  | Ok x -> x
  | Error _ -> Alcotest.fail "tune failed"

let g1 ?reservoir () =
  match Protocol.chain_of_workload "G1" with
  | Ok chain ->
    { Protocol.workload = "G1"; chain; spec = a100; seed = None; reservoir }
  | Error e -> Alcotest.fail e

let bits x = Printf.sprintf "%h" x

let test_cache_file_roundtrip () =
  with_cache_file (fun path ->
      let r = req ~m:208 () in
      let stored, o =
        match tune_ok ~cache_file:path r with
        | s, Some o -> (s, o)
        | _, None -> Alcotest.fail "first call must miss"
      in
      match tune_ok ~cache_file:path r with
      | _, Some _ -> Alcotest.fail "second call must hit"
      | hit, None ->
        (* Floats are stored [%.17g], so a hit is the tune bit for bit. *)
        Alcotest.(check string) "kernel_time_s bit-identical"
          (bits o.kernel_time_s) (bits hit.time_s);
        Alcotest.(check string) "tuning_virtual_s bit-identical"
          (bits o.tuning_virtual_s) (bits hit.virtual_s);
        Alcotest.(check string) "the stored schedule" (sched_fingerprint stored)
          (sched_fingerprint hit))

let test_cache_reservoir_honoured () =
  let winner r =
    match tune_ok r with
    | s, Some _ -> s
    | _, None -> Alcotest.fail "an uncached tune hit"
  in
  let plain = winner (g1 ~reservoir:4 ()) in
  Alcotest.(check bool) "the reservoir changes G1's winner" false
    (sched_fingerprint plain = sched_fingerprint (winner (g1 ())));
  with_cache_file (fun path ->
      (match tune_ok ~cache_file:path (g1 ~reservoir:4 ()) with
      | s, Some _ ->
        Alcotest.(check string) "cached miss = plain --reservoir 4"
          (sched_fingerprint plain) (sched_fingerprint s)
      | _, None -> Alcotest.fail "first call must miss");
      match tune_ok ~cache_file:path (g1 ~reservoir:4 ()) with
      | s, None ->
        Alcotest.(check string) "hit = plain --reservoir 4"
          (sched_fingerprint plain) (sched_fingerprint s)
      | _, Some _ -> Alcotest.fail "second call must hit")

let test_cache_key_separates () =
  with_cache_file (fun path ->
      let base = req ~m:224 () in
      let stored, _ = tune_ok ~cache_file:path base in
      List.iter
        (fun (what, r) ->
          match tune_ok ~cache_file:path r with
          | _, Some _ -> ()
          | _, None ->
            Alcotest.failf "the stored entry answered another %s" what)
        [ ("seed", { base with seed = Some 7 });
          ("reservoir", { base with reservoir = Some 8 });
          ("device", { base with spec = Mcf_gpu.Spec.rtx3080 });
          ( "device spec of the same name",
            { base with spec = { a100 with sm_count = a100.sm_count / 2 } } )
        ];
      match tune_ok ~cache_file:path base with
      | s, None ->
        Alcotest.(check string) "the original key still hits"
          (sched_fingerprint stored) (sched_fingerprint s)
      | _, Some _ -> Alcotest.fail "the original key missed")

let test_cache_corrupt_lines_skipped () =
  with_cache_file (fun path ->
      let good = req ~m:240 () in
      let s, _ = tune_ok ~cache_file:path good in
      let entry = In_channel.with_open_text path In_channel.input_all in
      Mcf_util.Json.write_atomic path (fun oc ->
          output_string oc
            (String.concat "\n"
               [ "garbage line";
                 (* the retired pipe format *)
                 "gemm_chain_b1_m256_n128_k64_h64|A100|deep:m,h,n,k;h=16,k=16,m=32,n=32|1.234000000e-06";
                 {|{"key":"A100|x","candidate":"deep:m;m=16"}|};
                 {|{"candidate":"deep:m;m=16","kernel_time_s":1e-06,"tuning_virtual_s":1,"estimated":1,"measured":1,"generations":1}|};
                 String.sub entry 0 (String.length entry / 2);
                 String.trim entry;
                 "" ]));
      let entries, malformed = Protocol.load_cache path in
      Alcotest.(check int) "malformed lines counted" 5 malformed;
      Alcotest.(check (list string)) "the whole line loads"
        [ Protocol.key good ] (List.map fst entries);
      match tune_ok ~cache_file:path good with
      | hit, None ->
        Alcotest.(check string) "and answers" (sched_fingerprint s)
          (sched_fingerprint hit)
      | _, Some _ -> Alcotest.fail "the intact entry missed")

let test_cache_file_warm_starts_serve () =
  with_cache_file (fun path ->
      let r = g1 ~reservoir:4 () in
      let stored, _ = tune_ok ~cache_file:path r in
      with_server
        ~config:{ Server.default_config with schedule_cache_file = Some path }
        (fun t ->
          let jid, src = submit_ok t r in
          Alcotest.(check string) "answered from the file" "cached"
            (Server.source_string src);
          Alcotest.(check string) "the stored schedule"
            (sched_fingerprint stored)
            (sched_fingerprint (await_done t jid))))

let test_sessions_share_measure_cache () =
  (* Two workers tune G1 under seeds 1 and 2 at once, at jobs 1 and 4,
     through the one measurement cache the sessions share: each answer
     is a one-shot tune of its request bit for bit, every measurement is
     one cache lookup, and the cache holds no more entries than
     simulations (a key both sessions miss at once is simulated twice,
     stored once). *)
  let saved = Mcf_util.Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Mcf_util.Pool.set_jobs saved)
    (fun () ->
      List.iter
        (fun jobs ->
          Mcf_util.Pool.set_jobs jobs;
          let reqs = List.map (fun seed -> { (g1 ()) with seed = Some seed }) [ 1; 2 ] in
          let direct =
            List.map
              (fun r ->
                match Protocol.tune r with
                | Ok (s, _) -> s
                | Error _ -> Alcotest.fail "one-shot tune failed")
              reqs
          in
          let measure_file = Filename.temp_file "mcf_measure" ".jsonl" in
          Sys.remove measure_file;
          let h0 = Metrics.counter_value "measure.cache.hits" in
          let m0 = Metrics.counter_value "measure.cache.misses" in
          let served =
            with_server
              ~config:
                { Server.default_config with
                  workers = 2;
                  measure_cache_file = Some measure_file }
              (fun t ->
                let jids = List.map (fun r -> fst (submit_ok t r)) reqs in
                List.map (await_done t) jids)
          in
          let hits = Metrics.counter_value "measure.cache.hits" - h0 in
          let misses = Metrics.counter_value "measure.cache.misses" - m0 in
          List.iter2
            (fun (d : Protocol.sched) (s : Protocol.sched) ->
              Alcotest.(check (pair string string))
                (Printf.sprintf "served = one-shot at jobs=%d" jobs)
                (bits d.time_s, bits d.virtual_s)
                (bits s.time_s, bits s.virtual_s))
            direct served;
          Alcotest.(check int) "one lookup per measurement"
            (List.fold_left (fun acc (s : Protocol.sched) -> acc + s.measured) 0 served)
            (hits + misses);
          let entries =
            In_channel.with_open_text measure_file In_channel.input_lines
          in
          Sys.remove measure_file;
          Alcotest.(check bool) "no more entries than simulations" true
            (List.length entries <= misses))
        [ 1; 4 ])

(* --- bounded job table ---------------------------------------------------------- *)

let test_job_table_bounded () =
  (* Every cache hit adds a job; past [max_finished_jobs] finished jobs
     the oldest finished ones go, and their ids then answer exactly as an
     id never issued does.  A job still tuning through the burst stays. *)
  with_server ~config:{ Server.default_config with workers = 1 } (fun t ->
      let hit = req ~m:208 () in
      let first, _ = submit_ok t hit in
      ignore (await_done t first);
      (* D8 tunes far longer than the burst. *)
      let pending, _ = submit_ok t (d8_req ()) in
      let hits =
        List.init (Server.max_finished_jobs + 1) (fun _ ->
            let jid, src = submit_ok t hit in
            Alcotest.(check string) "cache hit" "cached"
              (Server.source_string src);
            jid)
      in
      Alcotest.(check bool) "unfinished job kept" true
        (Server.job t pending <> None);
      ignore (await_done t pending);
      let get jid =
        let r =
          Server.handler t
            { Httpd.meth = "GET"; path = "/jobs/" ^ jid; query = [];
              headers = []; body = "" }
        in
        (r.Httpd.status, Json.parse (String.trim r.Httpd.body))
      in
      List.iter
        (fun jid ->
          Alcotest.(check bool) (jid ^ " evicted") true (Server.job t jid = None);
          Alcotest.(check bool) (jid ^ " await unknown") true
            (Server.await t jid = None);
          match get jid with
          | 404, Ok j ->
            Alcotest.(check (option string)) (jid ^ " answers as unknown")
              (Some (Printf.sprintf "unknown job %S" jid))
              (match Json.member "error" j with
              | Some (Json.Str e) -> Some e
              | _ -> None)
          | status, _ -> Alcotest.failf "%s: HTTP %d" jid status)
        [ first; List.hd hits ];
      let listed = List.map (fun v -> v.Server.vid) (Server.jobs t) in
      Alcotest.(check int) "table holds the bound" Server.max_finished_jobs
        (List.length listed);
      Alcotest.(check (list string)) "newest hits kept in submission order"
        (Mcf_util.Listx.drop 2 hits) (Mcf_util.Listx.drop 1 listed))

(* --- fault injection over the wire -------------------------------------------- *)

let http_config =
  { Server.default_config with workers = 1; max_body_bytes = 4096 }

let post url body = Httpd.Client.post url ~body

let expect_status name expected = function
  | Ok (status, _) -> Alcotest.(check int) name expected status
  | Error e -> Alcotest.failf "%s: %s" name e

let test_http_faults () =
  with_server ~config:http_config (fun t ->
      let url = Server.url t in
      expect_status "malformed body is 400" 400 (post (url ^ "/tune") "{nope");
      expect_status "unknown device is 400" 400
        (post (url ^ "/tune") {|{"workload":"G1","device":"TPU9000"}|});
      expect_status "unknown workload is 400" 400
        (post (url ^ "/tune") {|{"workload":"G999"}|});
      expect_status "zero reservoir is 400" 400
        (post (url ^ "/tune") {|{"workload":"G1","reservoir":0}|});
      expect_status "oversized payload is 413" 413
        (post (url ^ "/tune") (String.make 8192 ' '));
      expect_status "GET /tune is 405" 405
        (Httpd.Client.get (url ^ "/tune"));
      expect_status "unknown job is 404" 404
        (Httpd.Client.get (url ^ "/jobs/j999"));
      expect_status "unknown path is 404" 404
        (Httpd.Client.get (url ^ "/definitely-not-a-route"));
      (* a client that slams the connection shut mid-response must not
         take the accept loop down *)
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port t));
      let reqtext = "GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n" in
      ignore (Unix.write_substring fd reqtext 0 (String.length reqtext));
      Unix.close fd;
      Thread.delay 0.05;
      (* and after all that abuse, a legitimate request still works *)
      (match post (url ^ "/tune") {|{"chain":{"kind":"gemm","m":80,"n":64,"k":32,"h":32}}|} with
      | Ok (code, body) when code = 200 || code = 202 -> (
        match Json.parse (String.trim body) with
        | Ok j -> (
          match Json.member "job" j with
          | Some (Json.Str jid) -> ignore (await_done t jid)
          | _ -> Alcotest.fail "tune response has no job id")
        | Error e -> Alcotest.failf "tune response not JSON: %s" e)
      | Ok (code, body) -> Alcotest.failf "valid tune: HTTP %d %s" code body
      | Error e -> Alcotest.failf "valid tune after faults: %s" e);
      match Httpd.Client.get (url ^ "/jobs") with
      | Ok (200, body) -> (
        match Json.parse (String.trim body) with
        | Ok j ->
          Alcotest.(check bool) "jobs listing alive" true
            (Json.member "jobs" j <> None)
        | Error e -> Alcotest.failf "/jobs not JSON: %s" e)
      | Ok (status, _) -> Alcotest.failf "/jobs: HTTP %d" status
      | Error e -> Alcotest.failf "/jobs: %s" e)

let test_http_serve_status () =
  with_server ~config:http_config (fun t ->
      match Httpd.Client.get (Server.url t ^ "/status") with
      | Ok (200, body) -> (
        match Json.parse (String.trim body) with
        | Ok j -> (
          match Json.member "serve" j with
          | Some serve ->
            Alcotest.(check bool) "lifecycle state" true
              (Json.member "state" serve = Some (Json.Str "serving"))
          | None -> Alcotest.fail "/status lacks the serve section")
        | Error e -> Alcotest.failf "/status not JSON: %s" e)
      | Ok (status, _) -> Alcotest.failf "/status: HTTP %d" status
      | Error e -> Alcotest.failf "/status: %s" e)

(* --- read timeout -------------------------------------------------------------- *)

let test_read_timeout_frees_slot () =
  (* A stalled client (connects, sends nothing) pins the only slot until
     the per-connection read timeout reaps it; afterwards the listener
     must serve normally again. *)
  let handler _ = Httpd.response "ok\n" in
  match
    Httpd.start ~max_connections:1 ~read_timeout_s:0.4 ~addr:"127.0.0.1"
      ~port:0 ~handler ()
  with
  | Error e -> Alcotest.failf "httpd start: %s" e
  | Ok t ->
    Fun.protect
      ~finally:(fun () -> Httpd.stop t)
      (fun () ->
        let stalled = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect stalled
          (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Httpd.port t));
        Thread.delay 0.1;
        (* slot pinned: the listener turns the next connection away *)
        (match Httpd.Client.get (Httpd.url t ^ "/x") with
        | Ok (503, _) -> ()
        | Ok (status, _) ->
          Alcotest.failf "expected 503 while stalled, got %d" status
        | Error _ -> ());
        (* after the timeout the stalled connection is reaped *)
        Thread.delay 0.8;
        (match Httpd.Client.get (Httpd.url t ^ "/x") with
        | Ok (200, body) -> Alcotest.(check string) "served again" "ok\n" body
        | Ok (status, _) -> Alcotest.failf "after timeout: HTTP %d" status
        | Error e -> Alcotest.failf "after timeout: %s" e);
        Unix.close stalled)

(* ------------------------------------------------------------------------------- *)

let () =
  Alcotest.run "mcf_serve"
    [ ( "protocol",
        [ Alcotest.test_case "workload request" `Quick test_parse_workload;
          Alcotest.test_case "inline chain request" `Quick test_parse_chain;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "zero reservoir refused" `Quick
            test_parse_zero_reservoir;
          Alcotest.test_case "coalescing key" `Quick test_key_derivation;
          Alcotest.test_case "sched json roundtrip" `Quick
            test_sched_json_roundtrip
        ] );
      ( "coalescing",
        [ Alcotest.test_case "duplicates share one session" `Quick
            test_duplicates_coalesce;
          Alcotest.test_case "lookups counted once" `Quick
            test_lookups_counted
        ] );
      ( "identity",
        [ Alcotest.test_case "served equals one-shot tune" `Quick
            test_served_equals_oneshot;
          Alcotest.test_case "two sessions, one measure cache" `Quick
            test_sessions_share_measure_cache
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "stop drains and persists" `Quick
            test_stop_drains_and_persists;
          Alcotest.test_case "job table bounded" `Quick test_job_table_bounded
        ] );
      ( "schedule-cache",
        [ Alcotest.test_case "file roundtrip" `Quick test_cache_file_roundtrip;
          Alcotest.test_case "reservoir honoured" `Quick
            test_cache_reservoir_honoured;
          Alcotest.test_case "key covers seed, reservoir, spec" `Quick
            test_cache_key_separates;
          Alcotest.test_case "corrupt lines skipped" `Quick
            test_cache_corrupt_lines_skipped;
          Alcotest.test_case "tune file warm-starts serve" `Quick
            test_cache_file_warm_starts_serve
        ] );
      ( "http",
        [ Alcotest.test_case "fault injection" `Quick test_http_faults;
          Alcotest.test_case "status has serve section" `Quick
            test_http_serve_status
        ] );
      ( "httpd",
        [ Alcotest.test_case "read timeout frees a pinned slot" `Quick
            test_read_timeout_frees_slot
        ] )
    ]
