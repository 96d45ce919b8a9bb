(* Shared pieces of the benchmark: clocks and statistics, the result
   line, the tuning-outcome fingerprint and the interpreter oracle. *)

module Json = Mcf_util.Json
module Stats = Mcf_util.Stats

let now = Unix.gettimeofday

(* Processor seconds of this process, all its domains and threads: on a
   shared host this leaves out the time the core is given to another
   process or guest, which the wall clock counts. *)
external cpu_now : unit -> float = "perfbench_cpu_s"

(* Processor seconds of the children reaped so far. *)
let children_cpu () =
  let t = Unix.times () in
  t.tms_cutime +. t.tms_cstime

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The host-speed probe: processor seconds of one pass of fixed work that
   shares no code with mcfuser and allocates nothing (a sort, hashing and
   float arithmetic over two arrays made on first use), so neither the
   program's code nor its heap can change it.  It changes with how fast
   the host runs this process at the moment: on a shared host the speed
   of a core swings by up to 1.6x in spells of seconds to minutes. *)
let probe_arrays =
  lazy (Array.init 65_536 (fun i -> (i * 7919) land 0xffff), Array.make 65_536 0)

let probe_s () =
  let src, buf = Lazy.force probe_arrays in
  let t0 = cpu_now () in
  Array.blit src 0 buf 0 (Array.length buf);
  Array.sort Int.compare buf;
  let acc = ref 0.0 and h = ref 0 in
  for i = 0 to Array.length buf - 1 do
    let x = buf.(i) in
    acc := !acc +. sqrt (float_of_int (x + i));
    h := !h lxor Hashtbl.hash (x * i)
  done;
  ignore (Sys.opaque_identity (!acc, !h));
  cpu_now () -. t0

let sum xs = List.fold_left ( +. ) 0.0 xs
let sum_int xs = List.fold_left ( + ) 0 xs
let median = Stats.median
let pct = Stats.percentile
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- results ----------------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
}

let m name unit_ value = { name; unit_; value }

(* What one workload run hands back for the result line. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  env : (string * Json.t) list;  (* workload parameters for the env line *)
}

(* The environment every result is read against: [compare.py] refuses to
   compare runs whose [nproc] differs. *)
let print_env ~workload ~seed ~nproc ~rev extra =
  let open Json in
  print_endline
    (to_string
       (Obj
          [ ( "env",
              Obj
                ([ ("workload", Str workload);
                   ("seed", num_of_int seed);
                   ("nproc", num_of_int nproc);
                   ( "recommended_domain_count",
                     num_of_int (Domain.recommended_domain_count ()) );
                   ("pool_jobs", num_of_int (Mcf_util.Pool.jobs ()));
                   ( "pool_effective_jobs",
                     num_of_int (Mcf_util.Pool.effective_jobs ()) );
                   ("ocaml", Str Sys.ocaml_version);
                   ("rev", Str rev) ]
                @ extra) ) ]))

(* The last line of standard output.  Values keep all their digits; a
   non-finite value marks the run incorrect rather than printing a
   number that was never measured. *)
let print_result ~attempted ~failed metrics =
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let field x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
      (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value
       else "null")
      x.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && finite) attempted failed
    (String.concat ", " (List.map field metrics))

external maxrss_kb : int -> int = "perfbench_maxrss_kb"

(* The most memory resident at once (getrusage's ru_maxrss), in MB: of
   this process, or with [~children:true] the largest of its reaped
   children.  It only rises and counts the whole process (heap, minor
   heaps, runtime), where [Gc]'s top_heap_words can fall back when other
   domains' memory changes hands.  nan if the call fails, which marks the
   run incorrect. *)
let peak_rss_mb ?(children = false) () =
  match maxrss_kb (if children then 1 else 0) with
  | kb when kb > 0 -> float_of_int kb *. 1024.0 /. 1e6
  | _ -> Float.nan

(* --- inputs ------------------------------------------------------------ *)

(* Table II (G1-G12) and Table III (S1-S9), the paper's evaluation set. *)
let table_names =
  List.map
    (fun (g : Mcf_workloads.Configs.gemm_config) -> g.gname)
    Mcf_workloads.Configs.gemm_chains
  @ List.map
      (fun (s : Mcf_workloads.Configs.attention_config) -> s.sname)
      Mcf_workloads.Configs.attentions

(* --- output checks ----------------------------------------------------- *)

(* Everything a tune decides: the winner, its measured time and the
   virtual tuning clock (as bits), the funnel and the search stats. *)
let fingerprint ~(cand : Mcf_ir.Candidate.t) ~time_s ~virtual_s
    ~(funnel : Mcf_search.Space.funnel) ~(stats : Mcf_search.Explore.stats) =
  Printf.sprintf "%s|%Lx|%Lx|%d,%d,%d,%h,%h,%d,%d|%d,%d,%d"
    (Mcf_ir.Candidate.key cand)
    (Int64.bits_of_float time_s)
    (Int64.bits_of_float virtual_s)
    funnel.tilings_raw funnel.tilings_rule1 funnel.tilings_rule2
    funnel.candidates_raw funnel.candidates_rule3 funnel.candidates_rule4
    funnel.candidates_valid stats.generations stats.estimated stats.measured

let outcome_fingerprint (o : Mcf_search.Tuner.outcome) =
  fingerprint ~cand:o.best.cand ~time_s:o.kernel_time_s
    ~virtual_s:o.tuning_virtual_s ~funnel:o.funnel ~stats:o.search_stats

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The interpreter is the independent oracle: it executes the winning
   schedule tile by tile on random data and must match the untiled
   reference.  Chains above this many FLOPs take seconds to interpret
   and are skipped. *)
let interp_flops_cap = 2e7

let interp_agrees ~seed (chain : Mcf_ir.Chain.t) cand =
  let rng = Mcf_util.Rng.create seed in
  let inputs =
    List.map
      (fun (ts : Mcf_ir.Chain.tensor_spec) ->
        let dims = List.map (fun (a : Mcf_ir.Axis.t) -> a.size) ts.taxes in
        let shape =
          Array.of_list (if chain.batch > 1 then chain.batch :: dims else dims)
        in
        (ts.tname, Mcf_tensor.Tensor.random rng shape))
      (Mcf_ir.Chain.input_tensors chain)
  in
  match Mcf_interp.Interp.run_candidate chain cand ~inputs with
  | got ->
    Mcf_tensor.Tensor.approx_equal ~tol:1e-3 got
      (Mcf_interp.Interp.reference chain ~inputs)
  | exception _ -> false

(* Interpreter check over the distinct (chain, winner) pairs small enough
   to run; returns (checked, failed). *)
let interp_check ~seed winners =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun (checked, bad) ((chain : Mcf_ir.Chain.t), cand) ->
      let k = Mcf_ir.Chain.fingerprint chain ^ "|" ^ Mcf_ir.Candidate.key cand in
      if Hashtbl.mem seen k || Mcf_ir.Chain.total_flops chain > interp_flops_cap
      then (checked, bad)
      else begin
        Hashtbl.add seen k ();
        (checked + 1, if interp_agrees ~seed chain cand then bad else bad + 1)
      end)
    (0, 0) winners
