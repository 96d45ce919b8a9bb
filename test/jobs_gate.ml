(* Jobs gate: the streamed deep-chain enumeration on the shared pool at
   [max 4 (Pool.default_jobs ())] jobs must keep at least 0.9x its 1-job
   throughput.  A wall-clock ratio, so not a unit test: `make jobs-gate`
   runs the built binary directly, so no dune process shares the cores
   with the timed regions.

   Each timed region repeats the enumeration until it has run for 100 ms
   or more, far above timer and scheduling noise, and the two arms
   alternate region by region, so a spell in which the host runs slower
   hits both; each arm keeps its best of three regions.  Prints every
   reading and exits 1 below the threshold. *)

module Pool = Mcf_util.Pool

let threshold = 0.9
let rounds = 3
let reservoir = 256

(* The same 6-block structure as D6 (eight axes), scaled down. *)
let chain =
  Mcf_ir.Chain.gemm_chain_n ~m:128 ~dims:[ 64; 64; 64; 64; 64; 64; 64 ] ()

let enumerate () =
  ignore (Mcf_search.Space.enumerate_points ~reservoir Mcf_gpu.Spec.a100 chain)

let () =
  let jobs = max 4 (Pool.default_jobs ()) in
  let use j =
    Pool.set_jobs j;
    ignore (Pool.get ())
  in
  (* One region: enumerations at [j] jobs until 100 ms have passed; its
     reading is the seconds per enumeration. *)
  let region j =
    use j;
    let t0 = Unix.gettimeofday () and n = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.1 do
      enumerate ();
      incr n
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt /. float_of_int !n, dt, !n)
  in
  (* Spawn the pool and warm the enumeration before the first region. *)
  use jobs;
  enumerate ();
  let seq = ref infinity and par = ref infinity in
  for r = 1 to rounds do
    let s, sdt, sn = region 1 in
    let p, pdt, pn = region jobs in
    Printf.printf
      "jobs-gate: round %d: 1 job %d in %.3fs, %d jobs %d in %.3fs\n" r sn sdt
      jobs pn pdt;
    seq := Float.min !seq s;
    par := Float.min !par p
  done;
  let ratio = !seq /. !par in
  Printf.printf
    "jobs-gate: %d jobs (%d domains on %d cores) %.2fx the 1-job throughput, \
     best of %d regions (threshold %.1fx)\n"
    jobs (Pool.effective_jobs ())
    (Domain.recommended_domain_count ())
    ratio rounds threshold;
  if ratio < threshold then exit 1
