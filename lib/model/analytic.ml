(* Closed-form evaluation of the eq. (2)-(5) model from a program
   skeleton and a tile vector, without instantiating a lowered program.

   [Perf.breakdown spec (Lower.lower chain cand)] only consumes four
   aggregates — bytes/block, FLOPs/block, the block count and the
   verdict — each a function of the skeleton's statement paths and the
   tile/trip arrays.  A search's summary IS the [Skeleton.t] of one real
   [Program.build] per memo key; eq. (1)'s footprint is its residency
   items.  Exact by construction: every term is an integer-valued float
   far below 2^53, so addition is exact and order-independent, the terms
   are [Lower.instantiate]'s, operator for operator (written out here so
   the per-point loop allocates nothing: a float returned across modules
   is boxed), and both paths finish through [Perf.of_aggregates]. *)

open Mcf_ir

let c_memo_hits = Mcf_obs.Metrics.counter "model.memo.hits"
let c_memo_misses = Mcf_obs.Metrics.counter "model.memo.misses"

type summary = Skeleton.t

(* --- numeric evaluation ------------------------------------------------- *)

type eval = {
  bytes_per_block : float;
  flops_per_block : float;
  blocks : float;
  traffic_bytes : float;
  everdict : (unit, Program.invalid) result;
}

(* [acc] times the product of [arr] over the indices.  Loops below are
   written without closures or float folds: they run once per
   enumeration point, so they must not allocate. *)
let rec prod arr acc = function
  | [] -> acc
  | i :: rest -> prod arr (acc * arr.(i)) rest

let footprint ~elem_bytes (s : summary) ~tiles ~trips =
  let acc = ref 0 in
  for j = 0 to Array.length s.residency - 1 do
    let r = s.residency.(j) in
    acc := !acc + (prod tiles 1 r.rtile * elem_bytes * prod trips 1 r.rmult)
  done;
  !acc

let evaluate_tiles ~elem_bytes (s : summary) ~tiles ~trips =
  (* Sums of exactly-representable integers: order-independent. *)
  let bytes_per_block = ref 0.0 and flops_per_block = ref 0.0 in
  for j = 0 to Array.length s.stmts - 1 do
    let { Skeleton.op; path } = s.stmts.(j) in
    match op with
    | Skeleton.Access a ->
      let elems = prod trips (prod tiles 1 a.atile) a.amult in
      bytes_per_block :=
        !bytes_per_block
        +. float_of_int (elems * prod trips 1 path * elem_bytes)
    | Skeleton.Contraction c ->
      let flops_per_exec = 2.0 *. float_of_int (prod tiles 1 c.used) in
      flops_per_block :=
        !flops_per_block +. (flops_per_exec *. float_of_int (prod trips 1 path))
    | Skeleton.Epilogue e ->
      let out_tile = float_of_int (prod tiles 1 e.out) in
      let flops =
        match e.flavor with
        | Skeleton.Scale -> 1.0 *. out_tile
        | Skeleton.Unary uflops -> uflops *. out_tile
        | Skeleton.Softmax consumer_outs ->
          let base = 6.0 *. out_tile in
          if s.online then
            base
            +. List.fold_left
                 (fun acc q -> acc +. (3.0 *. float_of_int (prod tiles 1 q)))
                 0.0 consumer_outs
          else base
      in
      flops_per_block :=
        !flops_per_block +. (8.0 *. flops *. float_of_int (prod trips 1 path))
  done;
  let bytes_per_block = !bytes_per_block in
  let blocks = float_of_int (prod trips s.chain.batch s.grid) in
  { bytes_per_block;
    flops_per_block = !flops_per_block;
    blocks;
    traffic_bytes = bytes_per_block *. blocks;
    everdict = s.verdict }

let evaluate ~elem_bytes (s : summary) (cand : Candidate.t) =
  let tiles, trips = Skeleton.tile_arrays s cand in
  evaluate_tiles ~elem_bytes s ~tiles ~trips

let breakdown_of_eval spec (e : eval) =
  Perf.of_aggregates spec ~traffic_bytes:e.traffic_bytes
    ~flops_per_block:e.flops_per_block ~blocks:e.blocks

let eval_candidate ?rule1 ?dead_loop_elim ?hoisting ~elem_bytes chain cand =
  evaluate ~elem_bytes
    (Skeleton.make ?rule1 ?dead_loop_elim ?hoisting chain cand)
    cand

(* --- memoization -------------------------------------------------------- *)

module Memo = struct
  module Imap = Map.Make (Int)

  type t = {
    chain : Chain.t;
    rule1 : bool;
    dead_loop_elim : bool;
    hoisting : bool;
    elem_bytes : int;
    n_axes : int;
    sids : int Tiling.Tbl.t;  (* under [lock] *)
    relevant : int array Atomic.t;
        (* Per structural id, the trip=1 bits its summaries read.  Grown
           and written under [lock], read without it. *)
    table : summary Imap.t Atomic.t;
        (* Read without the lock; replaced, never mutated, under [lock]. *)
    lock : Mutex.t;
  }

  let create ?(rule1 = true) ?(dead_loop_elim = true) ?(hoisting = true)
      ~elem_bytes (chain : Chain.t) =
    { chain;
      rule1;
      dead_loop_elim;
      hoisting;
      elem_bytes;
      n_axes = List.length chain.axes;
      sids = Tiling.Tbl.create 64;
      relevant = Atomic.make (Array.make 16 0);
      table = Atomic.make Imap.empty;
      lock = Mutex.create () }

  (* Bit [i] set when [pred] holds for the chain's [i]-th axis. *)
  let axis_mask m pred =
    List.fold_left
      (fun (acc, bit) a -> ((if pred a then acc lor bit else acc), bit lsl 1))
      (0, 1) m.chain.axes
    |> fst

  (* The trip=1 bits a skeleton reads for a tiling: dead-loop elimination
     splices the body nest only, the blind-epilogue rule skips grid axes,
     and online softmax reads the softmax axes — so every axis but the
     grid's, plus the softmax axes.  The grid depends on the tiling only
     through what the structural id keeps (rule 1 puts every spatial axis
     in it), so the mask is a function of the id. *)
  let relevant_mask m tiling =
    let grid = Program.grid_of ~rule1:m.rule1 tiling in
    let softmax (a : Axis.t) =
      List.exists
        (fun (b : Chain.block) ->
          match b.epilogue with
          | Chain.Softmax { saxis; _ } -> Axis.equal saxis a
          | Chain.No_epilogue | Chain.Scale _ | Chain.Unary _ -> false)
        m.chain.blocks
    in
    axis_mask m (fun a -> softmax a || not (Axis.mem a grid))

  (* The summary depends on the tiling expression and on the trip=1 bits
     of [relevant_mask] — never on the tile magnitudes, which enter only
     at evaluation time.  Under rule 1 the structural id interns the
     canonical per-block sub-tiling: rule-1 dedup keeps one tiling per
     sub-expression in the space, so within a memo the id identifies the
     tiling, and candidates differing only in grid-loop order share one
     summary.  The table key packs the id above the relevant bits of the
     trip=1 mask (bit [i] for the chain's [i]-th axis), so points that
     differ only in grid-axis trips share one summary too. *)
  let sid m tiling =
    let k =
      if m.rule1 then Tiling.sub_tiling m.chain tiling else tiling
    in
    Mutex.lock m.lock;
    let id =
      match Tiling.Tbl.find_opt m.sids k with
      | Some id -> id
      | None ->
        let id = Tiling.Tbl.length m.sids in
        Tiling.Tbl.add m.sids k id;
        let r = Atomic.get m.relevant in
        let r =
          if id < Array.length r then r
          else Array.init (2 * id) (fun i -> if i < id then r.(i) else 0)
        in
        r.(id) <- relevant_mask m tiling;
        Atomic.set m.relevant r;
        id
    in
    Mutex.unlock m.lock;
    id

  let relevant m ~sid = (Atomic.get m.relevant).(sid)

  (* A scorer looks a summary up for every run of points from every pool
     domain, so hits read an immutable snapshot and take no lock; only
     inserts serialize on [lock]. *)
  let summary_at m ~sid ~mask cand_of =
    let k = (sid lsl m.n_axes) lor (mask land relevant m ~sid) in
    match Imap.find_opt k (Atomic.get m.table) with
    | Some s ->
      Mcf_obs.Metrics.incr c_memo_hits;
      s
    | None ->
      (* Summarize outside the lock: the function is pure, so a racing
         duplicate computation is wasted work at worst, and workers never
         serialize on each other's summaries.  Only the insert counts as
         a miss (the racer that loses counts a hit), so [misses] is the
         number of summaries the table holds at any pool size. *)
      let s =
        Skeleton.make ~rule1:m.rule1 ~dead_loop_elim:m.dead_loop_elim
          ~hoisting:m.hoisting m.chain (cand_of ())
      in
      Mutex.lock m.lock;
      let t = Atomic.get m.table in
      let fresh = not (Imap.mem k t) in
      if fresh then Atomic.set m.table (Imap.add k s t);
      Mutex.unlock m.lock;
      Mcf_obs.Metrics.incr (if fresh then c_memo_misses else c_memo_hits);
      s

  let reused _m n = Mcf_obs.Metrics.add c_memo_hits n

  let find m ~sid ~mask =
    Imap.find ((sid lsl m.n_axes) lor (mask land relevant m ~sid))
      (Atomic.get m.table)

  let summary m (cand : Candidate.t) =
    let mask = axis_mask m (fun a -> Candidate.trip cand a = 1) in
    summary_at m ~sid:(sid m cand.tiling) ~mask (fun () -> cand)

  let estimate m spec cand =
    (breakdown_of_eval spec
       (evaluate ~elem_bytes:m.elem_bytes (summary m cand) cand))
      .Perf.t_total
end
