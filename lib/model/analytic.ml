(* Closed-form evaluation of the eq. (2)-(5) model from a program
   skeleton and a tile vector, without instantiating a lowered program.

   [Perf.breakdown spec (Lower.lower chain cand)] only consumes four
   aggregates — bytes/block, FLOPs/block, the block count and the
   verdict — each a function of the skeleton's statement paths and the
   tile/trip arrays.  A search's summary is the [Skeleton.t] of one real
   [Program.build] per memo key, compiled once into flat int arrays of
   terms; eq. (1)'s footprint is its residency items.  A point then costs
   one linear pass over a few dozen ints, reading only [tiles] and
   [trips].  Exact by construction: every integer term is far below
   2^53, so summing the byte terms as ints and converting once equals
   [Lower]'s sum of converted terms; each FLOP term keeps
   [Lower.instantiate]'s float factors (written out in [compile]) and
   its operator order, statements are summed in program order, and both
   paths finish through [Perf.of_aggregates]. *)

open Mcf_ir

let c_memo_hits = Mcf_obs.Metrics.counter "model.memo.hits"
let c_memo_misses = Mcf_obs.Metrics.counter "model.memo.misses"

(* --- the compiled summary ----------------------------------------------- *)

(* A run is its length, then that many axis indices, read from [tiles]
   or [trips].  A footprint or byte term is the product of a tile run and
   a trip run; a FLOP term is its scale times the sum of its pieces'
   factor x tile-run product, times its trip run. *)
type summary = {
  skel : Skeleton.t;
  foot : int array;  (* per residency item: tile run, trip run *)
  bytes : int array;
      (* per Access: tile run, trip run over its Rule-2 multiplier and
         path axes *)
  flops : int array;
      (* per Contraction / Epilogue: its path's trip run, a piece count,
         then each piece's tile run *)
  fcoef : float array;
      (* per Contraction / Epilogue: its scale, then each piece's factor *)
  grid : int array;  (* the grid axes *)
}

(* A term array built in two passes of one emitter: the first pass only
   counts ([buf] is empty), then [buf] is allocated at that length and
   the second pass fills it, so no list is built on the way.  Int and
   float arrays get their own writer, so a write is a plain store. *)
type ints = { mutable buf : int array; mutable len : int }
type floats = { mutable fbuf : float array; mutable flen : int }

let put o v =
  if o.len < Array.length o.buf then Array.unsafe_set o.buf o.len v;
  o.len <- o.len + 1

let putf o v =
  if o.flen < Array.length o.fbuf then Array.unsafe_set o.fbuf o.flen v;
  o.flen <- o.flen + 1

let rec put_all o = function
  | [] -> ()
  | a :: l ->
    put o a;
    put_all o l

(* The run of [axes]: its length, then the axes in order. *)
let run o axes =
  put o (List.length axes);
  put_all o axes

(* Lower.instantiate's factors: a contraction's 2 FLOPs per MAC, and an
   epilogue's per-element FLOPs times the CUDA-core penalty of 8. *)
let compile (s : Skeleton.t) =
  let ints () = { buf = [||]; len = 0 } in
  let foot = ints () and bytes = ints () and flops = ints () in
  let fcoef = { fbuf = [||]; flen = 0 } in
  (* A FLOP term's head, then each of its [pieces] pieces. *)
  let flop path scale pieces =
    run flops path;
    put flops pieces;
    putf fcoef scale
  in
  let piece k axes =
    run flops axes;
    putf fcoef k
  in
  let emit () =
    Array.iter
      (fun (r : Skeleton.resident) ->
        run foot r.rtile;
        run foot r.rmult)
      s.residency;
    Array.iter
      (fun { Skeleton.op; path } ->
        match op with
        | Skeleton.Access a ->
          run bytes a.atile;
          run bytes (a.amult @ path)
        | Skeleton.Contraction c ->
          flop path 1.0 1;
          piece 2.0 c.used
        | Skeleton.Epilogue e -> (
          match e.flavor with
          | Skeleton.Scale ->
            flop path 8.0 1;
            piece 1.0 e.out
          | Skeleton.Unary uflops ->
            flop path 8.0 1;
            piece uflops e.out
          | Skeleton.Softmax consumer_outs ->
            (* Online softmax rescales every consumer accumulator tile on
               each softmax-axis step. *)
            let rescaled = if s.online then consumer_outs else [] in
            flop path 8.0 (1 + List.length rescaled);
            piece 6.0 e.out;
            List.iter (piece 3.0) rescaled))
      s.stmts
  in
  emit ();
  List.iter
    (fun o ->
      o.buf <- Array.make o.len 0;
      o.len <- 0)
    [ foot; bytes; flops ];
  fcoef.fbuf <- Array.make fcoef.flen 0.0;
  fcoef.flen <- 0;
  emit ();
  { skel = s;
    foot = foot.buf;
    bytes = bytes.buf;
    flops = flops.buf;
    fcoef = fcoef.fbuf;
    grid = Array.of_list s.grid }

let summarize ?rule1 ?dead_loop_elim ?hoisting chain cand =
  compile (Skeleton.make ?rule1 ?dead_loop_elim ?hoisting chain cand)

let skeleton s = s.skel

(* --- numeric evaluation ------------------------------------------------- *)

type eval = {
  bytes_per_block : float;
  flops_per_block : float;
  blocks : float;
  traffic_bytes : float;
  everdict : (unit, Program.invalid) result;
}

(* The loops below read the term arrays and the point's arrays without
   bounds checks: [compile] writes well-formed runs of axis indices, and
   [check] holds the point's arrays to the chain's axis count.  They use
   no closures or float folds, since they run once per enumeration point
   and must not allocate. *)
let get (a : int array) i = Array.unsafe_get a i

let check s ~tiles ~trips =
  let n = Array.length s.skel.axes in
  if Array.length tiles < n || Array.length trips < n then
    invalid_arg "Analytic: tile or trip array shorter than the chain's axes"

(* The sum over a term array of each term's tile-run x trip-run product. *)
let sum_terms code ~tiles ~trips =
  let acc = ref 0 and i = ref 0 in
  while !i < Array.length code do
    let p = ref 1 and n = get code !i in
    for j = !i + 1 to !i + n do
      p := !p * get tiles (get code j)
    done;
    let i2 = !i + n + 1 in
    let n2 = get code i2 in
    for j = i2 + 1 to i2 + n2 do
      p := !p * get trips (get code j)
    done;
    acc := !acc + !p;
    i := i2 + n2 + 1
  done;
  !acc

let footprint ~elem_bytes s ~tiles ~trips =
  check s ~tiles ~trips;
  sum_terms s.foot ~tiles ~trips * elem_bytes

let verdict s = s.skel.verdict

type aggregates = {
  mutable abytes : float;
  mutable aflops : float;
  mutable ablocks : float;
  mutable atraffic : float;
}

let aggregates () = { abytes = 0.0; aflops = 0.0; ablocks = 0.0; atraffic = 0.0 }

(* A record of floats only is stored flat, so these writes box nothing. *)
let aggregate ~elem_bytes s ~tiles ~trips agg =
  check s ~tiles ~trips;
  let bytes_per_block =
    float_of_int (sum_terms s.bytes ~tiles ~trips * elem_bytes)
  in
  let code = s.flops and coef = s.fcoef in
  let flops_per_block = ref 0.0 and i = ref 0 and c = ref 0 in
  while !i < Array.length code do
    let stmt_trips = ref 1 and n = get code !i in
    for j = !i + 1 to !i + n do
      stmt_trips := !stmt_trips * get trips (get code j)
    done;
    i := !i + n + 1;
    let pieces = get code !i and scale = Array.unsafe_get coef !c in
    let v = ref 0.0 in
    incr i;
    for k = 1 to pieces do
      let t = ref 1 and n = get code !i in
      for j = !i + 1 to !i + n do
        t := !t * get tiles (get code j)
      done;
      v := !v +. (Array.unsafe_get coef (!c + k) *. float_of_int !t);
      i := !i + n + 1
    done;
    c := !c + pieces + 1;
    flops_per_block :=
      !flops_per_block +. (scale *. !v *. float_of_int !stmt_trips)
  done;
  let blocks = ref s.skel.chain.batch in
  for j = 0 to Array.length s.grid - 1 do
    blocks := !blocks * get trips (get s.grid j)
  done;
  let blocks = float_of_int !blocks in
  agg.abytes <- bytes_per_block;
  agg.aflops <- !flops_per_block;
  agg.ablocks <- blocks;
  agg.atraffic <- bytes_per_block *. blocks

let evaluate_tiles ~elem_bytes s ~tiles ~trips =
  let agg = aggregates () in
  aggregate ~elem_bytes s ~tiles ~trips agg;
  { bytes_per_block = agg.abytes;
    flops_per_block = agg.aflops;
    blocks = agg.ablocks;
    traffic_bytes = agg.atraffic;
    everdict = verdict s }

let evaluate ~elem_bytes s (cand : Candidate.t) =
  let tiles, trips = Skeleton.tile_arrays s.skel cand in
  evaluate_tiles ~elem_bytes s ~tiles ~trips

let breakdown_of_eval spec (e : eval) =
  Perf.of_aggregates spec ~traffic_bytes:e.traffic_bytes
    ~flops_per_block:e.flops_per_block ~blocks:e.blocks

let eval_candidate ?rule1 ?dead_loop_elim ?hoisting ~elem_bytes chain cand =
  evaluate ~elem_bytes
    (summarize ?rule1 ?dead_loop_elim ?hoisting chain cand)
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
        summarize ~rule1:m.rule1 ~dead_loop_elim:m.dead_loop_elim
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
