(* Closed-form evaluation of the eq. (2)-(5) model straight from
   (chain, tiling, tiles), without building the lowered program.

   [Perf.breakdown spec (Lower.lower chain cand)] only consumes four
   aggregates of the placed program — bytes/block, FLOPs/block, the block
   count and the validity verdict — and each of those is a function of the
   *paths* (surrounding loop axes) of the placed statements, never of the
   statement order within a scope.  Paths in turn are decided by the three
   structural passes of [Program.build] (grid split, dead-loop splicing,
   the [find_scope] descent) plus the hoisting cascade, all of which
   operate on the loop skeleton alone.  So this module replays those
   passes symbolically and evaluates the same arithmetic the lowered walk
   would — eq. (1)'s footprint for the rule-4 precheck included, since it
   depends only on the producers' Compute paths.

   Exactness is by construction, not approximation: every term the
   lowered walk sums is an integer-valued float far below 2^53
   (tile elements x trips x bytes), so floating-point addition is exact
   and order-independent, the per-term expressions here are copied
   operator-for-operator from [Lower], and both paths finish through the
   one [Perf.of_aggregates] formula.  test_model.ml sweeps all
   workloads x flag combos asserting bit-equality of all four breakdown
   fields and the verdict. *)

open Mcf_ir

let c_memo_hits = Mcf_obs.Metrics.counter "model.memo.hits"
let c_memo_misses = Mcf_obs.Metrics.counter "model.memo.misses"

(* --- loop-nest skeleton (grid + body), mirroring Program.split_grid --- *)

type fnode = { fax : Axis.t; fgroup : int option; fchildren : fnode list }

let rec nest group axes inner =
  match axes with
  | [] -> inner
  | a :: rest ->
    [ { fax = a; fgroup = group; fchildren = nest group rest inner } ]

let split_spatial ~rule1 axes =
  if rule1 then List.partition Axis.is_spatial axes
  else begin
    let rec span acc = function
      | a :: rest when Axis.is_spatial a -> span (a :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    span [] axes
  end

let structure ~rule1 (tiling : Tiling.t) =
  match tiling with
  | Tiling.Deep perm ->
    let grid, body = split_spatial ~rule1 perm in
    (grid, nest None body [])
  | Tiling.Flat (prefix, groups) ->
    let grid, body_prefix = split_spatial ~rule1 prefix in
    let group_nodes =
      List.concat (List.mapi (fun i g -> nest (Some i) g []) groups)
    in
    (grid, nest None body_prefix group_nodes)

(* Mirrors Program.splice_dead. *)
let rec splice_unit cand nodes =
  List.concat_map
    (fun n ->
      let children = splice_unit cand n.fchildren in
      if Candidate.trip cand n.fax = 1 then children
      else [ { n with fchildren = children } ])
    nodes

let rec subtree_has targets n =
  Axis.mem n.fax targets || List.exists (subtree_has targets) n.fchildren

(* Mirrors Program.find_scope: the axis path from the root down to the
   deepest scope still containing a target axis, restricted to loops
   visible to [group_idx] and never entering [stop_axes]. *)
let find_path roots ~group_idx ~targets ~stop_axes =
  let eligible n =
    match n.fgroup with None -> true | Some g -> g = group_idx
  in
  let rec go acc nodes =
    match
      List.find_opt
        (fun n ->
          eligible n
          && (not (Axis.mem n.fax stop_axes))
          && subtree_has targets n)
        nodes
    with
    | Some n -> go (n.fax :: acc) n.fchildren
    | None -> List.rev acc
  in
  go [] roots

(* Mirrors the hoisting cascade for a Load/Store: the statement escapes
   every enclosing loop, innermost first, whose axis the tensor does not
   index — i.e. the maximal trailing run of path axes outside [taxes] is
   dropped (Compute/Epilogue never hoist). *)
let hoist_trim ~taxes path =
  let rec trim = function
    | a :: rest when not (Axis.mem a taxes) -> trim rest
    | rest -> rest
  in
  List.rev (trim (List.rev path))

(* --- symbolic program summary ------------------------------------------ *)

(* Axis lists are resolved to integer indices into [saxes] (the chain's
   axis order) when the summary is built, so the per-candidate [evaluate]
   runs off two small int arrays instead of name-keyed assoc lookups —
   the summary is memoized across thousands of candidates, the evaluation
   is not. *)

type access_item = {
  a_tile_idx : int list;  (* the tensor's taxes *)
  a_path_idx : int list;
  a_mult_idx : int list;
      (* Store only: axes whose trip counts multiply the resident tile
         (Program.residency_multiplier); empty for loads. *)
}

type epilogue_flavor =
  | E_scale
  | E_unary of float
  | E_softmax of int list list
      (* Consumer accumulator tiles rescaled by online softmax. *)

type compute_item =
  | Contraction of { c_used_idx : int list; c_path_idx : int list }
  | Epilogue of {
      e_out_idx : int list;
      e_path_idx : int list;
      e_flavor : epilogue_flavor;
    }

(* One eq. (1) term: a resident tensor's tile, times the trips of the
   axes that multiply its residency (Program.residency_multiplier). *)
type footprint_item = { f_tile_idx : int list; f_mult_idx : int list }

type summary = {
  sbatch : int;
  sgrid_idx : int list;
  saxes : Axis.t array;
  saccesses : access_item array;
  scomputes : compute_item array;
  sfootprint : footprint_item array;
  sonline : bool;
  sverdict : (unit, Program.invalid) result;
}

(* Mirrors Program.residency_multiplier: axes of the tensor iterating
   below the producer's reduction on the producer's Compute path. *)
let mult_axes_of chain cpath_of (ts : Chain.tensor_spec) =
  match Chain.producer_of chain ts with
  | None -> []
  | Some p -> (
    match cpath_of p.Chain.bname with
    | None -> []
    | Some path ->
      let rec scan seen_reduce acc = function
        | [] -> List.rev acc
        | a :: rest ->
          let seen_reduce = seen_reduce || Axis.mem a p.Chain.reduce_axes in
          let acc =
            if seen_reduce && Axis.mem a ts.taxes then a :: acc else acc
          in
          scan seen_reduce acc rest
      in
      scan false [] path)

(* Mirrors Program.validate on the symbolic paths, rule for rule and in
   the same order, so the verdict is bit-identical to the lowered walk's.

   The [Consumed_before_epilogue] mirror reconstructs the static order
   from paths alone.  [Program.insert_ordered] puts a statement after
   every already-populated loop of its scope, so a later consumer Compute
   ends up *before* the epilogue exactly when it descends, from the
   epilogue's scope, into a loop that already held a statement when the
   epilogue was inserted — i.e. when the epilogue path [Ep] is a proper
   prefix of the consumer's compute path and the next loop on that path
   is a prefix of some earlier-placed statement's (pre-hoist) path. *)
let validate chain (cand : Candidate.t) ~grid ~cpath_of ~epath_of ~spath_of =
  let nonlinear () =
    List.find_map
      (fun (p : Chain.block) ->
        if Chain.is_linear_through chain p then None
        else begin
          let check path_opt =
            Option.bind path_opt (fun path ->
                Option.map
                  (fun (a : Axis.t) ->
                    Program.Nonlinear_partial_consume
                      { producer = p.bname; loop = a.name })
                  (List.find_opt
                     (fun a -> Axis.mem a p.reduce_axes)
                     path))
          in
          let consumer_paths =
            List.map
              (fun (q : Chain.block) -> cpath_of q.Chain.bname)
              (Chain.consumers_of chain p.out)
          in
          List.find_map check (epath_of p.bname :: consumer_paths)
        end)
      chain.blocks
  in
  let blind () =
    List.find_map
      (fun (p : Chain.block) ->
        match epath_of p.bname with
        | None -> None
        | Some epath ->
          List.find_map
            (fun (a : Axis.t) ->
              if
                Candidate.trip cand a > 1
                && (not (Axis.mem a grid))
                && not (Axis.mem a epath)
              then
                Some
                  (Program.Blind_epilogue { producer = p.bname; axis = a.name })
              else None)
            p.out.taxes)
      chain.blocks
  in
  let consumed_first () =
    let rec is_prefix (xs : Axis.t list) ys =
      match (xs, ys) with
      | [], _ -> true
      | x :: xs', y :: ys' -> Axis.equal x y && is_prefix xs' ys'
      | _ :: _, [] -> false
    in
    let rec scan prior = function
      | [] -> None
      | (p : Chain.block) :: rest ->
        let cpath_p = Option.value (cpath_of p.Chain.bname) ~default:[] in
        (* Loads share the Compute's scope pre-hoist, so [cpath_p] stands
           in for them too. *)
        let prior_here = cpath_p :: prior in
        let hazard =
          match epath_of p.bname with
          | None -> None
          | Some ep ->
            let j = List.length ep in
            List.find_map
              (fun (q : Chain.block) ->
                match cpath_of q.Chain.bname with
                | Some cq when List.length cq > j && is_prefix ep cq ->
                  let x = List.nth cq j in
                  if List.exists (is_prefix (ep @ [ x ])) prior_here then
                    Some
                      (Program.Consumed_before_epilogue
                         { producer = p.bname; consumer = q.bname })
                  else None
                | Some _ | None -> None)
              (Chain.consumers_of chain p.out)
        in
        (match hazard with
        | Some _ as v -> v
        | None ->
          let prior =
            prior_here
            @ (match epath_of p.bname with Some e -> [ e ] | None -> [])
            @ (match spath_of p.bname with Some s -> [ s ] | None -> [])
          in
          scan prior rest)
    in
    scan [] chain.Chain.blocks
  in
  (* Same static-order reconstruction for Compute vs Compute: the
     producer's Compute lands after a loop when earlier blocks already
     populated it, so a consumer descending into that loop (a proper
     extension of the producer's path) statically precedes it.  Only
     blocks strictly before the producer count — the producer's own
     Loads sit at its Compute scope, never inside the extension loop. *)
  let produced_first () =
    let rec is_prefix (xs : Axis.t list) ys =
      match (xs, ys) with
      | [], _ -> true
      | x :: xs', y :: ys' -> Axis.equal x y && is_prefix xs' ys'
      | _ :: _, [] -> false
    in
    let rec scan prior = function
      | [] -> None
      | (p : Chain.block) :: rest ->
        let cpath_p = Option.value (cpath_of p.Chain.bname) ~default:[] in
        let j = List.length cpath_p in
        let hazard =
          List.find_map
            (fun (q : Chain.block) ->
              match cpath_of q.Chain.bname with
              | Some cq when List.length cq > j && is_prefix cpath_p cq ->
                let x = List.nth cq j in
                if List.exists (is_prefix (cpath_p @ [ x ])) prior then
                  Some
                    (Program.Consumed_before_produced
                       { producer = p.bname; consumer = q.bname })
                else None
              | Some _ | None -> None)
            (Chain.consumers_of chain p.out)
        in
        (match hazard with
        | Some _ as v -> v
        | None ->
          let prior =
            (cpath_p :: prior)
            @ (match epath_of p.bname with Some e -> [ e ] | None -> [])
            @ (match spath_of p.bname with Some s -> [ s ] | None -> [])
          in
          scan prior rest)
    in
    scan [] chain.Chain.blocks
  in
  match nonlinear () with
  | Some v -> Error v
  | None -> (
    match blind () with
    | Some v -> Error v
    | None -> (
      match consumed_first () with
      | Some v -> Error v
      | None -> (
        match produced_first () with Some v -> Error v | None -> Ok ())))

let summarize ?(rule1 = true) ?(dead_loop_elim = true) ?(hoisting = true)
    (chain : Chain.t) (cand : Candidate.t) =
  let grid, roots = structure ~rule1 cand.tiling in
  let roots = if dead_loop_elim then splice_unit cand roots else roots in
  let saxes = Array.of_list chain.axes in
  let idx_of (a : Axis.t) =
    let rec go i = if Axis.equal saxes.(i) a then i else go (i + 1) in
    go 0
  in
  let idxs = List.map idx_of in
  let cpaths = Hashtbl.create 8 in
  let epaths = Hashtbl.create 8 in
  let spaths = Hashtbl.create 8 in
  let accesses = ref [] in
  let computes = ref [] in
  List.iteri
    (fun group_idx (b : Chain.block) ->
      let used = Chain.used_axes b in
      let non_out =
        List.filter (fun a -> not (Axis.mem a b.out.taxes)) chain.Chain.axes
      in
      let cpath = find_path roots ~group_idx ~targets:used ~stop_axes:[] in
      Hashtbl.replace cpaths b.bname cpath;
      List.iter
        (fun (ts : Chain.tensor_spec) ->
          if ts.storage = Chain.Input then begin
            let path =
              if hoisting then hoist_trim ~taxes:ts.taxes cpath else cpath
            in
            accesses :=
              { a_tile_idx = idxs ts.taxes;
                a_path_idx = idxs path;
                a_mult_idx = [] }
              :: !accesses
          end)
        b.ins;
      computes :=
        Contraction { c_used_idx = idxs used; c_path_idx = idxs cpath }
        :: !computes;
      (match b.epilogue with
      | Chain.No_epilogue -> ()
      | (Chain.Scale _ | Chain.Softmax _ | Chain.Unary _) as ep ->
        let after_reduce =
          List.filter (fun a -> not (Axis.mem a b.reduce_axes)) used
        in
        let epath =
          find_path roots ~group_idx ~targets:after_reduce ~stop_axes:non_out
        in
        Hashtbl.replace epaths b.bname epath;
        let flavor =
          match ep with
          | Chain.No_epilogue -> assert false
          | Chain.Scale _ -> E_scale
          | Chain.Unary { uflops; _ } -> E_unary uflops
          | Chain.Softmax _ ->
            E_softmax
              (List.map
                 (fun (q : Chain.block) -> idxs q.out.taxes)
                 (Chain.consumers_of chain b.out))
        in
        computes :=
          Epilogue
            { e_out_idx = idxs b.out.taxes;
              e_path_idx = idxs epath;
              e_flavor = flavor }
          :: !computes);
      if b.out.storage = Chain.Output then begin
        (* Mirrors the store's epilogue-aware stop set in
           Program.place_statements. *)
        let stop =
          match b.epilogue with
          | Chain.No_epilogue -> b.reduce_axes
          | Chain.Scale _ | Chain.Softmax _ | Chain.Unary _ -> non_out
        in
        let spath =
          find_path roots ~group_idx ~targets:b.out.taxes ~stop_axes:stop
        in
        Hashtbl.replace spaths b.bname spath;
        let spath =
          if hoisting then hoist_trim ~taxes:b.out.taxes spath else spath
        in
        accesses :=
          { a_tile_idx = idxs b.out.taxes;
            a_path_idx = idxs spath;
            a_mult_idx =
              idxs (mult_axes_of chain (Hashtbl.find_opt cpaths) b.out) }
          :: !accesses
      end)
    chain.blocks;
  (* An Input is resident iff some block loads it; intermediates and the
     output accumulator always are (same rule as Lower.of_program). *)
  let touched (ts : Chain.tensor_spec) =
    match ts.storage with
    | Chain.Intermediate | Chain.Output -> true
    | Chain.Input ->
      List.exists
        (fun (b : Chain.block) ->
          List.exists
            (fun (i : Chain.tensor_spec) ->
              i.storage = Chain.Input && i.tname = ts.tname)
            b.ins)
        chain.blocks
  in
  { sbatch = chain.batch;
    sgrid_idx = idxs grid;
    saxes;
    saccesses = Array.of_list (List.rev !accesses);
    scomputes = Array.of_list (List.rev !computes);
    sfootprint =
      Array.of_list
      @@ List.filter_map
        (fun (ts : Chain.tensor_spec) ->
          if touched ts then
            Some
              { f_tile_idx = idxs ts.taxes;
                f_mult_idx =
                  idxs (mult_axes_of chain (Hashtbl.find_opt cpaths) ts) }
          else None)
        chain.tensors;
    sonline =
      List.exists
        (fun (b : Chain.block) ->
          match b.epilogue with
          | Chain.Softmax { saxis; _ } -> Candidate.trip cand saxis > 1
          | Chain.No_epilogue | Chain.Scale _ | Chain.Unary _ -> false)
        chain.blocks;
    sverdict =
      validate chain cand ~grid
        ~cpath_of:(Hashtbl.find_opt cpaths)
        ~epath_of:(Hashtbl.find_opt epaths)
        ~spath_of:(Hashtbl.find_opt spaths) }

(* --- numeric evaluation ------------------------------------------------- *)

type eval = {
  bytes_per_block : float;
  flops_per_block : float;
  blocks : float;
  traffic_bytes : float;
  everdict : (unit, Program.invalid) result;
}

(* Tile extents and trip counts in axis order: the arrays every
   evaluation below runs off. *)
let tile_arrays (s : summary) (cand : Candidate.t) =
  let tiles = Array.map (Candidate.tile cand) s.saxes in
  let trips =
    Array.mapi
      (fun i (a : Axis.t) -> (a.size + tiles.(i) - 1) / tiles.(i))
      s.saxes
  in
  (tiles, trips)

(* [acc] times the product of [arr] over the indices.  Loops below are
   written without closures or float folds: they run once per
   enumeration point, so they must not allocate. *)
let rec prod arr acc = function
  | [] -> acc
  | i :: rest -> prod arr (acc * arr.(i)) rest

let footprint ~elem_bytes (s : summary) ~tiles ~trips =
  let acc = ref 0 in
  for j = 0 to Array.length s.sfootprint - 1 do
    let it = s.sfootprint.(j) in
    acc :=
      !acc
      + (prod tiles 1 it.f_tile_idx * elem_bytes * prod trips 1 it.f_mult_idx)
  done;
  !acc

let evaluate_tiles ~elem_bytes (s : summary) ~tiles ~trips =
  (* Sums of exactly-representable integers: order-independent, so this
     needn't reproduce the placed-statement walk order of Lower. *)
  let bytes_per_block = ref 0.0 in
  for j = 0 to Array.length s.saccesses - 1 do
    let it = s.saccesses.(j) in
    let elems = prod trips (prod tiles 1 it.a_tile_idx) it.a_mult_idx in
    bytes_per_block :=
      !bytes_per_block
      +. float_of_int (elems * prod trips 1 it.a_path_idx * elem_bytes)
  done;
  let flops_per_block = ref 0.0 in
  for j = 0 to Array.length s.scomputes - 1 do
    match s.scomputes.(j) with
    | Contraction { c_used_idx; c_path_idx } ->
      (* Lower.contraction_flops *)
      let flops_per_exec = 2.0 *. float_of_int (prod tiles 1 c_used_idx) in
      flops_per_block :=
        !flops_per_block
        +. (flops_per_exec *. float_of_int (prod trips 1 c_path_idx))
    | Epilogue { e_out_idx; e_path_idx; e_flavor } ->
      (* cuda_core_penalty *. Lower.epilogue_flops *)
      let out_tile = float_of_int (prod tiles 1 e_out_idx) in
      let flops =
        match e_flavor with
        | E_scale -> 1.0 *. out_tile
        | E_unary uflops -> uflops *. out_tile
        | E_softmax consumer_outs ->
          let base = 6.0 *. out_tile in
          if s.sonline then
            base
            +. List.fold_left
                 (fun acc q -> acc +. (3.0 *. float_of_int (prod tiles 1 q)))
                 0.0 consumer_outs
          else base
      in
      flops_per_block :=
        !flops_per_block
        +. (8.0 *. flops *. float_of_int (prod trips 1 e_path_idx))
  done;
  let bytes_per_block = !bytes_per_block in
  let blocks = float_of_int (prod trips s.sbatch s.sgrid_idx) in
  { bytes_per_block;
    flops_per_block = !flops_per_block;
    blocks;
    traffic_bytes = bytes_per_block *. blocks;
    everdict = s.sverdict }

let evaluate ~elem_bytes (s : summary) (cand : Candidate.t) =
  let tiles, trips = tile_arrays s cand in
  evaluate_tiles ~elem_bytes s ~tiles ~trips

let breakdown_of_eval spec (e : eval) =
  Perf.of_aggregates spec ~traffic_bytes:e.traffic_bytes
    ~flops_per_block:e.flops_per_block ~blocks:e.blocks

let eval_candidate ?rule1 ?dead_loop_elim ?hoisting ~elem_bytes chain cand =
  evaluate ~elem_bytes (summarize ?rule1 ?dead_loop_elim ?hoisting chain cand)
    cand

let verdict ?rule1 ?dead_loop_elim ?hoisting chain cand =
  (summarize ?rule1 ?dead_loop_elim ?hoisting chain cand).sverdict

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

  (* The trip=1 bits [summarize] reads for a tiling: [splice_unit] walks
     the body nest only, [validate]'s blind-epilogue check skips grid
     axes, and [sonline] reads the softmax axes — so every axis but the
     grid's, plus the softmax axes.  The grid depends on the tiling only
     through what the structural id keeps (rule 1 puts every spatial axis
     in it), so the mask is a function of the id. *)
  let relevant_mask m tiling =
    let grid, _ = structure ~rule1:m.rule1 tiling in
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

  let summary m (cand : Candidate.t) =
    let mask = axis_mask m (fun a -> Candidate.trip cand a = 1) in
    summary_at m ~sid:(sid m cand.tiling) ~mask (fun () -> cand)

  let estimate m spec cand =
    (breakdown_of_eval spec
       (evaluate ~elem_bytes:m.elem_bytes (summary m cand) cand))
      .Perf.t_total
end
