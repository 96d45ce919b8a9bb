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
   passes symbolically, in the style [Shmem.footprint_of_candidate]
   pioneered for the rule-4 precheck, and evaluates the same arithmetic
   the lowered walk would.

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

let structure ~rule1 (cand : Candidate.t) =
  match cand.tiling with
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

type summary = {
  sbatch : int;
  sgrid_idx : int list;
  saxes : Axis.t array;
  saccesses : access_item list;
  scomputes : compute_item list;
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
  let grid, roots = structure ~rule1 cand in
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
  { sbatch = chain.batch;
    sgrid_idx = idxs grid;
    saxes;
    saccesses = List.rev !accesses;
    scomputes = List.rev !computes;
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

let evaluate ~elem_bytes (s : summary) (cand : Candidate.t) =
  (* One name-keyed lookup per chain axis; everything below runs off the
     two int arrays. *)
  let n = Array.length s.saxes in
  let tiles = Array.make n 1 in
  let trips = Array.make n 1 in
  Array.iteri
    (fun i (a : Axis.t) ->
      let tl = Candidate.tile cand a in
      tiles.(i) <- tl;
      trips.(i) <- (a.size + tl - 1) / tl)
    s.saxes;
  let prod_tiles idx = List.fold_left (fun acc i -> acc * tiles.(i)) 1 idx in
  let prod_trips idx = List.fold_left (fun acc i -> acc * trips.(i)) 1 idx in
  (* Sum of exactly-representable integers: order-independent, so this
     needn't reproduce the placed-statement walk order of Lower. *)
  let bytes_per_block =
    List.fold_left
      (fun acc it ->
        let elems =
          match it.a_mult_idx with
          | [] -> prod_tiles it.a_tile_idx
          | ms -> prod_tiles it.a_tile_idx * prod_trips ms
        in
        acc +. float_of_int (elems * prod_trips it.a_path_idx * elem_bytes))
      0.0 s.saccesses
  in
  let flops_per_block =
    List.fold_left
      (fun acc it ->
        match it with
        | Contraction { c_used_idx; c_path_idx } ->
          (* Lower.contraction_flops *)
          let flops_per_exec =
            2.0
            *. List.fold_left
                 (fun acc i -> acc *. float_of_int tiles.(i))
                 1.0 c_used_idx
          in
          acc +. (flops_per_exec *. float_of_int (prod_trips c_path_idx))
        | Epilogue { e_out_idx; e_path_idx; e_flavor } ->
          (* cuda_core_penalty *. Lower.epilogue_flops *)
          let out_tile = float_of_int (prod_tiles e_out_idx) in
          let flops =
            match e_flavor with
            | E_scale -> 1.0 *. out_tile
            | E_unary uflops -> uflops *. out_tile
            | E_softmax consumer_outs ->
              let base = 6.0 *. out_tile in
              if s.sonline then
                base
                +. List.fold_left
                     (fun acc q -> acc +. (3.0 *. float_of_int (prod_tiles q)))
                     0.0 consumer_outs
              else base
          in
          acc +. (8.0 *. flops *. float_of_int (prod_trips e_path_idx)))
      0.0 s.scomputes
  in
  let blocks =
    float_of_int
      (List.fold_left (fun acc i -> acc * trips.(i)) s.sbatch s.sgrid_idx)
  in
  { bytes_per_block;
    flops_per_block;
    blocks;
    traffic_bytes = bytes_per_block *. blocks;
    everdict = s.sverdict }

let breakdown_of_eval spec (e : eval) =
  Perf.of_aggregates spec ~traffic_bytes:e.traffic_bytes
    ~flops_per_block:e.flops_per_block ~blocks:e.blocks

let eval_candidate ?rule1 ?dead_loop_elim ?hoisting ~elem_bytes chain cand =
  evaluate ~elem_bytes (summarize ?rule1 ?dead_loop_elim ?hoisting chain cand)
    cand

let breakdown ?rule1 ?dead_loop_elim ?hoisting spec chain cand =
  breakdown_of_eval spec
    (eval_candidate ?rule1 ?dead_loop_elim ?hoisting
       ~elem_bytes:spec.Mcf_gpu.Spec.elem_bytes chain cand)

let estimate ?rule1 ?dead_loop_elim ?hoisting spec chain cand =
  (breakdown ?rule1 ?dead_loop_elim ?hoisting spec chain cand).Perf.t_total

let verdict ?rule1 ?dead_loop_elim ?hoisting chain cand =
  (summarize ?rule1 ?dead_loop_elim ?hoisting chain cand).sverdict

(* --- memoization -------------------------------------------------------- *)

module Memo = struct
  type t = {
    chain : Chain.t;
    rule1 : bool;
    dead_loop_elim : bool;
    hoisting : bool;
    elem_bytes : int;
    table : (string, summary) Hashtbl.t;
    lock : Mutex.t;
  }

  let create ?(rule1 = true) ?(dead_loop_elim = true) ?(hoisting = true)
      ~elem_bytes chain =
    { chain;
      rule1;
      dead_loop_elim;
      hoisting;
      elem_bytes;
      table = Hashtbl.create 64;
      lock = Mutex.create () }

  (* The summary depends on the tiling expression and on which trips are 1
     (dead-loop splicing, online softmax) — never on the tile magnitudes,
     which enter only at [evaluate] time.  Under rule 1 the key uses the
     canonical per-block sub-tiling: rule-1 dedup keeps one tiling per
     sub-expression in the space, so within a memo the sub-key identifies
     the tiling, and candidates differing only in grid-loop order share
     one summary. *)
  let key m (cand : Candidate.t) =
    let structural =
      if m.rule1 then
        Tiling.to_string (Tiling.sub_tiling m.chain cand.tiling)
      else Tiling.to_string cand.tiling
    in
    let mask =
      String.concat ""
        (List.map
           (fun (a : Axis.t) ->
             if Candidate.trip cand a = 1 then "1" else "-")
           m.chain.axes)
    in
    structural ^ "|" ^ mask

  let summary m cand =
    let k = key m cand in
    Mutex.lock m.lock;
    match Hashtbl.find_opt m.table k with
    | Some s ->
      Mutex.unlock m.lock;
      Mcf_obs.Metrics.incr c_memo_hits;
      s
    | None ->
      (* Summarize outside the lock: the function is pure, so a racing
         duplicate computation is wasted work at worst, and workers never
         serialize on each other's summaries. *)
      Mutex.unlock m.lock;
      Mcf_obs.Metrics.incr c_memo_misses;
      let s =
        summarize ~rule1:m.rule1 ~dead_loop_elim:m.dead_loop_elim
          ~hoisting:m.hoisting m.chain cand
      in
      Mutex.lock m.lock;
      if not (Hashtbl.mem m.table k) then Hashtbl.add m.table k s;
      Mutex.unlock m.lock;
      s

  let eval m cand = evaluate ~elem_bytes:m.elem_bytes (summary m cand) cand

  let breakdown m spec cand = breakdown_of_eval spec (eval m cand)

  let estimate m spec cand = (breakdown m spec cand).Perf.t_total
end
