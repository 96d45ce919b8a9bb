open Mcf_ir

let log_src = Logs.Src.create "mcfuser.space" ~doc:"MCFuser search-space construction"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_enumerations = Mcf_obs.Metrics.counter "space.enumerations"
let c_tilings_raw = Mcf_obs.Metrics.counter "space.tilings_raw"
let c_candidates_lowered = Mcf_obs.Metrics.counter "space.candidates_lowered"
let c_entries_built = Mcf_obs.Metrics.counter "space.entries_built"
let c_pruned_rule1 = Mcf_obs.Metrics.counter "space.pruned_rule1"
let c_pruned_rule2 = Mcf_obs.Metrics.counter "space.pruned_rule2"
let c_pruned_rule4 = Mcf_obs.Metrics.counter "space.pruned_rule4"
let c_pruned_invalid = Mcf_obs.Metrics.counter "space.pruned_invalid"
let c_candidates_valid = Mcf_obs.Metrics.counter "space.candidates_valid"

type options = {
  rule1 : bool;
  rule2 : bool;
  rule3 : bool;
  rule4 : bool;
  include_flat : bool;
  dead_loop_elim : bool;
  hoisting : bool;
}

let default_options =
  { rule1 = true;
    rule2 = true;
    rule3 = true;
    rule4 = true;
    include_flat = true;
    dead_loop_elim = true;
    hoisting = true }

let max_padding = 0.05
let shmem_slack = 1.2

(* The search-point encoding, built once per (chain, rule 3).  A point
   of the pruned space is a rank: the emitting tiling's ordinal times
   [n_combos] plus a combo index, whose digit for axis [a] (in
   [chain.axes] order, the first axis slowest) is
   [combo / strides.(a) mod |tiles.(a)|]. *)
type grid = {
  tiles : int array array;  (* rule-3 tile options per axis *)
  trips : int array array;  (* ceil(size / tile), aligned with [tiles] *)
  opt_pos : int array array;
      (* each rule-3 tile's position in [Candidate.tile_options] *)
  named : (string * int) array array;
      (* [(axis name, tile)], aligned with [tiles]: a candidate's entries *)
  strides : int array;
  sorted : int array;  (* sorted-name position -> [chain.axes] index *)
  n_combos : int;
}

type ctx = {
  chain : Chain.t;
  rule1 : bool;
  dead_loop_elim : bool;
  hoisting : bool;
  elem_bytes : int;
  grid : grid;
}

type entry = {
  cand : Candidate.t;
  ctx : ctx;
  cell : Lower.t Mcf_util.Once.t;
  rank : int;
}

let lowered e = Mcf_util.Once.force e.cell

(* Lowering is deferred until someone actually needs the lowered
   candidate — measurement, codegen, a baseline's feature extractor.  The
   estimate path never does (the closed-form [Mcf_model.Analytic] covers
   it), so a tune lowers tens of candidates instead of the whole valid
   space.  The [space.lower] span and counter meter exactly those
   forces. *)
let entry_at ~lower ~rank ctx cand =
  Mcf_obs.Metrics.incr c_entries_built;
  { cand;
    ctx;
    rank;
    cell =
      Mcf_util.Once.make (fun () ->
          Mcf_obs.Trace.with_span "space.lower" (fun () ->
              Mcf_obs.Metrics.incr c_candidates_lowered;
              lower ~rank cand)) }

let make_entry ctx =
  entry_at ctx ~rank:(-1) ~lower:(fun ~rank:_ cand ->
      Lower.lower ~rule1:ctx.rule1 ~dead_loop_elim:ctx.dead_loop_elim
        ~hoisting:ctx.hoisting ~elem_bytes:ctx.elem_bytes ctx.chain cand)

type points = {
  pctx : ctx;
  ranks : int array;
  estimates : float array;
  traffic : float array;
  build : int -> entry;
}

type funnel = {
  tilings_raw : int;
  tilings_rule1 : int;
  tilings_rule2 : int;
  candidates_raw : float;
  candidates_rule3 : float;
  candidates_rule4 : int;
  candidates_valid : int;
}

(* Rule 2 is structural: in the per-block expression, a reduction loop of
   some producer appearing before (outside) an axis of its intermediate
   output forces multiple resident partial tiles (Fig. 6(b)). *)
let violates_rule2 (chain : Chain.t) tiling =
  let order = Tiling.axes (Tiling.sub_tiling chain tiling) in
  let intermediates =
    List.filter (fun (ts : Chain.tensor_spec) -> ts.storage = Chain.Intermediate)
      chain.tensors
  in
  List.exists
    (fun (ts : Chain.tensor_spec) ->
      match Chain.producer_of chain ts with
      | None -> false
      | Some p ->
        let rec scan seen_reduce = function
          | [] -> false
          | a :: rest ->
            if seen_reduce && Axis.mem a ts.taxes then true
            else scan (seen_reduce || Axis.mem a p.reduce_axes) rest
        in
        scan false order)
    intermediates

let rule2_rejects = violates_rule2

(* Rules 1-2 without the raw walk.  A rule-1 class is a sub-tiling: one
   order of the reduce axes per component of a family (all axes for the
   deep family; the shared prefix, then each private group, for the flat
   one).  The walk extends the order one reduce axis at a time, lowest
   position first, so classes come out in the order of their first raw
   tilings ([Tiling.first_of_sub_tiling]), which is the raw walk's order.
   Rule 2 as a mask: placing axis [i] after any axis of [forbid.(i)]
   (a reduce axis of some producer whose intermediate output spans [i])
   is a violation, which no extension undoes, so the walk drops the
   prefix with every extension.  Returns the surviving sub-tilings. *)
let walk_sub_tilings (chain : Chain.t) ~rule2 ~include_flat =
  let kept = ref [] in
  let index = Hashtbl.create 16 in
  List.iteri (fun i (a : Axis.t) -> Hashtbl.add index a.name i) chain.axes;
  let idx (a : Axis.t) = Hashtbl.find index a.name in
  let forbid = Array.make (List.length chain.axes) 0 in
  if rule2 then
    List.iter
      (fun (ts : Chain.tensor_spec) ->
        match Chain.producer_of chain ts with
        | Some p when ts.storage = Chain.Intermediate ->
          let m =
            List.fold_left (fun m a -> m lor (1 lsl idx a)) 0 p.reduce_axes
          in
          List.iter (fun a -> forbid.(idx a) <- forbid.(idx a) lor m) ts.taxes
        | _ -> ())
      chain.tensors;
  let rec components placed orders mk = function
    | [] -> kept := mk (List.rev orders) :: !kept
    | comp :: rest ->
      let rec extend placed order = function
        | [] -> components placed (List.rev order :: orders) mk rest
        | remaining ->
          List.iter
            (fun a ->
              if placed land forbid.(idx a) = 0 then
                extend
                  (placed lor (1 lsl idx a))
                  (a :: order)
                  (List.filter (fun b -> not (Axis.equal a b)) remaining))
            remaining
      in
      extend placed [] (List.filter Axis.is_reduce comp)
  in
  components 0 [] (fun orders -> Tiling.Deep (List.hd orders)) [ chain.axes ];
  (match Tiling.flat_parts chain with
  | Some (shared, privates) when include_flat ->
    components 0 []
      (fun orders -> Tiling.Flat (List.hd orders, List.tl orders))
      (shared :: privates)
  | _ -> ());
  List.rev !kept

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let rule3_ok (a : Axis.t) tile =
  let trips = (a.size + tile - 1) / tile in
  if is_power_of_two a.size then trips * tile = a.size
  else begin
    let padding =
      float_of_int ((trips * tile) - a.size) /. float_of_int a.size
    in
    padding <= max_padding
  end

let tile_choices opts (chain : Chain.t) =
  List.map
    (fun (a : Axis.t) ->
      let all = Candidate.tile_options a.size in
      let kept =
        if opts.rule3 then List.filter (rule3_ok a) all else all
      in
      (* never let an axis end up with zero options *)
      let kept = if kept = [] then [ a.size ] else kept in
      (a.name, kept))
    chain.axes

let grid opts (chain : Chain.t) =
  let axes = Array.of_list chain.axes in
  let tiles =
    Array.of_list
      (List.map (fun (_, l) -> Array.of_list l) (tile_choices opts chain))
  in
  let n = Array.length axes in
  let strides = Array.make n 1 in
  for a = n - 2 downto 0 do
    strides.(a) <- strides.(a + 1) * Array.length tiles.(a + 1)
  done;
  let sorted = Array.init n Fun.id in
  Array.sort (fun i j -> String.compare axes.(i).name axes.(j).name) sorted;
  { tiles;
    named =
      Array.map2
        (fun (a : Axis.t) -> Array.map (fun t -> (a.name, t)))
        axes tiles;
    trips =
      Array.map2
        (fun (a : Axis.t) -> Array.map (fun t -> (a.size + t - 1) / t))
        axes tiles;
    opt_pos =
      Array.map2
        (fun (a : Axis.t) ts ->
          let options = Array.of_list (Candidate.tile_options a.size) in
          Array.map
            (fun t -> Option.get (Array.find_index (Int.equal t) options))
            ts)
        axes tiles;
    strides;
    sorted;
    n_combos = Array.fold_left (fun acc t -> acc * Array.length t) 1 tiles }

(* Rule-3 choices are an ordered subsequence of [Candidate.tile_options],
   so the adjacent option is kept exactly when it is the adjacent rule-3
   choice. *)
let neighbour g rank ~axis ~dir =
  let a = g.sorted.(axis) in
  let k = rank / g.strides.(a) mod Array.length g.tiles.(a) in
  let k' = k + dir in
  if
    k' >= 0
    && k' < Array.length g.tiles.(a)
    && g.opt_pos.(a).(k') = g.opt_pos.(a).(k) + dir
  then Some (rank + (dir * g.strides.(a)))
  else None

(* Closed form: the tiling count ([Tiling.count], deep-only without the
   flat family) times the per-axis tile-option product. *)
let raw_cardinality ?include_flat (chain : Chain.t) =
  let tile_count =
    List.fold_left
      (fun acc (a : Axis.t) ->
        acc *. float_of_int (List.length (Candidate.tile_options a.size)))
      1.0 chain.axes
  in
  float_of_int (Tiling.count ?include_flat chain) *. tile_count

(* The flight recorder's prune-attribution event for one rule, with up to
   three exemplar strings: canonical per-block sub-tiling expressions a
   structural rule rejected (rules 1-2), or rejected candidates (rule 4 /
   validity).  Exemplars are collected only when recording. *)
let emit_prune ~stage ~kind ~enabled ~before ~after exemplars =
  Mcf_obs.Recorder.emit "prune" (fun () ->
      let open Mcf_util.Json in
      [ ("stage", Str stage);
        ("kind", Str kind);
        ("enabled", Bool enabled);
        ("before", Num before);
        ("after", Num after);
        ("removed", Num (before -. after));
        ("exemplars",
         List
           (Mcf_util.Listx.take 3 exemplars |> List.map (fun s -> Str s))) ])

let funnel_json f =
  let open Mcf_util.Json in
  Obj
    [ ("tilings_raw", num_of_int f.tilings_raw);
      ("tilings_rule1", num_of_int f.tilings_rule1);
      ("tilings_rule2", num_of_int f.tilings_rule2);
      ("candidates_raw", Num f.candidates_raw);
      ("candidates_rule3", Num f.candidates_rule3);
      ("candidates_rule4", num_of_int f.candidates_rule4);
      ("candidates_valid", num_of_int f.candidates_valid) ]

(* Funnel counters: how many points each pruning stage removed,
   accumulated across enumerations.  [total] is the post-rule-3 point
   count (|rule-2 survivors| x |tile combos|). *)
let add_funnel_metrics ~total funnel =
  Mcf_obs.Metrics.add c_tilings_raw funnel.tilings_raw;
  Mcf_obs.Metrics.add c_pruned_rule1
    (funnel.tilings_raw - funnel.tilings_rule1);
  Mcf_obs.Metrics.add c_pruned_rule2
    (funnel.tilings_rule1 - funnel.tilings_rule2);
  Mcf_obs.Metrics.add c_pruned_rule4 (total - funnel.candidates_rule4);
  Mcf_obs.Metrics.add c_pruned_invalid
    (funnel.candidates_rule4 - funnel.candidates_valid);
  Mcf_obs.Metrics.add c_candidates_valid funnel.candidates_valid

(* ------------------------------------------------------------------ *)
(* Streaming enumeration (the default path).

   The front half of the search is a structural walk followed by one
   in-domain stream with bounded memory.  With rule 1 on, the walk
   visits rule-1 classes, not raw tilings: each class is an order of
   the reduce axes ([walk_sub_tilings]), rule 2 prunes a violating
   prefix with all its extensions, and each survivor is replaced by its
   first raw tiling ([Tiling.first_of_sub_tiling]).  The classes come
   out in the order of those first tilings, so the survivors are exactly
   the tilings the raw walk would keep, in the raw walk's order, and the
   funnel's raw and rule-1 counts are closed forms.  The raw
   [Tiling.seq] walk runs only with rule 1 off, and, when recording, as
   a prefix that collects the rule-1 and rule-2 exemplars and stops.

   The survivors' tile-combo index ranges are packed into fixed-size
   chunks; each full chunk is scored on the shared [Mcf_util.Pool], one
   index range per task, with a fused pass — rule-4 shmem precheck,
   closed-form validity verdict and the analytical estimate — that steps
   the range's combos as an odometer and finds each point's memoized
   summary in a bounded slot table.  The outcomes land in one int and
   two float arrays, shared by every chunk and drained sequentially in
   rank order into funnel counters, recorder exemplars and the reservoir
   before the next chunk is packed.  The reservoir keeps flat rank,
   score, traffic and tiling columns; the result hands them over as they
   are, and an entry (candidate and lazy lowering cell) is built only
   when a caller asks the set's builder for one — the explorer asks for
   the points it measures.  A cell instantiates the skeleton the scorer already built
   for its point, so measuring a candidate builds no program.

   Peak heap is O(reservoir + chunk), never O(space); the quotient walk
   also holds its survivors, one tiling per kept class, until it ends.
   The point order is fixed (tilings in [Tiling.enumerate] order, each
   tiling's tile combos row-major with the first axis slowest), every
   drain is sequential, and the reservoir re-sorts by rank — so the
   candidate list, the funnel and the eventual tuner outcome are
   bit-identical at any --jobs, with recording on or off.
   test_stream.ml pins the list and the funnel against a brute-force
   filter over the raw cross product, and the recorder's exemplars
   against the raw walk. *)

type seg = {
  stiling : Tiling.t;
  ssid : int;  (* the tiling's [Analytic.Memo.sid] *)
  srelevant : int;  (* its [Analytic.Memo.relevant] trip=1 bits *)
  combo_lo : int;
  combo_len : int;
}

type chunk = { segs : seg array; seg_offsets : int array; chunk_points : int }

let chunk_target = 4096

(* A range's slot table holds 2^min(axes, slot_bits) summaries, so its
   size is bounded whatever the chain's axis count. *)
let slot_bits = 8

(* A scored point's outcome, one int per point; a valid point's objective
   score and traffic sit in two float arrays beside it. *)
let rule4_rejected = 0
let invalid = 1
let valid = 2

(* The drain's survivors as flat columns: rank, score, traffic and the
   emitting tiling per kept point, appended in rank order.  Bounded, the
   columns hold at most [cap] points and a max-heap of their slots,
   ordered by (score, rank), evicts the worst for a better newcomer
   (ties broken toward the earlier rank); [finish] then re-sorts the
   slots by rank.  Either way the points come back in rank order:
   downstream (the explorer's binary search over ranks, its index ids,
   its unstable top-k sort) depends on the survivors being a
   subsequence of the enumeration order. *)
module Reservoir = struct
  type t = {
    cap : int;  (* [max_int] when unbounded *)
    mutable n : int;
    mutable ranks : int array;
    mutable ests : float array;
    mutable traffic : float array;
    mutable tilings : Tiling.t array;
    mutable heap : int array;  (* slots, max-heap by (est, rank); bounded *)
  }

  let create cap =
    { cap = Option.value cap ~default:max_int;
      n = 0;
      ranks = [||];
      ests = [||];
      traffic = [||];
      tilings = [||];
      heap = [||] }

  let bounded t = t.cap < max_int

  (* Slot [s] ranks strictly after the point [(est, rank)]. *)
  let gt_point t s est rank =
    t.ests.(s) > est || (t.ests.(s) = est && t.ranks.(s) > rank)

  let gt t s s' = gt_point t s t.ests.(s') t.ranks.(s')

  (* Whether [add] would keep a point scored [(est, rank)]. *)
  let admits t est rank = t.n < t.cap || gt_point t t.heap.(0) est rank

  let rec sift_up t i =
    if i > 0 then begin
      let h = t.heap and p = (i - 1) / 2 in
      if gt t h.(i) h.(p) then begin
        let s = h.(i) in
        h.(i) <- h.(p);
        h.(p) <- s;
        sift_up t p
      end
    end

  let rec sift_down t i =
    let h = t.heap and l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < t.n && gt t h.(l) h.(i) then l else i in
    let m = if r < t.n && gt t h.(r) h.(m) then r else m in
    if m <> i then begin
      let s = h.(i) in
      h.(i) <- h.(m);
      h.(m) <- s;
      sift_down t m
    end

  let grow t tiling =
    let len = min t.cap (max 1024 (2 * Array.length t.ranks)) in
    let extend a fill =
      let a' = Array.make len fill in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.ranks <- extend t.ranks 0;
    t.ests <- extend t.ests 0.0;
    t.traffic <- extend t.traffic 0.0;
    t.tilings <- extend t.tilings tiling;
    if bounded t then t.heap <- extend t.heap 0

  let set t s rank est traffic tiling =
    t.ranks.(s) <- rank;
    t.ests.(s) <- est;
    t.traffic.(s) <- traffic;
    t.tilings.(s) <- tiling

  (* Keep a point [admits] accepted. *)
  let add t rank est traffic tiling =
    if t.n < t.cap then begin
      if t.n = Array.length t.ranks then grow t tiling;
      set t t.n rank est traffic tiling;
      if bounded t then t.heap.(t.n) <- t.n;
      t.n <- t.n + 1;
      if bounded t then sift_up t (t.n - 1)
    end
    else begin
      set t t.heap.(0) rank est traffic tiling;
      sift_down t 0
    end

  (* The kept points' columns, in rank order. *)
  let finish t =
    let slots =
      if bounded t then begin
        let s = Array.sub t.heap 0 t.n in
        Array.sort (fun a b -> Int.compare t.ranks.(a) t.ranks.(b)) s;
        s
      end
      else Array.init t.n Fun.id
    in
    let col a = Array.map (Array.get a) slots in
    (col t.ranks, col t.ests, col t.traffic, col t.tilings)
end

let enumerate_points ?(options = default_options)
    ?(objective = fun (b : Mcf_model.Perf.breakdown) -> b.t_total)
    ?(on_phase = fun _ _ -> ()) ?reservoir (spec : Mcf_gpu.Spec.t) chain =
  let module Trace = Mcf_obs.Trace in
  Trace.with_span "space.enumerate"
    ~args:(fun () -> [ ("chain", Trace.Str chain.Chain.cname) ])
    (fun () ->
      let opts = options in
      let recording = Mcf_obs.Recorder.enabled () in
      Mcf_obs.Metrics.incr c_enumerations;
      let g = Trace.with_span "space.rule3" (fun () -> grid opts chain) in
      let n_axes = List.length chain.axes and n_combos = g.n_combos in
      (* A combo index's digit for axis [a], in [chain.axes] order. *)
      let digit c a = c / g.strides.(a) mod Array.length g.tiles.(a) in
      (* The candidate whose axis [a] takes its [digit a]-th tile: the
         grid's [(name, tile)] pairs, consed in sorted-name order, are
         the list [Candidate.make] would sort them into. *)
      let cand_with tiling digit =
        let tiles = ref [] in
        for j = n_axes - 1 downto 0 do
          let a = g.sorted.(j) in
          tiles := g.named.(a).(digit a) :: !tiles
        done;
        { Candidate.tiling; tiles = !tiles }
      in
      let cand_of tiling combo = cand_with tiling (digit combo) in
      let ctx =
        { chain;
          rule1 = opts.rule1;
          dead_loop_elim = opts.dead_loop_elim;
          hoisting = opts.hoisting;
          elem_bytes = spec.elem_bytes;
          grid = g }
      in
      let memo =
        Mcf_model.Analytic.Memo.create ~rule1:opts.rule1
          ~dead_loop_elim:opts.dead_loop_elim ~hoisting:opts.hoisting
          ~elem_bytes:spec.elem_bytes chain
      in
      let sm_countf = float_of_int spec.Mcf_gpu.Spec.sm_count in
      let budget =
        shmem_slack *. float_of_int spec.Mcf_gpu.Spec.smem_per_block
      in
      let pool = Mcf_util.Pool.get () in
      (* Fused scorer over chunk points [\[lo, hi)], in index space: decode
         the first point, then step the combos as an odometer (last axis
         fastest, as the combo index counts), updating the tile/trip
         arrays and the trip=1 mask in place.  A point's memoized summary
         is keyed by (structural id, the mask's relevant bits) — a grid
         axis's tile moves the mask but not the summary — and found in
         the range's slot table, direct-mapped on the key's low
         [slot_bits] bits and tagged with the whole key; only a slot miss
         asks the memo, and slot hits are counted as memo hits in bulk.
         The eq. (1) footprint for rule 4 reads that summary and the same
         arrays; a point that fits is then settled by the summary's
         validity verdict, and only a valid one runs the analytical pass,
         into the range's aggregate scratch.  No candidate is built
         unless the summary is missing, nothing is allocated per point
         but the objective's breakdown, and no Lower.lower anywhere
         (exactness against the lowered walk is enforced by the sweeps in
         test_model.ml).  These are the only model scores the search
         computes, and [objective] is the only place a breakdown becomes
         a score: the explorer ranks by them as handed over. *)
      let n_slots = 1 lsl min n_axes slot_bits in
      let score_range chunk status ests traffics lo hi =
        let tiles = Array.make n_axes 0 and trips = Array.make n_axes 0 in
        let digits = Array.make n_axes 0 and mask = ref 0 in
        let agg = Mcf_model.Analytic.aggregates () in
        let slot_key = Array.make n_slots (-1) in
        let slot_summary = Array.make n_slots None in
        let set a k =
          digits.(a) <- k;
          tiles.(a) <- g.tiles.(a).(k);
          trips.(a) <- g.trips.(a).(k);
          mask :=
            if trips.(a) = 1 then !mask lor (1 lsl a)
            else !mask land lnot (1 lsl a)
        in
        (* One odometer step: bump the last axis, carrying into the slower
           axes while a digit wraps. *)
        let rec step a =
          let k = digits.(a) + 1 in
          let k = if k = Array.length g.tiles.(a) then 0 else k in
          set a k;
          if k = 0 then step (a - 1)
        in
        let si = ref 0 in
        while
          !si + 1 < Array.length chunk.segs && chunk.seg_offsets.(!si + 1) <= lo
        do
          incr si
        done;
        let seg_end = ref 0 in
        let enter_seg c =
          seg_end := chunk.seg_offsets.(!si) + chunk.segs.(!si).combo_len;
          for a = 0 to n_axes - 1 do
            set a (digit c a)
          done
        in
        enter_seg (chunk.segs.(!si).combo_lo + lo - chunk.seg_offsets.(!si));
        let reused = ref 0 in
        for i = lo to hi - 1 do
          if i = !seg_end then begin
            incr si;
            enter_seg chunk.segs.(!si).combo_lo
          end
          else if i > lo then step (n_axes - 1);
          let s = chunk.segs.(!si) in
          let key = (s.ssid lsl n_axes) lor (!mask land s.srelevant) in
          let slot = key land (n_slots - 1) in
          let summary =
            match slot_summary.(slot) with
            | Some sm when slot_key.(slot) = key ->
              incr reused;
              sm
            | Some _ | None ->
              let sm =
                Mcf_model.Analytic.Memo.summary_at memo ~sid:s.ssid ~mask:!mask
                  (fun () -> cand_with s.stiling (Array.get digits))
              in
              slot_key.(slot) <- key;
              slot_summary.(slot) <- Some sm;
              sm
          in
          if
            opts.rule4
            && not
                 (float_of_int
                    (Mcf_model.Analytic.footprint ~elem_bytes:spec.elem_bytes
                       summary ~tiles ~trips)
                 <= budget)
          then status.(i) <- rule4_rejected
          else if Result.is_error (Mcf_model.Analytic.verdict summary) then
            status.(i) <- invalid
          else begin
            Mcf_model.Analytic.aggregate ~elem_bytes:spec.elem_bytes summary
              ~tiles ~trips agg;
            status.(i) <- valid;
            ests.(i) <-
              objective
                (Mcf_model.Perf.of_aggregates spec
                   ~traffic_bytes:agg.atraffic ~flops_per_block:agg.aflops
                   ~blocks:agg.ablocks);
            traffics.(i) <-
              agg.atraffic *. ((agg.ablocks +. sm_countf) /. agg.ablocks)
          end
        done;
        Mcf_model.Analytic.Memo.reused memo !reused
      in
      let res = Reservoir.create (Option.map (max 1) reservoir) in
      let n_points = ref 0 and n_rule4 = ref 0 and n_valid = ref 0 in
      let rule4_ex = ref [] and rule4_ex_n = ref 0 in
      let invalid_ex = ref [] and invalid_ex_n = ref 0 in
      let score_s = ref 0.0 in
      let exemplar ex n tiling combo =
        if recording && !n < 3 then begin
          ex := Candidate.to_string (cand_of tiling combo) :: !ex;
          incr n
        end
      in
      (* The outcome arrays, allocated at the first chunk and reused by
         every later one: the drain is sequential, so no chunk is scored
         while another is still read.  The first chunk is full or the
         only one, so they hold min(chunk_target, rule-3 points); every
         slot a chunk reads is written by its scorer first. *)
      let scratch = ref None in
      let consume chunk =
        let n = chunk.chunk_points in
        let status, ests, traffics =
          match !scratch with
          | Some s -> s
          | None ->
            let s =
              (Array.make n rule4_rejected, Array.make n 0.0, Array.make n 0.0)
            in
            scratch := Some s;
            s
        in
        let (), dt =
          Trace.timed "space.precheck"
            ~args:(fun () -> [ ("points", Trace.Int n) ])
            (fun () ->
              Mcf_util.Pool.run_range ~min_chunk_work:64 pool n
                (score_range chunk status ests traffics))
        in
        score_s := !score_s +. dt;
        (* Sequential drain, in rank order: funnel counters, recorder
           exemplars and the reservoir are all single-threaded, so
           recordings and results stay deterministic at any pool size. *)
        Array.iteri
          (fun si s ->
            let off = chunk.seg_offsets.(si) in
            for j = 0 to s.combo_len - 1 do
              let i = off + j in
              let v = status.(i) in
              if v = rule4_rejected then
                exemplar rule4_ex rule4_ex_n s.stiling (s.combo_lo + j)
              else if v = invalid then begin
                incr n_rule4;
                exemplar invalid_ex invalid_ex_n s.stiling (s.combo_lo + j)
              end
              else begin
                incr n_rule4;
                incr n_valid;
                let rank = !n_points + i and est = ests.(i) in
                if Reservoir.admits res est rank then
                  Reservoir.add res rank est traffics.(i) s.stiling
              end
            done)
          chunk.segs;
        n_points := !n_points + n;
        if Mcf_obs.Progress.recording () then
          Mcf_obs.Progress.set_info
            (Printf.sprintf "%d points streamed" !n_points);
        (* Telemetry tick per chunk: the rsrc.* gauges sample heap and
           pool activity while the stream is in flight, not just at
           teardown. *)
        Mcf_obs.Resource.sample ();
        (* Serve workers are threads sharing one domain, and nothing in
           this loop blocks: give up the runtime lock once per chunk so
           the daemon's HTTP and submit threads still run during a long
           enumeration. *)
        Thread.yield ()
      in
      let pending = ref [] and pending_pts = ref 0 in
      let flush () =
        if !pending_pts > 0 then begin
          let segs = Array.of_list (List.rev !pending) in
          let offs = Array.make (Array.length segs) 0 in
          let acc = ref 0 in
          Array.iteri
            (fun i s ->
              offs.(i) <- !acc;
              acc := !acc + s.combo_len)
            segs;
          pending := [];
          pending_pts := 0;
          consume { segs; seg_offsets = offs; chunk_points = !acc }
        end
      in
      let emit_tiling t =
        let ssid = Mcf_model.Analytic.Memo.sid memo t in
        let srelevant = Mcf_model.Analytic.Memo.relevant memo ~sid:ssid in
        let lo = ref 0 in
        while !lo < n_combos do
          let len = min (chunk_target - !pending_pts) (n_combos - !lo) in
          pending :=
            { stiling = t; ssid; srelevant; combo_lo = !lo; combo_len = len }
            :: !pending;
          pending_pts := !pending_pts + len;
          lo := !lo + len;
          if !pending_pts >= chunk_target then flush ()
        done
      in
      (* The recorder's exemplars: the first three distinct sub-tilings
         each structural rule removed, in raw-walk order. *)
      let ex1 = ref [] and ex2 = ref [] in
      let note lst sub =
        if List.length !lst < 3 && not (List.exists (Tiling.equal sub) !lst)
        then lst := !lst @ [ sub ]
      in
      (* Rules 1-2 one raw tiling at a time, in [Tiling.seq] order: the
         walk itself when rule 1 is off, streaming each survivor into
         [emit_tiling], and otherwise, only when recording, a prefix of it
         that stops once both exemplar lists are full and emits nothing.
         Returns the rule-1 and rule-2 counts. *)
      let raw_walk ~prefix =
        let seen = Tiling.Tbl.create 1024 in
        let n1 = ref 0 and n2 = ref 0 in
        let consider t =
          let sub = Tiling.sub_tiling chain t in
          if opts.rule1 && Tiling.Tbl.mem seen sub then begin
            if recording then note ex1 sub
          end
          else begin
            if opts.rule1 then Tiling.Tbl.add seen sub ();
            incr n1;
            if opts.rule2 && violates_rule2 chain t then begin
              if recording then note ex2 sub
            end
            else if not prefix then begin
              incr n2;
              emit_tiling t
            end
          end
        in
        let full () =
          List.length !ex1 >= 3 && ((not opts.rule2) || List.length !ex2 >= 3)
        in
        let rec go s =
          if not (prefix && full ()) then
            match s () with
            | Seq.Nil -> ()
            | Seq.Cons (t, s) ->
              consider t;
              go s
        in
        go
          (if opts.include_flat then Tiling.seq chain
           else Tiling.seq_deep chain);
        (!n1, !n2)
      in
      (* [space.walk] times rules 1-2; the [space.precheck] chunks the
         raw walk scores as it streams are child spans, outside its self
         time.  The quotient walk's survivors are few, so it finishes
         before they are emitted. *)
      let tilings_rule1, n2 =
        if opts.rule1 then begin
          let tilings =
            Trace.with_span "space.walk" (fun () ->
                if recording then ignore (raw_walk ~prefix:true);
                walk_sub_tilings chain ~rule2:opts.rule2
                  ~include_flat:opts.include_flat
                |> List.map (Tiling.first_of_sub_tiling chain))
          in
          List.iter emit_tiling tilings;
          ( Tiling.count_sub_tilings ~include_flat:opts.include_flat chain,
            List.length tilings )
        end
        else Trace.with_span "space.walk" (fun () -> raw_walk ~prefix:false)
      in
      flush ();
      on_phase "space.precheck" !score_s;
      let total = n2 * n_combos in
      let candidates_rule3 = float_of_int n2 *. float_of_int n_combos in
      let ranks, estimates, traffic, tilings = Reservoir.finish res in
      (* A survivor's lowering instantiates the skeleton its point was
         scored with, found again by the same key. *)
      let lower ~rank (cand : Candidate.t) =
        let combo = rank mod n_combos in
        let tiles = Array.init n_axes (fun a -> g.tiles.(a).(digit combo a)) in
        let trips = Array.init n_axes (fun a -> g.trips.(a).(digit combo a)) in
        let mask = ref 0 in
        Array.iteri (fun a t -> if t = 1 then mask := !mask lor (1 lsl a))
          trips;
        let sid = Mcf_model.Analytic.Memo.sid memo cand.tiling in
        Lower.instantiate ~elem_bytes:spec.elem_bytes
          (Mcf_model.Analytic.skeleton
             (Mcf_model.Analytic.Memo.find memo ~sid ~mask:!mask))
          cand ~tiles ~trips
      in
      let built = Array.make (Array.length ranks) None in
      let build i =
        match built.(i) with
        | Some e -> e
        | None ->
          let rank = ranks.(i) in
          let e =
            entry_at ~lower ~rank ctx (cand_of tilings.(i) (rank mod n_combos))
          in
          built.(i) <- Some e;
          e
      in
      let funnel =
        { tilings_raw = Tiling.count ~include_flat:opts.include_flat chain;
          tilings_rule1;
          tilings_rule2 = n2;
          candidates_raw =
            raw_cardinality ~include_flat:opts.include_flat chain;
          candidates_rule3;
          candidates_rule4 = !n_rule4;
          candidates_valid = !n_valid }
      in
      add_funnel_metrics ~total funnel;
      if recording then begin
        let fi = float_of_int in
        emit_prune ~stage:"rule1" ~kind:"tilings" ~enabled:opts.rule1
          ~before:(fi funnel.tilings_raw) ~after:(fi funnel.tilings_rule1)
          (List.map Tiling.to_string !ex1);
        emit_prune ~stage:"rule2" ~kind:"tilings" ~enabled:opts.rule2
          ~before:(fi funnel.tilings_rule1) ~after:(fi funnel.tilings_rule2)
          (List.map Tiling.to_string !ex2);
        emit_prune ~stage:"rule3" ~kind:"candidates" ~enabled:opts.rule3
          ~before:funnel.candidates_raw ~after:funnel.candidates_rule3
          (List.mapi
             (fun i (a : Axis.t) ->
               Printf.sprintf "%s: %d of %d tile options kept" a.name
                 (Array.length g.tiles.(i))
                 (List.length (Candidate.tile_options a.size)))
             chain.axes);
        emit_prune ~stage:"rule4" ~kind:"candidates" ~enabled:opts.rule4
          ~before:(fi total) ~after:(fi funnel.candidates_rule4)
          (List.rev !rule4_ex);
        emit_prune ~stage:"validity" ~kind:"candidates" ~enabled:true
          ~before:(fi funnel.candidates_rule4)
          ~after:(fi funnel.candidates_valid)
          (List.rev !invalid_ex);
        Mcf_obs.Recorder.emit "space" (fun () ->
            [ ("chain", Mcf_util.Json.Str chain.Chain.cname);
              ("funnel", funnel_json funnel) ])
      end;
      Log.debug (fun m ->
          m "%s: %d tilings -> %d exprs, %d points (%d checked) -> %d valid \
             candidates"
            chain.Chain.cname funnel.tilings_raw funnel.tilings_rule2 total
            funnel.candidates_rule4 funnel.candidates_valid);
      ({ pctx = ctx; ranks; estimates; traffic; build }, funnel))

(* The adapters: every survivor's entry, built in rank order. *)
let all_entries p = List.init (Array.length p.ranks) p.build

let enumerate_scored ?options ?objective ?on_phase ?reservoir spec chain =
  let p, funnel =
    enumerate_points ?options ?objective ?on_phase ?reservoir spec chain
  in
  ( all_entries p,
    Array.map2 (fun e t -> (e, t)) p.estimates p.traffic,
    funnel )

let enumerate ?options ?on_phase ?reservoir spec chain =
  let p, funnel = enumerate_points ?options ?on_phase ?reservoir spec chain in
  (all_entries p, funnel)
