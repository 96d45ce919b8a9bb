type flavor = Scale | Unary of float | Softmax of int list list

type op =
  | Access of {
      atensor : Chain.tensor_spec;
      store : bool;
      atile : int list;
      arow : int;
      amult : int list;
    }
  | Contraction of {
      cblock : Chain.block;
      used : int list;
      mma_m : int;
      mma_n : int;
      mma_k : int;
    }
  | Epilogue of { eblock : Chain.block; out : int list; flavor : flavor }

type stmt = { op : op; path : int list }

type resident = {
  rtensor : Chain.tensor_spec;
  rtile : int list;
  rrow : int;
  rmult : int list;
  double_buffered : bool;
}

type t = {
  chain : Chain.t;
  build : Candidate.t -> Program.t;
  axes : Axis.t array;
  grid : int list;
  stmts : stmt array;
  residency : resident array;
  online : bool;
  softmax_rows : int list list;
  verdict : (unit, Program.invalid) result;
}

(* --- the chain in index space -------------------------------------------- *)

(* Position of [x] in [arr]: physical equality first (a program's axes,
   blocks and tensors are the chain's own records), then by [name]. *)
let index_in arr name x =
  let n = Array.length arr in
  let rec phys i =
    if i = n then by_name 0 else if arr.(i) == x then i else phys (i + 1)
  and by_name i =
    if i = n then invalid_arg "Skeleton: program refers outside its chain"
    else if String.equal (name arr.(i)) (name x) then i
    else by_name (i + 1)
  in
  phys 0

let last = function [] -> -1 | l -> List.nth l (List.length l - 1)
let bits = List.fold_left (fun m a -> m lor (1 lsl a)) 0

(* Everything a program's statements refer to, resolved once per chain:
   per tensor its axes and producer; per block its path-free Compute and
   Epilogue, its reduce axes and its consumers. *)
type shape = {
  schain : Chain.t;
  saxes : Axis.t array;
  blocks : Chain.block array;
  tensors : Chain.tensor_spec array;
  taxes : int list array;  (* per tensor *)
  producer : int array;  (* per tensor: producing block, or -1 *)
  out_t : int array;  (* per block: its output tensor *)
  reduce : int array;  (* per block: its reduce axes as bits *)
  consumers : int list array;  (* per block, in block order *)
  contraction : op array;  (* per block *)
  epilogue : op array;  (* per block *)
  softmax : (int * int list) list;  (* per softmax block: axis, rows *)
}

let axis_index axes = index_in axes (fun (a : Axis.t) -> a.name)
let block_index blocks = index_in blocks (fun (b : Chain.block) -> b.bname)
let tensor_index tensors =
  index_in tensors (fun (t : Chain.tensor_spec) -> t.tname)

let compute_shape (chain : Chain.t) =
  let saxes = Array.of_list chain.axes in
  let blocks = Array.of_list chain.blocks in
  let tensors = Array.of_list chain.tensors in
  let ax = axis_index saxes and ti = tensor_index tensors in
  let taxes =
    Array.map (fun (t : Chain.tensor_spec) -> List.map ax t.taxes) tensors
  in
  let out_t = Array.map (fun (b : Chain.block) -> ti b.out) blocks in
  let producer = Array.make (Array.length tensors) (-1) in
  Array.iteri (fun bi t -> producer.(t) <- bi) out_t;
  let consumers =
    Array.map
      (fun t ->
        List.filter
          (fun qi -> List.exists (fun i -> ti i = t) blocks.(qi).Chain.ins)
          (List.init (Array.length blocks) Fun.id))
      out_t
  in
  let outs = Array.map (fun t -> taxes.(t)) out_t in
  let contraction bi (b : Chain.block) =
    let out = outs.(bi) in
    Contraction
      { cblock = b;
        used = List.map ax (Chain.used_axes b);
        mma_m = (match out with a :: _ -> a | [] -> -1);
        mma_n = (match out with _ :: _ :: _ -> last out | _ -> -1);
        mma_k = (match b.reduce_axes with a :: _ -> ax a | [] -> -1) }
  in
  let epilogue bi (b : Chain.block) =
    let flavor =
      match b.epilogue with
      | Chain.Scale _ -> Scale
      | Chain.Unary { uflops; _ } -> Unary uflops
      | Chain.No_epilogue -> Unary 0.0 (* never placed *)
      | Chain.Softmax _ ->
        Softmax (List.map (fun qi -> outs.(qi)) consumers.(bi))
    in
    Epilogue { eblock = b; out = outs.(bi); flavor }
  in
  let softmax (b : Chain.block) =
    match b.epilogue with
    | Chain.Softmax { saxis; _ } ->
      let rows = List.filter (fun a -> not (Axis.equal a saxis)) b.out.taxes in
      Some (ax saxis, List.map ax rows)
    | Chain.No_epilogue | Chain.Scale _ | Chain.Unary _ -> None
  in
  { schain = chain;
    saxes;
    blocks;
    tensors;
    taxes;
    producer;
    out_t;
    reduce =
      Array.map
        (fun (b : Chain.block) -> bits (List.map ax b.reduce_axes))
        blocks;
    consumers;
    contraction = Array.mapi contraction blocks;
    epilogue = Array.mapi epilogue blocks;
    softmax = List.filter_map softmax chain.blocks }

(* A search reads thousands of programs of one chain, from every pool
   domain: keep the last chain's shape.  The slot holds an immutable
   value, so a racing replacement only costs a recomputation. *)
let last_shape = Atomic.make None

let shape_of chain =
  match Atomic.get last_shape with
  | Some sh when sh.schain == chain -> sh
  | Some _ | None ->
    let sh = compute_shape chain in
    Atomic.set last_shape (Some sh);
    sh

(* --- one walk over the placed program ----------------------------------- *)

(* Every statement with its path (axis indices, outermost first) in
   program order, and per block the program-order position and path of
   its Compute and Epilogue (-1 / [] when absent). *)
type placement = {
  placed : (int list * Program.stmt) list;
  cpos : int array;
  cpath : int list array;
  epos : int array;
  epath : int list array;
}

let place sh (p : Program.t) =
  let nb = Array.length sh.blocks in
  let pl =
    { placed = [];
      cpos = Array.make nb (-1);
      cpath = Array.make nb [];
      epos = Array.make nb (-1);
      epath = Array.make nb [] }
  in
  let k = ref 0 and placed = ref [] in
  let rec walk rpath = function
    | [] -> ()
    | Program.Stmt s :: rest ->
      let path = List.rev rpath in
      let mark pos paths b =
        let i = block_index sh.blocks b in
        pos.(i) <- !k;
        paths.(i) <- path
      in
      (match s with
      | Program.Compute b -> mark pl.cpos pl.cpath b
      | Program.Epilogue b -> mark pl.epos pl.epath b
      | Program.Load _ | Program.Store _ -> ());
      placed := (path, s) :: !placed;
      incr k;
      walk rpath rest
    | Program.Loop l :: rest ->
      walk (axis_index sh.saxes l.laxis :: rpath) l.body;
      walk rpath rest
  in
  walk [] p.roots;
  { pl with placed = List.rev !placed }

(* --- validity ----------------------------------------------------------- *)

(* The four rules in order, each tried on every block in order; the
   first violation found is the verdict.  Statement order is program
   order ([cpos] / [epos]); only a block with an epilogue places one. *)
let verdict_of sh pl (p : Program.t) =
  let name a = sh.saxes.(a).Axis.name in
  let grid = bits (List.map (axis_index sh.saxes) p.grid_axes) in
  (* A consumer of [pi] whose Compute sits before program position [at]. *)
  let consumer_before pi at mk =
    List.find_map
      (fun qi ->
        let cq = pl.cpos.(qi) in
        if at >= 0 && cq >= 0 && cq < at then
          Some (mk sh.blocks.(pi).Chain.bname sh.blocks.(qi).bname)
        else None)
      sh.consumers.(pi)
  in
  let rules =
    [ (* A non-linear epilogue's value is consumed inside one of its
         producer's reduction loops: the partial sums cannot be
         normalized yet.  The epilogue itself, then each consumer. *)
      (fun pi (pb : Chain.block) ->
        if Chain.is_linear_through sh.schain pb then None
        else
          List.find_map
            (fun (pos, path) ->
              if pos < 0 then None
              else
                List.find_opt (fun a -> sh.reduce.(pi) land (1 lsl a) <> 0) path
                |> Option.map (fun a ->
                       Program.Nonlinear_partial_consume
                         { producer = pb.bname; loop = name a }))
            ((pl.epos.(pi), pl.epath.(pi))
            :: List.map
                 (fun qi -> (pl.cpos.(qi), pl.cpath.(qi)))
                 sh.consumers.(pi)));
      (* The epilogue transforms exactly one resident tile of its output
         (the one addressed by the loops enclosing it); a live loop over
         an output axis that does not enclose it leaves that axis's other
         tiles untouched. *)
      (fun pi (pb : Chain.block) ->
        if pl.epos.(pi) < 0 then None
        else
          let enclosing = bits pl.epath.(pi) in
          List.find_map
            (fun a ->
              if
                Candidate.trip p.cand sh.saxes.(a) > 1
                && (grid lor enclosing) land (1 lsl a) = 0
              then
                Some
                  (Program.Blind_epilogue
                     { producer = pb.bname; axis = name a })
              else None)
            sh.taxes.(sh.out_t.(pi)));
      (* A consumer computing before the producer's epilogue reads
         untransformed values. *)
      (fun pi _ ->
        consumer_before pi pl.epos.(pi) (fun producer consumer ->
            Program.Consumed_before_epilogue { producer; consumer }));
      (* A consumer can also compute before its producer: the producer's
         scope sits after a loop earlier blocks already populated, and the
         consumer descends into that loop.  No interleaving of the fixed
         nest runs the producer first, so the order is unrealizable
         without redundant recomputation. *)
      (fun pi _ ->
        consumer_before pi pl.cpos.(pi) (fun producer consumer ->
            Program.Consumed_before_produced { producer; consumer })) ]
  in
  let on_blocks rule =
    let rec go i =
      if i = Array.length sh.blocks then None
      else
        match rule i sh.blocks.(i) with Some _ as v -> v | None -> go (i + 1)
    in
    go 0
  in
  match List.find_map on_blocks rules with Some v -> Error v | None -> Ok ()

let validate (p : Program.t) =
  let sh = shape_of p.chain in
  verdict_of sh (place sh p) p

(* --- the skeleton ------------------------------------------------------- *)

(* Rule-2 multiplier axes of tensor [t]: its axes iterating below its
   producer's reduction on the producer's Compute path, each forcing one
   more resident tile (Fig. 6(b)).  None for an input. *)
let mult_axes sh pl t =
  let pi = sh.producer.(t) in
  if pi < 0 then []
  else begin
    let own = bits sh.taxes.(t) in
    let rec scan seen = function
      | [] -> []
      | a :: rest ->
        let seen = seen || sh.reduce.(pi) land (1 lsl a) <> 0 in
        if seen && own land (1 lsl a) <> 0 then a :: scan seen rest
        else scan seen rest
    in
    scan false pl.cpath.(pi)
  end

let make ?rule1 ?dead_loop_elim ?hoisting chain cand =
  let build = Program.build ?rule1 ?dead_loop_elim ?hoisting chain in
  let p = build cand in
  let sh = shape_of chain in
  let pl = place sh p in
  let nt = Array.length sh.tensors in
  let loaded = Array.make nt false and streamed = Array.make nt false in
  let stmt (path, s) =
    let op =
      match s with
      | Program.Load (ts, _) | Program.Store (ts, _) ->
        let t = tensor_index sh.tensors ts in
        let store = match s with Program.Store _ -> true | _ -> false in
        if not store then begin
          loaded.(t) <- true;
          if path <> [] then streamed.(t) <- true
        end;
        Access
          { atensor = ts;
            store;
            atile = sh.taxes.(t);
            arow = last sh.taxes.(t);
            amult = (if store then mult_axes sh pl t else []) }
      | Program.Compute b -> sh.contraction.(block_index sh.blocks b)
      | Program.Epilogue b -> sh.epilogue.(block_index sh.blocks b)
    in
    { op; path }
  in
  let stmts = Array.of_list (List.map stmt pl.placed) in
  let residency = ref [] in
  for t = nt - 1 downto 0 do
    let ts = sh.tensors.(t) in
    let input = ts.storage = Chain.Input in
    if loaded.(t) || not input then
      residency :=
        { rtensor = ts;
          rtile = sh.taxes.(t);
          rrow = last sh.taxes.(t);
          rmult = mult_axes sh pl t;
          double_buffered = input && streamed.(t) }
        :: !residency
  done;
  { chain;
    build;
    axes = sh.saxes;
    grid = List.map (axis_index sh.saxes) p.grid_axes;
    stmts;
    residency = Array.of_list !residency;
    online =
      List.exists
        (fun (a, _) -> Candidate.trip p.cand sh.saxes.(a) > 1)
        sh.softmax;
    softmax_rows = List.map snd sh.softmax;
    verdict = verdict_of sh pl p }

let tile_arrays t cand =
  let tiles = Array.map (Candidate.tile cand) t.axes in
  let trip i (a : Axis.t) = (a.size + tiles.(i) - 1) / tiles.(i) in
  (tiles, Array.mapi trip t.axes)
