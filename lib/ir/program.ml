type stmt =
  | Load of Chain.tensor_spec * Chain.block
  | Store of Chain.tensor_spec * Chain.block
  | Compute of Chain.block
  | Epilogue of Chain.block

type node = Loop of loop | Stmt of stmt

and loop = {
  laxis : Axis.t;
  extent : int;
  group : int option;
  mutable body : node list;
}

type t = {
  chain : Chain.t;
  cand : Candidate.t;
  grid_axes : Axis.t list;
  mutable roots : node list;
}

type invalid =
  | Nonlinear_partial_consume of { producer : string; loop : string }
  | Blind_epilogue of { producer : string; axis : string }
  | Consumed_before_epilogue of { producer : string; consumer : string }
  | Consumed_before_produced of { producer : string; consumer : string }

let string_of_invalid = function
  | Nonlinear_partial_consume { producer; loop } ->
    Printf.sprintf
      "softmax output of block %s consumed inside its reduction loop %s"
      producer loop
  | Blind_epilogue { producer; axis } ->
    Printf.sprintf
      "epilogue of block %s runs outside the live loop over its output \
       axis %s and would miss all but one tile"
      producer axis
  | Consumed_before_epilogue { producer; consumer } ->
    Printf.sprintf
      "block %s consumes the output of block %s before its epilogue runs"
      consumer producer
  | Consumed_before_produced { producer; consumer } ->
    Printf.sprintf
      "block %s consumes the output of block %s before it is computed"
      consumer producer

let stmt_to_string = function
  | Load (ts, _) -> Printf.sprintf "Load(tile %s)" ts.Chain.tname
  | Store (ts, _) -> Printf.sprintf "Store(tile %s)" ts.Chain.tname
  | Compute b -> Printf.sprintf "Compute(tile %s)" b.Chain.bname
  | Epilogue b -> (
    match b.Chain.epilogue with
    | Chain.Softmax { saxis; _ } ->
      Printf.sprintf "Softmax(tile %s, axis %s)" b.Chain.bname saxis.Axis.name
    | Chain.Scale c -> Printf.sprintf "Scale(tile %s, %g)" b.Chain.bname c
    | Chain.Unary { uname; _ } ->
      Printf.sprintf "%s(tile %s)" (String.capitalize_ascii uname)
        b.Chain.bname
    | Chain.No_epilogue -> Printf.sprintf "Epilogue(tile %s)" b.Chain.bname)

let stmt_key = function
  | Load (ts, b) -> "L:" ^ ts.Chain.tname ^ ":" ^ b.Chain.bname
  | Store (ts, b) -> "S:" ^ ts.Chain.tname ^ ":" ^ b.Chain.bname
  | Compute b -> "C:" ^ b.Chain.bname
  | Epilogue b -> "E:" ^ b.Chain.bname

(* --- structure construction ------------------------------------------- *)

let rec nest_axes cand group axes inner =
  match axes with
  | [] -> inner
  | a :: rest ->
    [ Loop
        { laxis = a;
          extent = Candidate.trip cand a;
          group;
          body = nest_axes cand group rest inner } ]

(* Split a loop order into (grid axes, in-block axes).  Rule 1 binds
   every hoistable spatial loop to blockIdx; without it only the leading
   spatial prefix is bound. *)
let split_spatial ~rule1 axes =
  if rule1 then List.partition Axis.is_spatial axes
  else begin
    let rec span acc = function
      | a :: rest when Axis.is_spatial a -> span (a :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    span [] axes
  end

let grid_of ~rule1 (Tiling.Deep nested | Tiling.Flat (nested, _)) =
  fst (split_spatial ~rule1 nested)

(* Split a tiling into (grid axes, per-block structure roots). *)
let split_grid ~rule1 cand tiling =
  let nested, groups =
    match tiling with Tiling.Deep p -> (p, []) | Tiling.Flat (p, g) -> (p, g)
  in
  let grid, body = split_spatial ~rule1 nested in
  let group_nodes =
    List.concat (List.mapi (fun i g -> nest_axes cand (Some i) g []) groups)
  in
  (grid, nest_axes cand None body group_nodes)

(* --- dead-loop elimination -------------------------------------------- *)

let rec splice_dead nodes =
  List.concat_map
    (function
      | Stmt s -> [ Stmt s ]
      | Loop l ->
        let body = splice_dead l.body in
        if l.extent = 1 then body
        else begin
          l.body <- body;
          [ Loop l ]
        end)
    nodes

(* --- statement placement ---------------------------------------------- *)

type scope = Root of t | In of loop

let scope_items = function Root t -> t.roots | In l -> l.body
let set_scope_items scope items =
  match scope with Root t -> t.roots <- items | In l -> l.body <- items

let rec subtree_has targets = function
  | Stmt _ -> false
  | Loop l ->
    Axis.mem l.laxis targets || List.exists (subtree_has targets) l.body

(* Descend to the deepest scope whose subtree still contains a target
   axis, restricted to loops visible to this block's sequential group.
   [stop_axes] prevents descending into given loops: the Store of an
   accumulator must remain outside its producer's reduction loops (the
   resident tiles are flushed once the reduction completes). *)
let rec find_scope scope ~group_idx ~targets ~stop_axes =
  let eligible l =
    match l.group with None -> true | Some g -> g = group_idx
  in
  let enterable = function
    | Stmt _ -> None
    | Loop l ->
      if eligible l
         && (not (Axis.mem l.laxis stop_axes))
         && subtree_has targets (Loop l)
      then Some l
      else None
  in
  match List.find_map enterable (scope_items scope) with
  | Some l -> find_scope (In l) ~group_idx ~targets ~stop_axes
  | None -> scope

let rec has_stmt = function
  | Stmt _ -> true
  | Loop l -> List.exists has_stmt l.body

(* Insert a statement for sequential group [group_idx].  The statement goes
   after everything already placed (blocks are processed in producer order)
   but before (a) subtrees of later sequential groups and (b) still-empty
   structural loops — those can only ever receive statements of this or
   later blocks, which must execute after the producer being inserted. *)
let insert_ordered scope ~group_idx node =
  let must_precede = function
    | Loop { group = Some g; _ } as n -> g > group_idx || not (has_stmt n)
    | Loop { group = None; _ } as n -> not (has_stmt n)
    | Stmt _ -> false
  in
  let rec go acc = function
    | [] -> List.rev (node :: acc)
    | x :: _ as rest when must_precede x -> List.rev_append acc (node :: rest)
    | x :: rest -> go (x :: acc) rest
  in
  set_scope_items scope (go [] (scope_items scope))

let has_epilogue (b : Chain.block) =
  match b.epilogue with
  | Chain.No_epilogue -> false
  | Chain.Scale _ | Chain.Softmax _ | Chain.Unary _ -> true

let place_statements t =
  let chain = t.chain in
  List.iteri
    (fun group_idx (b : Chain.block) ->
      let insert scope node = insert_ordered scope ~group_idx node in
      let used = Chain.used_axes b in
      let non_out =
        List.filter (fun a -> not (Axis.mem a b.out.taxes)) chain.Chain.axes
      in
      let cscope = find_scope (Root t) ~group_idx ~targets:used ~stop_axes:[] in
      (* Loads of global inputs sit right next to the compute by default;
         the hoisting pass relocates them (Fig. 4). *)
      List.iter
        (fun (ts : Chain.tensor_spec) ->
          if ts.storage = Chain.Input then insert cscope (Stmt (Load (ts, b))))
        b.ins;
      insert cscope (Stmt (Compute b));
      (match b.epilogue with
      | Chain.No_epilogue -> ()
      | Chain.Scale _ | Chain.Softmax _ | Chain.Unary _ ->
        let after_reduce =
          List.filter (fun a -> not (Axis.mem a b.reduce_axes)) used
        in
        (* The epilogue transforms the completed accumulator, so it must
           stay outside every loop across which the accumulator still
           grows: the block's own reduction loops, and any foreign loop
           (another block's axis) whose iterations feed it partial sums.
           Only loops over the output's own axes address distinct tiles
           and are safe to descend into. *)
        let s =
          find_scope (Root t) ~group_idx ~targets:after_reduce
            ~stop_axes:non_out
        in
        insert s (Stmt (Epilogue b)));
      if b.out.storage = Chain.Output then begin
        (* Without an epilogue the store may sit inside partial-sum loops
           (it just overwrites with progressively complete values); with
           one it must use the epilogue's stop set so it lands in the same
           scope, after the epilogue transforms the accumulator. *)
        let stop = if has_epilogue b then non_out else b.reduce_axes in
        let s =
          find_scope (Root t) ~group_idx ~targets:b.out.taxes ~stop_axes:stop
        in
        insert s (Stmt (Store (b.out, b)))
      end)
    chain.blocks

(* --- hoisting ----------------------------------------------------------
   One post-order pass: statements hoisted out of an inner loop land in the
   parent scope and are reconsidered when the parent is processed, so the
   cascade of Fig. 4(b) (load escaping all the way to the top) happens in a
   single traversal. *)

let hoistable_out_of laxis = function
  | Load (ts, _) | Store (ts, _) -> not (Axis.mem laxis ts.Chain.taxes)
  | Compute _ | Epilogue _ -> false

let rec hoist_items items =
  List.concat_map
    (function
      | Stmt s -> [ Stmt s ]
      | Loop l ->
        l.body <- hoist_items l.body;
        let before, keep, after =
          List.fold_left
            (fun (before, keep, after) node ->
              match node with
              | Stmt (Load _ as s) when hoistable_out_of l.laxis s ->
                (Stmt s :: before, keep, after)
              | Stmt ((Store _ | Epilogue _) as s) when hoistable_out_of l.laxis s
                ->
                (before, keep, Stmt s :: after)
              | other -> (before, other :: keep, after))
            ([], [], []) l.body
        in
        l.body <- List.rev keep;
        List.rev before @ [ Loop l ] @ List.rev after)
    items

(* --- queries ------------------------------------------------------------ *)

let placed_stmts t =
  let rec walk path nodes =
    List.concat_map
      (function
        | Stmt s -> [ (List.rev path, s) ]
        | Loop l -> walk (l.laxis :: path) l.body)
      nodes
  in
  walk [] t.roots

let grid_blocks t =
  List.fold_left
    (fun acc a -> acc * Candidate.trip t.cand a)
    t.chain.batch t.grid_axes

let online_softmax t =
  List.exists
    (fun (b : Chain.block) ->
      match b.epilogue with
      | Chain.Softmax { saxis; _ } -> Candidate.trip t.cand saxis > 1
      | Chain.No_epilogue | Chain.Scale _ | Chain.Unary _ -> false)
    t.chain.blocks

let dag_edges t =
  let edges = ref [] in
  let add e = edges := e :: !edges in
  let rec walk parent nodes =
    let stmts_in_scope =
      List.filter_map (function Stmt s -> Some s | Loop _ -> None) nodes
    in
    (* order-dependency edges between consecutive statements of a scope *)
    let rec chain_edges = function
      | a :: (b :: _ as rest) ->
        add (stmt_key a, stmt_key b);
        chain_edges rest
      | [ _ ] | [] -> ()
    in
    chain_edges stmts_in_scope;
    List.iter
      (function
        | Stmt s -> add (parent, stmt_key s)
        | Loop l ->
          add (parent, "loop:" ^ l.laxis.Axis.name);
          walk ("loop:" ^ l.laxis.Axis.name) l.body)
      nodes
  in
  walk "root" t.roots;
  List.rev !edges

let to_dot t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph schedule {\n  rankdir=TB;\n";
  Buffer.add_string buf "  root [shape=box, style=bold, label=\"thread block\"];\n";
  let loops = Hashtbl.create 8 in
  let rec declare nodes =
    List.iter
      (function
        | Stmt s ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" [shape=ellipse, label=\"%s\"];\n"
               (stmt_key s) (stmt_to_string s))
        | Loop l ->
          if not (Hashtbl.mem loops l.laxis.Axis.name) then begin
            Hashtbl.add loops l.laxis.Axis.name ();
            Buffer.add_string buf
              (Printf.sprintf
                 "  \"loop:%s\" [shape=box, label=\"loop %s (x%d)\"];\n"
                 l.laxis.Axis.name l.laxis.Axis.name l.extent)
          end;
          declare l.body)
      nodes
  in
  declare t.roots;
  List.iter
    (fun (src, dst) ->
      let order_edge =
        (* stmt -> stmt edges are order dependencies (dashed in Fig. 5) *)
        String.length src > 0 && src.[0] <> 'l' && src <> "root"
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\"%s;\n" src dst
           (if order_edge then " [style=dashed]" else "")))
    (dag_edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 256 in
  let grid =
    match t.grid_axes with
    | [] -> "grid(1)"
    | axes ->
      Printf.sprintf "grid(%s)"
        (String.concat ", "
           (List.map
              (fun (a : Axis.t) ->
                Printf.sprintf "%s:%d" a.name (Candidate.trip t.cand a))
              axes))
  in
  Buffer.add_string buf
    (Printf.sprintf "for %s in %s:   # blockIdx, batch=%d\n"
       (match t.grid_axes with
       | [] -> "_"
       | axes -> String.concat ", " (List.map (fun (a : Axis.t) -> a.name) axes))
       grid t.chain.batch);
  let rec emit indent nodes =
    List.iter
      (function
        | Stmt s ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s\n" (String.make indent ' ') (stmt_to_string s))
        | Loop l ->
          Buffer.add_string buf
            (Printf.sprintf "%sfor %s in range(%d):%s\n"
               (String.make indent ' ') l.laxis.Axis.name l.extent
               (match l.group with
               | None -> ""
               | Some g -> Printf.sprintf "   # seq-group %d" g));
          emit (indent + 2) l.body)
      nodes
  in
  emit 2 t.roots;
  Buffer.contents buf

let build ?(rule1 = true) ?(dead_loop_elim = true) ?(hoisting = true) chain cand
    =
  let grid_axes, roots = split_grid ~rule1 cand cand.Candidate.tiling in
  let t = { chain; cand; grid_axes; roots } in
  if dead_loop_elim then t.roots <- splice_dead t.roots;
  place_statements t;
  if hoisting then t.roots <- hoist_items t.roots;
  t
