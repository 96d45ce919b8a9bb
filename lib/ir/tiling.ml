type t =
  | Deep of Axis.t list
  | Flat of Axis.t list * Axis.t list list

let to_string = function
  | Deep axes -> Axis.names axes
  | Flat (prefix, groups) ->
    Printf.sprintf "%s(%s)" (Axis.names prefix)
      (String.concat "," (List.map Axis.names groups))

let axes = function
  | Deep l -> l
  | Flat (prefix, groups) -> prefix @ List.concat groups

let is_flat = function Deep _ -> false | Flat _ -> true

let enumerate_deep (chain : Chain.t) =
  List.map (fun p -> Deep p) (Mcf_util.Listx.permutations chain.axes)

let enumerate_flat (chain : Chain.t) =
  (* Flat tiling separates blocks into sequential sibling scopes; it only
     exists when at least two blocks own a private axis to iterate in their
     own scope (otherwise the Seq collapses into plain nesting). *)
  let privates = List.map (Chain.private_axes chain) chain.blocks in
  let nonempty = List.length (List.filter (fun g -> g <> []) privates) in
  if nonempty < 2 then []
  else begin
    let shared = Chain.shared_axes chain in
    let prefixes = Mcf_util.Listx.permutations shared in
    let group_choices =
      Mcf_util.Listx.cartesian (List.map Mcf_util.Listx.permutations privates)
    in
    List.concat_map
      (fun prefix -> List.map (fun groups -> Flat (prefix, groups)) group_choices)
      prefixes
  end

let enumerate chain = enumerate_deep chain @ enumerate_flat chain

(* Lazy enumeration for the streaming pipeline: identical elements in
   the identical order as [enumerate], produced on demand so an n!-sized
   deep family is never resident at once.  Keep both paths in lockstep —
   the positional index of a tiling is part of the determinism
   contract. *)

let seq_deep (chain : Chain.t) =
  Seq.map (fun p -> Deep p) (Mcf_util.Listx.seq_permutations chain.axes)

let seq_flat (chain : Chain.t) =
  let privates = List.map (Chain.private_axes chain) chain.blocks in
  let nonempty = List.length (List.filter (fun g -> g <> []) privates) in
  if nonempty < 2 then Seq.empty
  else begin
    let shared = Chain.shared_axes chain in
    (* Private groups are tiny (a handful of axes per block), so their
       permutation lists stay materialized; only the shared-prefix
       permutations and the cross product stream. *)
    let group_perms = List.map Mcf_util.Listx.permutations privates in
    Mcf_util.Listx.seq_permutations shared
    |> Seq.concat_map (fun prefix ->
           Seq.map
             (fun groups -> Flat (prefix, groups))
             (Mcf_util.Listx.seq_cartesian group_perms))
  end

let seq chain = Seq.append (seq_deep chain) (seq_flat chain)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let count (chain : Chain.t) =
  let deep = factorial (List.length chain.axes) in
  let privates = List.map (Chain.private_axes chain) chain.blocks in
  let nonempty = List.length (List.filter (fun g -> g <> []) privates) in
  let flat =
    if nonempty < 2 then 0
    else
      List.fold_left
        (fun acc g -> acc * factorial (List.length g))
        (factorial (List.length (Chain.shared_axes chain)))
        privates
  in
  deep + flat

let strip axes_list = List.filter Axis.is_reduce axes_list

let sub_tiling (_chain : Chain.t) = function
  | Deep l -> Deep (strip l)
  | Flat (prefix, groups) -> Flat (strip prefix, List.map strip groups)

let equal a b =
  match (a, b) with
  | Deep x, Deep y ->
    List.length x = List.length y && List.for_all2 Axis.equal x y
  | Flat (p1, g1), Flat (p2, g2) ->
    let eq_list x y =
      List.length x = List.length y && List.for_all2 Axis.equal x y
    in
    eq_list p1 p2
    && List.length g1 = List.length g2
    && List.for_all2 eq_list g1 g2
  | Deep _, Flat _ | Flat _, Deep _ -> false
