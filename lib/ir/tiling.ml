type t =
  | Deep of Axis.t list
  | Flat of Axis.t list * Axis.t list list

let to_string = function
  | Deep axes -> Axis.names axes
  | Flat (prefix, groups) ->
    Axis.names prefix ^ "("
    ^ String.concat "," (List.map Axis.names groups)
    ^ ")"

let axes = function
  | Deep l -> l
  | Flat (prefix, groups) -> prefix @ List.concat groups

let is_flat = function Deep _ -> false | Flat _ -> true

let enumerate_deep (chain : Chain.t) =
  List.map (fun p -> Deep p) (Mcf_util.Listx.permutations chain.axes)

(* Flat tiling separates blocks into sequential sibling scopes; it only
   exists when at least two blocks own a private axis to iterate in their
   own scope (otherwise the Seq collapses into plain nesting). *)
let flat_parts (chain : Chain.t) =
  let privates = List.map (Chain.private_axes chain) chain.blocks in
  if List.length (List.filter (fun g -> g <> []) privates) < 2 then None
  else Some (Chain.shared_axes chain, privates)

let enumerate_flat chain =
  match flat_parts chain with
  | None -> []
  | Some (shared, privates) ->
    let prefixes = Mcf_util.Listx.permutations shared in
    let group_choices =
      Mcf_util.Listx.cartesian (List.map Mcf_util.Listx.permutations privates)
    in
    List.concat_map
      (fun prefix -> List.map (fun groups -> Flat (prefix, groups)) group_choices)
      prefixes

let enumerate chain = enumerate_deep chain @ enumerate_flat chain

(* Lazy enumeration for the streaming pipeline: identical elements in
   the identical order as [enumerate], produced on demand so an n!-sized
   deep family is never resident at once.  Keep both paths in lockstep —
   the positional index of a tiling is part of the determinism
   contract. *)

let seq_deep (chain : Chain.t) =
  Seq.map (fun p -> Deep p) (Mcf_util.Listx.seq_permutations chain.axes)

let seq_flat chain =
  match flat_parts chain with
  | None -> Seq.empty
  | Some (shared, privates) ->
    (* Private groups are tiny (a handful of axes per block), so their
       permutation lists stay materialized; only the shared-prefix
       permutations and the cross product stream. *)
    let group_perms = List.map Mcf_util.Listx.permutations privates in
    Mcf_util.Listx.seq_permutations shared
    |> Seq.concat_map (fun prefix ->
           Seq.map
             (fun groups -> Flat (prefix, groups))
             (Mcf_util.Listx.seq_cartesian group_perms))

let seq chain = Seq.append (seq_deep chain) (seq_flat chain)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* Each family picks one permutation per component: all the axes for
   the deep family, the shared prefix and each private group for the
   flat one.  [count] and [count_sub_tilings] count those choices over
   all axes and over the reduce axes only. *)
let count_over ~include_flat keep (chain : Chain.t) =
  let perms comps =
    List.fold_left
      (fun acc c -> acc * factorial (List.length (List.filter keep c)))
      1 comps
  in
  let flat =
    match flat_parts chain with
    | Some (shared, privates) when include_flat -> perms (shared :: privates)
    | _ -> 0
  in
  perms [ chain.axes ] + flat

let count ?(include_flat = true) chain =
  count_over ~include_flat (fun _ -> true) chain

let count_sub_tilings ?(include_flat = true) chain =
  count_over ~include_flat Axis.is_reduce chain

let strip axes_list = List.filter Axis.is_reduce axes_list

let sub_tiling (_chain : Chain.t) = function
  | Deep l -> Deep (strip l)
  | Flat (prefix, groups) -> Flat (strip prefix, List.map strip groups)

(* The first permutation of [base] in [Listx.seq_permutations] order
   whose reduce axes come in the order [reduce]: at each step, the
   lowest-positioned remaining axis that is spatial or is the next
   reduce axis. *)
let rec first_with_reduce_order base reduce =
  match base with
  | [] -> []
  | _ ->
    let fits (a : Axis.t) =
      (not (Axis.is_reduce a))
      || match reduce with r :: _ -> Axis.equal a r | [] -> false
    in
    let a = List.find fits base in
    a
    :: first_with_reduce_order
         (List.filter (fun b -> not (Axis.equal a b)) base)
         (if Axis.is_reduce a then List.tl reduce else reduce)

let first_of_sub_tiling (chain : Chain.t) = function
  | Deep reduce -> Deep (first_with_reduce_order chain.axes reduce)
  | Flat (prefix, groups) -> (
    match flat_parts chain with
    | None -> invalid_arg "Tiling.first_of_sub_tiling: no flat family"
    | Some (shared, privates) ->
      Flat
        ( first_with_reduce_order shared prefix,
          List.map2 first_with_reduce_order privates groups ))

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

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = Hashtbl.hash (to_string t)
end)
