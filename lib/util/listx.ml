let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y != x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
    let tails = cartesian rest in
    List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

(* Lazy twins of [permutations]/[cartesian].  They must yield elements
   in exactly the same order as the materializing versions — the search
   space is indexed positionally, and determinism pins (same candidate
   set, same winner at any --jobs) depend on the order being identical.

   For pairwise-distinct elements, removing the picked position equals
   [permutations]' physical [!=] removal.  Each level threads the rest of
   its own enumeration as the [tail] continuation, so an element costs a
   few cells per level instead of one [Seq.map] closure per level. *)
let seq_permutations l =
  let rec go acc rest tail () =
    match rest with
    | [] -> Seq.Cons (List.rev acc, tail)
    | _ ->
      let rec pick seen = function
        | [] -> tail ()
        | x :: after ->
          go (x :: acc) (List.rev_append seen after)
            (fun () -> pick (x :: seen) after)
            ()
      in
      pick [] rest
  in
  go [] l Seq.empty

let rec seq_cartesian = function
  | [] -> Seq.return []
  | choices :: rest ->
    List.to_seq choices
    |> Seq.concat_map (fun c -> Seq.map (fun t -> c :: t) (seq_cartesian rest))

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: tl -> drop (n - 1) tl

let index_of pred l =
  let rec go i = function
    | [] -> None
    | x :: tl -> if pred x then Some i else go (i + 1) tl
  in
  go 0 l

let dedup ~compare l =
  let sorted = List.sort compare l in
  let rec squeeze = function
    | a :: b :: tl when compare a b = 0 -> squeeze (b :: tl)
    | a :: tl -> a :: squeeze tl
    | [] -> []
  in
  squeeze sorted

let dedup_keep_order ~key l =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    l

let sum_by f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let max_by f = function
  | [] -> None
  | x :: tl ->
    let best =
      List.fold_left (fun (bx, bv) y ->
          let v = f y in
          if v > bv then (y, v) else (bx, bv))
        (x, f x) tl
    in
    Some (fst best)

let min_by f = function
  | [] -> None
  | x :: tl ->
    let best =
      List.fold_left (fun (bx, bv) y ->
          let v = f y in
          if v < bv then (y, v) else (bx, bv))
        (x, f x) tl
    in
    Some (fst best)

let range n = List.init n (fun i -> i)

let rec interleavings xs ys =
  match (xs, ys) with
  | [], l | l, [] -> [ l ]
  | x :: xtl, y :: ytl ->
    List.map (fun l -> x :: l) (interleavings xtl ys)
    @ List.map (fun l -> y :: l) (interleavings xs ytl)
