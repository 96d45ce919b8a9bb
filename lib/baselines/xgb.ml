type tree =
  | Leaf of float
  | Split of { feat : int; threshold : float; left : tree; right : tree }

type params = {
  n_trees : int;
  max_depth : int;
  learning_rate : float;
  min_samples_split : int;
}

type t = {
  base : float;
  trees : tree list;
  learning_rate : float;
}

let default_params =
  { n_trees = 40; max_depth = 4; learning_rate = 0.3; min_samples_split = 4 }

let mean arr idxs =
  if Array.length idxs = 0 then 0.0
  else begin
    let s = Array.fold_left (fun acc i -> acc +. arr.(i)) 0.0 idxs in
    s /. float_of_int (Array.length idxs)
  end

(* Sum of squared errors around the subset mean, in one pass. *)
let sse targets idxs =
  let n = float_of_int (Array.length idxs) in
  if n = 0.0 then 0.0
  else begin
    let s = Array.fold_left (fun acc i -> acc +. targets.(i)) 0.0 idxs in
    let s2 =
      Array.fold_left (fun acc i -> acc +. (targets.(i) *. targets.(i))) 0.0 idxs
    in
    s2 -. (s *. s /. n)
  end

let best_split features targets idxs ~min_samples =
  let n_feats = Array.length features.(0) in
  let parent = sse targets idxs in
  let best = ref None in
  for f = 0 to n_feats - 1 do
    let sorted = Array.copy idxs in
    Array.sort (fun a b -> Float.compare features.(a).(f) features.(b).(f)) sorted;
    (* prefix sums over the sorted order *)
    let n = Array.length sorted in
    let prefix_s = Array.make (n + 1) 0.0 in
    let prefix_s2 = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      let y = targets.(sorted.(i)) in
      prefix_s.(i + 1) <- prefix_s.(i) +. y;
      prefix_s2.(i + 1) <- prefix_s2.(i) +. (y *. y)
    done;
    for i = min_samples to n - min_samples do
      (* split between i-1 and i; skip ties *)
      if features.(sorted.(i - 1)).(f) < features.(sorted.(i)).(f) then begin
        let nl = float_of_int i and nr = float_of_int (n - i) in
        let sl = prefix_s.(i) and s2l = prefix_s2.(i) in
        let sr = prefix_s.(n) -. sl and s2r = prefix_s2.(n) -. s2l in
        let sse_l = s2l -. (sl *. sl /. nl) in
        let sse_r = s2r -. (sr *. sr /. nr) in
        let gain = parent -. sse_l -. sse_r in
        let better =
          match !best with None -> true | Some (g, _, _, _) -> gain > g
        in
        if gain > 1e-12 && better then begin
          let threshold =
            (features.(sorted.(i - 1)).(f) +. features.(sorted.(i)).(f)) /. 2.0
          in
          best := Some (gain, f, threshold, i)
        end
      end
    done
  done;
  match !best with
  | None -> None
  | Some (_, f, threshold, _) ->
    let left, right =
      Array.to_list idxs
      |> List.partition (fun i -> features.(i).(f) <= threshold)
    in
    Some (f, threshold, Array.of_list left, Array.of_list right)

let rec grow features targets idxs ~depth ~params =
  if depth >= params.max_depth
     || Array.length idxs < 2 * params.min_samples_split
  then Leaf (mean targets idxs)
  else
    match
      best_split features targets idxs ~min_samples:params.min_samples_split
    with
    | None -> Leaf (mean targets idxs)
    | Some (feat, threshold, li, ri) ->
      Split
        { feat;
          threshold;
          left = grow features targets li ~depth:(depth + 1) ~params;
          right = grow features targets ri ~depth:(depth + 1) ~params }

let rec eval_tree tree x =
  match tree with
  | Leaf v -> v
  | Split { feat; threshold; left; right } ->
    if x.(feat) <= threshold then eval_tree left x else eval_tree right x

let train ?(params = default_params) samples =
  if samples = [] then invalid_arg "Xgb.train: empty training set";
  let features = Array.of_list (List.map fst samples) in
  let arity = Array.length features.(0) in
  Array.iter
    (fun f ->
      if Array.length f <> arity then
        invalid_arg "Xgb.train: inconsistent feature arity")
    features;
  let targets = Array.of_list (List.map snd samples) in
  let n = Array.length targets in
  let base = mean targets (Array.init n (fun i -> i)) in
  let residuals = Array.map (fun y -> y -. base) targets in
  let all = Array.init n (fun i -> i) in
  let trees = ref [] in
  for _ = 1 to params.n_trees do
    let tree = grow features residuals ~depth:0 ~params (all) in
    Array.iteri
      (fun i _ ->
        residuals.(i) <-
          residuals.(i) -. (params.learning_rate *. eval_tree tree features.(i)))
      residuals;
    trees := tree :: !trees
  done;
  { base; trees = List.rev !trees; learning_rate = params.learning_rate }

let predict t x =
  List.fold_left
    (fun acc tree -> acc +. (t.learning_rate *. eval_tree tree x))
    t.base t.trees

let log1 v = log (1.0 +. Float.abs v)

let feature_vector (l : Mcf_ir.Lower.t) =
  let cand = l.cand in
  let tiles = List.map snd cand.Mcf_ir.Candidate.tiles in
  let tile_feats =
    match tiles with
    | [ a; b; c; d ] -> [ float_of_int a; float_of_int b; float_of_int c; float_of_int d ]
    | other ->
      (* pad/truncate to 4 slots for uniform arity *)
      let rec fit n = function
        | [] -> if n = 0 then [] else 0.0 :: fit (n - 1) []
        | x :: tl -> if n = 0 then [] else float_of_int x :: fit (n - 1) tl
      in
      fit 4 other
  in
  Array.of_list
    ([ log1 (Mcf_ir.Lower.total_traffic_bytes l);
       log1 (Mcf_ir.Lower.flops_per_block l *. float_of_int l.blocks);
       log1 (float_of_int l.blocks);
       log1 (float_of_int (Mcf_model.Shmem.estimate_bytes l));
       log1 (float_of_int l.stmt_trips_total);
       (if Mcf_ir.Tiling.is_flat cand.Mcf_ir.Candidate.tiling then 1.0 else 0.0);
       (if l.online_softmax then 1.0 else 0.0) ]
    @ List.map log1 tile_feats)
