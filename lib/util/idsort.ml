(* A line-by-line transcription of Stdlib.Array.sort (OCaml 5.1.1,
   array.ml) with [cmp] fixed to [Float.compare] on [key]: the same
   ternary heap, the same comparisons in the same order, the same moves.
   Only the mechanics differ: [maxson] answers -1 where the original
   raises [Bottom i], and each handler of [Bottom] becomes the test of
   that sentinel.  Positions always lie inside [a], so they are read
   unchecked; [key] is indexed by caller-supplied ids and stays checked. *)

let by_key (key : float array) (a : int array) =
  let get i = Array.unsafe_get a i in
  let set i v = Array.unsafe_set a i v in
  (* [cmp a.(i) a.(j) < 0] of the original, for ids [x] and [y]. *)
  let lt x y = Float.compare key.(x) key.(y) < 0 in
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if lt (get i31) (get (i31 + 1)) then i31 + 1 else i31 in
      if lt (get x) (get (i31 + 2)) then i31 + 2 else x
    end
    else if i31 + 1 < l && lt (get i31) (get (i31 + 1)) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  (* [cmp a.(j) e > 0] is [lt e a.(j)]: [Float.compare] is antisymmetric. *)
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && lt e (get j) then begin
      set i (get j);
      trickle l j e
    end
    else set i e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      set i (get j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if lt (get father) e then begin
      set i (get father);
      if father > 0 then trickleup father e else set 0 e
    end
    else set i e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i (get i)
  done;
  for i = l - 1 downto 2 do
    let e = get i in
    set i (get 0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = get 1 in
    set 1 (get 0);
    set 0 e
  end

(* A binary min-heap of ids by (key, id), built bottom-up in O(n) and
   popped one id at a time.  [(key, id)] is a strict total order (ids
   are distinct), so the pop sequence is the unique ascending one. *)
type ranking = {
  rkey : float array;
  heap : int array;
  mutable size : int;
}

let rec sift r i =
  let a = r.heap and k = r.rkey in
  let lt x y =
    let c = Float.compare k.(x) k.(y) in
    c < 0 || (c = 0 && x < y)
  in
  let l = (2 * i) + 1 and rt = (2 * i) + 2 in
  let m = if l < r.size && lt a.(l) a.(i) then l else i in
  let m = if rt < r.size && lt a.(rt) a.(m) then rt else m in
  if m <> i then begin
    let t = a.(i) in
    a.(i) <- a.(m);
    a.(m) <- t;
    sift r m
  end

let ranking key =
  let n = Array.length key in
  let r = { rkey = key; heap = Array.init n Fun.id; size = n } in
  for i = (n / 2) - 1 downto 0 do
    sift r i
  done;
  r

let next r =
  if r.size = 0 then -1
  else begin
    let top = r.heap.(0) in
    r.size <- r.size - 1;
    r.heap.(0) <- r.heap.(r.size);
    sift r 0;
    top
  end
