(* A line-by-line transcription of Stdlib.Array.sort (OCaml 5.1.1,
   array.ml) with [cmp] fixed to [Float.compare] on [key]: the same
   ternary heap, the same comparisons in the same order, the same moves.
   Only the mechanics differ.  The sort carries a key column [k] beside
   the ids, [k.(p) = key.(a.(p))] at every position [p] below [l], and
   every move writes both, so a comparison reads [k] and never indexes
   [key] through an id.  The element the original holds aside as [e]
   keeps its key in [k]'s spare last slot, so no float crosses a call
   boxed.  [maxson] answers -1 where the original raises [Bottom i], and
   each handler of [Bottom] becomes the test of that sentinel.
   Positions always lie inside [a] and [k], so both are read unchecked;
   [key] is indexed by caller-supplied ids and stays checked. *)

let[@inline] held (k : float array) = Array.length k - 1

(* [cmp a.(p) a.(q) < 0] of the original, for positions [p] and [q]. *)
let[@inline] lt (k : float array) p q =
  Float.compare (Array.unsafe_get k p) (Array.unsafe_get k q) < 0

let[@inline] move (a : int array) (k : float array) ~src ~dst =
  Array.unsafe_set a dst (Array.unsafe_get a src);
  Array.unsafe_set k dst (Array.unsafe_get k src)

(* Hold the element at [p] aside: its key goes to the spare slot. *)
let[@inline] hold (k : float array) p =
  Array.unsafe_set k (held k) (Array.unsafe_get k p)

(* [set a p e]: the held element lands at [p]. *)
let[@inline] put (a : int array) (k : float array) p e =
  Array.unsafe_set a p e;
  Array.unsafe_set k p (Array.unsafe_get k (held k))

let maxson k l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if lt k i31 (i31 + 1) then i31 + 1 else i31 in
    if lt k x (i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && lt k i31 (i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

(* [cmp a.(j) e > 0] is [lt k (held k) j]: [Float.compare] is
   antisymmetric. *)
let rec trickle a k l i e =
  let j = maxson k l i in
  if j >= 0 && lt k (held k) j then begin
    move a k ~src:j ~dst:i;
    trickle a k l j e
  end
  else put a k i e

let rec bubble a k l i =
  let j = maxson k l i in
  if j < 0 then i
  else begin
    move a k ~src:j ~dst:i;
    bubble a k l j
  end

let rec trickleup a k i e =
  let father = (i - 1) / 3 in
  if lt k father (held k) then begin
    move a k ~src:father ~dst:i;
    if father > 0 then trickleup a k father e else put a k 0 e
  end
  else put a k i e

let by_key (key : float array) (a : int array) =
  let l = Array.length a in
  let k = Array.create_float (l + 1) in
  for p = 0 to l - 1 do
    Array.unsafe_set k p key.(Array.unsafe_get a p)
  done;
  for i = ((l + 1) / 3) - 1 downto 0 do
    hold k i;
    trickle a k l i (Array.unsafe_get a i)
  done;
  for i = l - 1 downto 2 do
    let e = Array.unsafe_get a i in
    hold k i;
    move a k ~src:0 ~dst:i;
    trickleup a k (bubble a k i 0) e
  done;
  if l > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
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
