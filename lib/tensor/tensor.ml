type t = { shape : int array; strides : int array; buf : float array }

let compute_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let numel_of_shape shape = Array.fold_left ( * ) 1 shape

let create shape =
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Tensor.create: negative dimension")
    shape;
  let shape = Array.copy shape in
  { shape; strides = compute_strides shape; buf = Array.make (numel_of_shape shape) 0.0 }

let scalar v =
  let t = create [||] in
  t.buf.(0) <- v;
  t

let shape t = Array.copy t.shape
let rank t = Array.length t.shape
let numel t = Array.length t.buf
let data t = t.buf

let offset t idx =
  let n = Array.length t.shape in
  if Array.length idx <> n then invalid_arg "Tensor: rank mismatch";
  let off = ref 0 in
  for i = 0 to n - 1 do
    if idx.(i) < 0 || idx.(i) >= t.shape.(i) then
      invalid_arg
        (Printf.sprintf "Tensor: index %d out of bounds [0,%d) at axis %d"
           idx.(i) t.shape.(i) i);
    off := !off + (idx.(i) * t.strides.(i))
  done;
  !off

let get t idx = t.buf.(offset t idx)
let set t idx v = t.buf.(offset t idx) <- v

let copy t =
  { shape = Array.copy t.shape;
    strides = Array.copy t.strides;
    buf = Array.copy t.buf }

let of_array shape buf =
  if Array.length buf <> numel_of_shape shape then
    invalid_arg "Tensor.of_array: buffer size does not match shape";
  let shape = Array.copy shape in
  { shape; strides = compute_strides shape; buf = Array.copy buf }

(* Iterate multi-indices in row-major order, reusing one index buffer. *)
let iter_indices shape f =
  let n = Array.length shape in
  if numel_of_shape shape > 0 then begin
    let idx = Array.make n 0 in
    let rec bump () =
      f idx;
      let rec carry i =
        if i < 0 then false
        else begin
          idx.(i) <- idx.(i) + 1;
          if idx.(i) < shape.(i) then true
          else begin
            idx.(i) <- 0;
            carry (i - 1)
          end
        end
      in
      if carry (n - 1) then bump ()
    in
    bump ()
  end

let init shape f =
  let t = create shape in
  let pos = ref 0 in
  iter_indices t.shape (fun idx ->
      t.buf.(!pos) <- f idx;
      incr pos);
  t

let random rng shape =
  let t = create shape in
  for i = 0 to Array.length t.buf - 1 do
    t.buf.(i) <- Mcf_util.Rng.float rng 2.0 -. 1.0
  done;
  t

let map f t =
  let r = copy t in
  for i = 0 to Array.length r.buf - 1 do
    r.buf.(i) <- f r.buf.(i)
  done;
  r

let check_same_shape a b =
  if a.shape <> b.shape then invalid_arg "Tensor: shape mismatch"

let map2 f a b =
  check_same_shape a b;
  let r = copy a in
  for i = 0 to Array.length r.buf - 1 do
    r.buf.(i) <- f a.buf.(i) b.buf.(i)
  done;
  r

let max_abs_diff a b =
  check_same_shape a b;
  let m = ref 0.0 in
  for i = 0 to Array.length a.buf - 1 do
    m := Float.max !m (Float.abs (a.buf.(i) -. b.buf.(i)))
  done;
  !m

let approx_equal ?(tol = 1e-4) a b =
  check_same_shape a b;
  let ok = ref true in
  for i = 0 to Array.length a.buf - 1 do
    let scale = 1.0 +. Float.max (Float.abs a.buf.(i)) (Float.abs b.buf.(i)) in
    if Float.abs (a.buf.(i) -. b.buf.(i)) > tol *. scale then ok := false
  done;
  !ok
