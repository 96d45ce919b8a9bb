(* xoshiro256** with splitmix64 seeding.  Pure Int64 arithmetic so results
   are identical on every platform. *)

(* The four state words live unboxed in a [Bytes] (s0..s3 at offsets 0, 8,
   16, 24): a mutable [int64] record field would box on every write.  They
   are read and written unchecked in native byte order: [t] is abstract and
   always 32 bytes long, so the offsets are in range, and every access goes
   through these two primitives ([copy] duplicates the bytes as they are),
   so the byte order never leaves the module and the stream is the same on
   every host. *)
type t = Bytes.t

external get64 : t -> int -> int64 = "%caml_bytes_get64u"
external set64 : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every draw below, so the words stay unboxed end to end. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 8 (logxor s1 s2);
  set64 t 0 (logxor s0 s3);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let int64 t = next t
let split t = of_seed64 (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine for our bounds (all far below 2^62). *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let[@inline] float t bound =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  bound *. (float_of_int v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L <> 0L

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let weighted_sampler t weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Rng.weighted_sampler: empty array";
  let prefix = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. Float.max w 0.0;
      prefix.(i) <- !acc)
    weights;
  let total = !acc in
  fun () ->
    if total <= 0.0 then int t n
    else begin
      let target = float t total in
      (* The first i < n - 1 with [target < prefix.(i)], else n - 1; the
         prefix sums are non-decreasing, so the predicate is monotone. *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if target < prefix.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

let weighted_index t weights = weighted_sampler t weights ()

let sample_without_replacement t k n =
  let k = min k n in
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)
