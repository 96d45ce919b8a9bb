let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* An index loop over a local accumulator: the compiler keeps [h]
   unboxed, so hashing allocates only the result. *)
let combine h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let fnv1a64 s = combine offset_basis s

let to_unit_float h =
  let v = Int64.to_int (Int64.shift_right_logical h 11) in
  float_of_int v /. 9007199254740992.0

let seed s = Int64.to_int (Int64.logand (fnv1a64 s) 0x3FFFFFFFFFFFFFFFL)
