type direction = Load | Store

type access = {
  label : string;
  bytes_per_block : float;
  unique_bytes : float;
  row_bytes : int;
  direction : direction;
}

type compute = {
  clabel : string;
  flops_per_block : float;
  tile_m : int;
  tile_n : int;
  tile_k : int;
}

type t = {
  kname : string;
  blocks : int;
  smem_bytes : int;
  accesses : access list;
  computes : compute list;
  stmt_trips_per_block : float;
}

(* [Printf "%d"] straight into [buf], without an intermediate string.
   Digits are taken from the non-positive side so [min_int] has one. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* [Printf "%.0f"].  An integral float below 2^53 in magnitude converts to
   an int exactly, so its digits are the int's; -0.0 ("-0"), fractions
   (round-half-even), huge values and non-finite ones take the C path. *)
let add_float0 buf x =
  if Float.abs x < 9007199254740992.0 && Float.is_integer x
     && not (x = 0.0 && Float.sign_bit x)
  then add_int buf (int_of_float x)
  else Buffer.add_string buf (Printf.sprintf "%.0f" x)

let fingerprint k =
  let buf = Buffer.create 256 in
  Buffer.add_string buf k.kname;
  Buffer.add_string buf "|g";
  add_int buf k.blocks;
  Buffer.add_string buf "|s";
  add_int buf k.smem_bytes;
  List.iter
    (fun a ->
      Buffer.add_char buf '|';
      Buffer.add_string buf a.label;
      Buffer.add_char buf (match a.direction with Load -> 'L' | Store -> 'S');
      add_float0 buf a.bytes_per_block;
      Buffer.add_char buf '/';
      add_float0 buf a.unique_bytes;
      Buffer.add_char buf '/';
      add_int buf a.row_bytes)
    k.accesses;
  List.iter
    (fun c ->
      Buffer.add_string buf "|C";
      Buffer.add_string buf c.clabel;
      add_float0 buf c.flops_per_block;
      Buffer.add_char buf '/';
      add_int buf c.tile_m;
      Buffer.add_char buf '/';
      add_int buf c.tile_n;
      Buffer.add_char buf '/';
      add_int buf c.tile_k)
    k.computes;
  Buffer.contents buf

let total_flops k =
  let per_block =
    List.fold_left (fun acc c -> acc +. c.flops_per_block) 0.0 k.computes
  in
  per_block *. float_of_int k.blocks

let total_bytes k =
  let per_block =
    List.fold_left (fun acc a -> acc +. a.bytes_per_block) 0.0 k.accesses
  in
  per_block *. float_of_int k.blocks
