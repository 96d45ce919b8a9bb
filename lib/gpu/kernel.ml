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

let fingerprint k =
  let buf = Buffer.create 128 in
  Buffer.add_string buf k.kname;
  Buffer.add_string buf (Printf.sprintf "|g%d|s%d" k.blocks k.smem_bytes);
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "|%s%c%.0f/%.0f/%d" a.label
           (match a.direction with Load -> 'L' | Store -> 'S')
           a.bytes_per_block a.unique_bytes a.row_bytes))
    k.accesses;
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "|C%s%.0f/%d/%d/%d" c.clabel c.flops_per_block
           c.tile_m c.tile_n c.tile_k))
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
