type t = {
  tiling : Tiling.t;
  tiles : (string * int) list;
}

let make tiling tiles =
  let tiles =
    List.sort (fun (a, _) (b, _) -> String.compare a b) tiles
  in
  { tiling; tiles }

let tile t (a : Axis.t) = List.assoc a.name t.tiles

let trip t (a : Axis.t) =
  let tl = tile t a in
  (a.size + tl - 1) / tl

let padded_size t a = trip t a * tile t a

let padding_ratio t (a : Axis.t) =
  float_of_int (padded_size t a - a.size) /. float_of_int a.size

let tile_options ?(min_tile = 16) size =
  if size <= min_tile then [ size ]
  else begin
    let rec collect acc v =
      if v > size then List.rev acc else collect (v :: acc) (v + min_tile)
    in
    let multiples = collect [] min_tile in
    if List.mem size multiples then multiples else multiples @ [ size ]
  end

let to_string t =
  let tiles =
    t.tiles
    |> List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
    |> String.concat " "
  in
  Printf.sprintf "%s {%s}" (Tiling.to_string t.tiling) tiles

(* The schedule-cache line format, predating this function: kind-tagged
   axis-name lists for the tiling, then the sorted tile vector.  Changing
   it would orphan every cache file already on disk. *)
let serialize t =
  let names axes =
    String.concat "," (List.map (fun (a : Axis.t) -> a.name) axes)
  in
  let tiling =
    match t.tiling with
    | Tiling.Deep axes -> "deep:" ^ names axes
    | Tiling.Flat (prefix, groups) ->
      "flat:" ^ names prefix ^ "/"
      ^ String.concat "/" (List.map names groups)
  in
  let tiles =
    t.tiles
    |> List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
    |> String.concat ","
  in
  tiling ^ ";" ^ tiles

let key = to_string

let equal a b = String.equal (key a) (key b)
