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

let tiles_string sep t =
  String.concat sep (List.map (fun (n, v) -> n ^ "=" ^ string_of_int v) t.tiles)

let to_string t = Tiling.to_string t.tiling ^ " {" ^ tiles_string " " t ^ "}"

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
  tiling ^ ";" ^ tiles_string "," t

let key = to_string

let equal a b = String.equal (key a) (key b)
