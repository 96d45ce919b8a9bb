type role = Spatial | Reduce

type t = { name : string; size : int; role : role }

let spatial name size = { name; size; role = Spatial }
let reduce name size = { name; size; role = Reduce }

let is_spatial a = a.role = Spatial
let is_reduce a = a.role = Reduce

let equal a b = String.equal a.name b.name
let find name axes = List.find (fun a -> String.equal a.name name) axes
let mem a axes = List.exists (equal a) axes

let names axes = String.concat "" (List.map (fun a -> a.name) axes)

let pp ppf a =
  Format.fprintf ppf "%s[%d,%s]" a.name a.size
    (match a.role with Spatial -> "S" | Reduce -> "R")
