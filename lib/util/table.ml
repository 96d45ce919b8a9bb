type align = Left | Right

type line = Row of string list | Rule

type t = {
  headers : string list;
  arity : int;
  aligns : align list;
  mutable lines : line list; (* reversed *)
}

let default_aligns n = List.init n (fun i -> if i = 0 then Left else Right)

let create ~headers =
  let arity = List.length headers in
  { headers; arity; aligns = default_aligns arity; lines = [] }

let add_row t cells =
  if List.length cells <> t.arity then
    invalid_arg "Table.add_row: arity mismatch";
  t.lines <- Row cells :: t.lines

let add_rule t = t.lines <- Rule :: t.lines

let rows t = List.rev t.lines

let widths t =
  let w = Array.of_list (List.map String.length t.headers) in
  let update = function
    | Rule -> ()
    | Row cells ->
      List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) cells
  in
  List.iter update (rows t);
  w

let pad align width s =
  let fill = width - String.length s in
  if fill <= 0 then s
  else
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s

let render t =
  let w = widths t in
  let aligns = Array.of_list t.aligns in
  let buf = Buffer.create 256 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun width ->
        Buffer.add_string buf (String.make (width + 2) '-');
        Buffer.add_char buf '+')
      w;
    Buffer.add_char buf '\n'
  in
  let row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad aligns.(i) w.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  rule ();
  row t.headers;
  rule ();
  List.iter (function Row cells -> row cells | Rule -> rule ()) (rows t);
  rule ();
  Buffer.contents buf

let render_markdown t =
  let w = widths t in
  let aligns = Array.of_list t.aligns in
  let buf = Buffer.create 256 in
  let row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad aligns.(i) w.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  row t.headers;
  Buffer.add_char buf '|';
  Array.iteri
    (fun i width ->
      let dashes = String.make (max 3 width) '-' in
      let cell =
        match aligns.(i) with Left -> dashes ^ " " | Right -> dashes ^ ":"
      in
      Buffer.add_char buf ' ';
      Buffer.add_string buf cell;
      Buffer.add_char buf '|')
    w;
  Buffer.add_char buf '\n';
  List.iter (function Row cells -> row cells | Rule -> ()) (rows t);
  Buffer.contents buf

let fmt_float ?(digits = 2) v = Printf.sprintf "%.*f" digits v

let fmt_time_s v =
  let abs = Float.abs v in
  if abs < 1e-3 then Printf.sprintf "%.1fus" (v *. 1e6)
  else if abs < 1.0 then Printf.sprintf "%.2fms" (v *. 1e3)
  else if abs < 120.0 then Printf.sprintf "%.2fs" v
  else if abs < 7200.0 then Printf.sprintf "%.1fmin" (v /. 60.0)
  else Printf.sprintf "%.2fh" (v /. 3600.0)

let fmt_sci v =
  if v = 0.0 then "0"
  else begin
    let e = int_of_float (Float.floor (Float.log10 (Float.abs v))) in
    let m = v /. (10.0 ** float_of_int e) in
    Printf.sprintf "%.2fe%d" m e
  end
