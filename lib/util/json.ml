type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let num_of_int i = Num (float_of_int i)

(* --- printing -------------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf v =
  if Float.is_nan v || Float.abs v = infinity then
    (* JSON has no NaN/Infinity; clamp to null per common practice. *)
    Buffer.add_string buf "null"
  else if Float.is_integer v && Float.abs v < 9.007199254740992e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else begin
    (* shortest decimal that round-trips *)
    let s = Printf.sprintf "%.15g" v in
    let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
    Buffer.add_string buf s
  end

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> add_num buf v
    | Str s -> add_escaped buf s
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        vs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------------- *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         let c = s.[!pos] in
         advance ();
         match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           let cp = hex4 () in
           let cp =
             if cp >= 0xD800 && cp <= 0xDBFF then begin
               (* high surrogate: require a low surrogate *)
               if
                 !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
               then begin
                 advance ();
                 advance ();
                 let lo = hex4 () in
                 if lo < 0xDC00 || lo > 0xDFFF then
                   fail "invalid low surrogate";
                 0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
               end
               else fail "lone high surrogate"
             end
             else if cp >= 0xDC00 && cp <= 0xDFFF then
               fail "lone low surrogate"
             else cp
           in
           add_utf8 buf cp
         | _ -> fail "bad escape character");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    if peek () = Some '-' then advance ();
    (* strict JSON: no leading zeros — "0" alone or [1-9] then digits *)
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected digit");
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let pair () =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          (k, v)
        in
        let rec items acc =
          let kv = pair () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (items [])
      end
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | Null | Bool _ | Num _ | Str _ | List _ -> None

(* --- JSONL stores ----------------------------------------------------------- *)

let jsonl_src =
  Logs.Src.create "mcfuser.jsonl" ~doc:"Line-oriented store loading"

module Log = (val Logs.src_log jsonl_src : Logs.LOG)

let fold_jsonl ~path ~init ~f =
  if not (Sys.file_exists path) then (init, 0)
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let acc = ref init in
        let skipped = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Result.map (f !acc) (parse line) with
               | Ok (Some acc') -> acc := acc'
               | Ok None | Error _ -> incr skipped
           done
         with End_of_file -> ());
        if !skipped > 0 then
          Log.warn (fun m ->
              m "%s: skipped %d malformed line%s" path !skipped
                (if !skipped = 1 then "" else "s"));
        (!acc, !skipped))
  end

let write_atomic path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  try
    let r =
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let r = write oc in
          (* [close_out] flushes and reports a short write; the [finally]
             only covers the paths that never reach it. *)
          close_out oc;
          r)
    in
    Sys.rename tmp path;
    r
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
