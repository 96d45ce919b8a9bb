module Json = Mcf_util.Json
module Httpd = Mcf_util.Httpd

(* Live telemetry surface.  See export.mli for the contract.

   Exposition names map 1:1 onto registry names (no [_total] suffix is
   appended to counters) so an operator can correlate a Prometheus
   series with `--metrics` dumps and `mcfuser report` output without a
   translation table. *)

(* --- Prometheus text exposition ------------------------------------------- *)

let sanitize_name name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "mcfuser_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Prometheus value syntax is Go's strconv: [+Inf]/[-Inf]/[NaN], and
   plain decimals otherwise (shortest round-trip, integers undotted). *)
let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 9.007199254740992e15 then
    Printf.sprintf "%.0f" v
  else begin
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  end

let render_labels = function
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           kvs)
    ^ "}"

let metrics_text ?(labels = []) ?(filter = fun _ -> true) () =
  let buf = Buffer.create 4096 in
  let sample name extra v =
    Buffer.add_string buf name;
    Buffer.add_string buf (render_labels (labels @ extra));
    Buffer.add_char buf ' ';
    Buffer.add_string buf (fmt_value v);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (raw_name, item) ->
      if filter raw_name then begin
        let name = sanitize_name raw_name in
        match (item : Metrics.snapshot_item) with
        | Metrics.Scounter v ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
          sample name [] (float_of_int v)
        | Metrics.Sgauge v ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
          sample name [] v
        | Metrics.Shist s ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
          (* hbuckets are the non-empty per-bucket counts, ascending;
             Prometheus wants cumulative counts and a mandatory +Inf
             bucket (cumulative = hcount since every observation lands
             in some bucket). *)
          let cum = ref 0 in
          let saw_inf = ref false in
          List.iter
            (fun (bound, c) ->
              cum := !cum + c;
              if bound = infinity then saw_inf := true;
              sample (name ^ "_bucket")
                [ ("le", fmt_value bound) ]
                (float_of_int !cum))
            s.Metrics.hbuckets;
          if not !saw_inf then
            sample (name ^ "_bucket") [ ("le", "+Inf") ]
              (float_of_int s.Metrics.hcount);
          sample (name ^ "_sum") [] s.Metrics.hsum;
          sample (name ^ "_count") [] (float_of_int s.Metrics.hcount)
      end)
    (Metrics.snapshot ());
  Buffer.contents buf

let write_metrics path =
  Resource.sync_pool ();
  let doc = Json.to_string (Metrics.to_json ()) in
  match
    Json.write_atomic path (fun oc ->
        output_string oc doc;
        output_char oc '\n')
  with
  | exception Sys_error e -> Error ("cannot write metrics: " ^ e)
  | () -> Ok ()

(* --- /status --------------------------------------------------------------- *)

let status_json () =
  (* Force a sample so the rsrc.* and pool.* gauges are fresh even when
     the periodic sampler never started. *)
  Resource.sample_now ();
  let snap = Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Metrics.Scounter v) -> v
    | _ -> 0
  in
  let gauge name =
    match List.assoc_opt name snap with
    | Some (Metrics.Sgauge v) -> v
    | _ -> 0.0
  in
  let p = Progress.snapshot () in
  Json.Obj
    [ ("phase", Json.Str p.Progress.sphase);
      ("info", Json.Str p.Progress.sinfo);
      ( "generation",
        Json.Obj
          [ ("gen", Json.num_of_int p.Progress.sgen);
            ("max_gen", Json.num_of_int p.Progress.smax_gen);
            ("measured", Json.num_of_int p.Progress.smeasured);
            ( "eta_s",
              match p.Progress.seta_s with
              | Some e -> Json.Num e
              | None -> Json.Null );
          ] );
      ("elapsed_s", Json.Num p.Progress.selapsed_s);
      ( "funnel",
        Json.Obj
          [ ("enumerations", Json.num_of_int (counter "space.enumerations"));
            ("tilings_raw", Json.num_of_int (counter "space.tilings_raw"));
            ( "candidates_lowered",
              Json.num_of_int (counter "space.candidates_lowered") );
            ("pruned_rule1", Json.num_of_int (counter "space.pruned_rule1"));
            ("pruned_rule2", Json.num_of_int (counter "space.pruned_rule2"));
            ("pruned_rule4", Json.num_of_int (counter "space.pruned_rule4"));
            ("pruned_invalid", Json.num_of_int (counter "space.pruned_invalid"));
            ( "candidates_valid",
              Json.num_of_int (counter "space.candidates_valid") );
            ("estimated", Json.num_of_int (counter "explore.estimated"));
            ("measured", Json.num_of_int (counter "explore.measured"));
            ("generations", Json.num_of_int (counter "explore.generations"));
          ] );
      ( "rsrc",
        Json.Obj
          [ ("heap_words", Json.Num (gauge "rsrc.heap_words"));
            ("heap_words_peak", Json.Num (gauge "rsrc.heap_words_peak"));
            ("minor_collections", Json.Num (gauge "rsrc.minor_collections"));
            ("major_collections", Json.Num (gauge "rsrc.major_collections"));
            ("promoted_words", Json.Num (gauge "rsrc.promoted_words"));
            ("alloc_words_per_s", Json.Num (gauge "rsrc.alloc_words_per_s"));
            ("samples", Json.num_of_int (counter "rsrc.samples"));
          ] );
      ( "pool",
        Json.Obj
          [ ("domains", Json.Num (gauge "pool.domains"));
            ("busy", Json.Num (gauge "pool.busy"));
            ("utilization", Json.Num (gauge "pool.utilization"));
            ("jobs", Json.Num (gauge "pool.jobs"));
            ("chunks", Json.Num (gauge "pool.chunks"));
          ] );
      ( "caches",
        Json.Obj
          [ ( "schedule",
              Json.Obj
                [ ("hits", Json.num_of_int (counter "cache.hits"));
                  ("misses", Json.num_of_int (counter "cache.misses"));
                ] );
            ( "measure",
              Json.Obj
                [ ("hits", Json.num_of_int (counter "measure.cache.hits"));
                  ("misses", Json.num_of_int (counter "measure.cache.misses"));
                ] );
            ( "model_memo",
              Json.Obj
                [ ("hits", Json.num_of_int (counter "model.memo.hits"));
                  ("misses", Json.num_of_int (counter "model.memo.misses"));
                ] );
          ] );
      ( "server",
        Json.Obj
          [ ("time", Json.Num (Unix.gettimeofday ()));
            ("pid", Json.num_of_int (Unix.getpid ()));
          ] );
    ]

(* --- routing ---------------------------------------------------------------- *)

let index_body =
  "mcfuser telemetry\n\n\
   /metrics  Prometheus text exposition of the metrics registry\n\
   /status   JSON snapshot: phase, funnel, resources, caches\n\
   /healthz  liveness probe\n\
   /readyz   readiness probe\n"

let handler (req : Httpd.request) =
  if req.meth <> "GET" then
    Httpd.response ~status:405 "method not allowed\n"
  else
    match req.path with
    | "/metrics" ->
      Httpd.response
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (metrics_text ())
    | "/status" ->
      Httpd.response ~content_type:"application/json"
        (Json.to_string (status_json ()) ^ "\n")
    | "/healthz" -> Httpd.response "ok\n"
    | "/readyz" -> Httpd.response "ready\n"
    | "/" -> Httpd.response index_body
    | _ -> Httpd.response ~status:404 "not found\n"

(* --- lifecycle -------------------------------------------------------------- *)

let parse_listen listen =
  match String.rindex_opt listen ':' with
  | Some i ->
    let addr = String.sub listen 0 i in
    let addr = if addr = "" then "127.0.0.1" else addr in
    let port_s = String.sub listen (i + 1) (String.length listen - i - 1) in
    (match int_of_string_opt port_s with
    | Some p when p >= 0 && p < 65536 -> Ok (addr, p)
    | Some _ | None ->
      Error (Printf.sprintf "invalid --listen port in %S" listen))
  | None -> (
    match int_of_string_opt listen with
    | Some p when p >= 0 && p < 65536 -> Ok ("127.0.0.1", p)
    | Some _ | None ->
      Error
        (Printf.sprintf "invalid --listen %S (expected ADDR:PORT or PORT)"
           listen))

let serve ~listen =
  match parse_listen listen with
  | Error _ as e -> e
  | Ok (addr, port) -> (
    match Httpd.start ~addr ~port ~handler () with
    | Error _ as e -> e
    | Ok t ->
      Progress.track ();
      Ok t)

let shutdown t =
  Httpd.stop t;
  Progress.untrack ()

(* --- exposition validation -------------------------------------------------- *)

(* One [name{labels} value] sample line.  Hand-rolled because label
   values may contain escaped quotes; no regex library in tree. *)
let parse_sample_line line =
  let n = String.length line in
  let is_name_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  if !i = 0 then Error "sample line does not start with a metric name"
  else begin
    let name = String.sub line 0 !i in
    let labels = ref [] in
    let ok = ref true in
    let err = ref "" in
    let fail msg =
      ok := false;
      err := msg
    in
    (if !i < n && line.[!i] = '{' then begin
       incr i;
       let rec pairs () =
         if !i < n && line.[!i] = '}' then incr i
         else begin
           let k0 = !i in
           while !i < n && is_name_char line.[!i] do
             incr i
           done;
           if !i = k0 then fail "empty label name"
           else begin
             let key = String.sub line k0 (!i - k0) in
             if !i + 1 >= n || line.[!i] <> '=' || line.[!i + 1] <> '"' then
               fail "expected =\" after label name"
             else begin
               i := !i + 2;
               let buf = Buffer.create 16 in
               let rec value () =
                 if !i >= n then fail "unterminated label value"
                 else
                   match line.[!i] with
                   | '"' -> incr i
                   | '\\' ->
                     if !i + 1 >= n then fail "unterminated escape"
                     else begin
                       (match line.[!i + 1] with
                       | '\\' -> Buffer.add_char buf '\\'
                       | '"' -> Buffer.add_char buf '"'
                       | 'n' -> Buffer.add_char buf '\n'
                       | c -> Buffer.add_char buf c);
                       i := !i + 2;
                       value ()
                     end
                   | c ->
                     Buffer.add_char buf c;
                     incr i;
                     value ()
               in
               value ();
               if !ok then begin
                 labels := (key, Buffer.contents buf) :: !labels;
                 if !i < n && line.[!i] = ',' then begin
                   incr i;
                   pairs ()
                 end
                 else if !i < n && line.[!i] = '}' then incr i
                 else fail "expected ',' or '}' after label value"
               end
             end
           end
         end
       in
       pairs ()
     end);
    if not !ok then Error !err
    else begin
      let rest = String.trim (String.sub line !i (n - !i)) in
      (* value [timestamp] — we never emit timestamps but tolerate one *)
      let value_s =
        match String.index_opt rest ' ' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      match float_of_string_opt value_s with
      | Some v -> Ok (name, List.rev !labels, v)
      | None -> Error (Printf.sprintf "malformed sample value %S" value_s)
    end
  end

let chop_suffix name suffix =
  let n = String.length name and k = String.length suffix in
  if n > k && String.sub name (n - k) k = suffix then
    Some (String.sub name 0 (n - k))
  else None

let validate_metrics_text text =
  let lines = String.split_on_char '\n' text in
  (* base histogram name -> (le, cumulative) list in file order *)
  let buckets : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let sums : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let error = ref None in
  (* lineno 0 marks a structural (whole-series) failure with no single
     offending line *)
  let fail lineno msg =
    if !error = None then
      error :=
        Some
          (if lineno = 0 then msg else Printf.sprintf "line %d: %s" lineno msg)
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      if line <> "" && line.[0] <> '#' then
        match parse_sample_line line with
        | Error msg -> fail lineno msg
        | Ok (name, labels, v) -> (
          match chop_suffix name "_bucket" with
          | Some base -> (
            match List.assoc_opt "le" labels with
            | None -> fail lineno "histogram _bucket sample without le label"
            | Some le_s -> (
              match float_of_string_opt le_s with
              | None -> fail lineno (Printf.sprintf "bad le bound %S" le_s)
              | Some le ->
                let r =
                  match Hashtbl.find_opt buckets base with
                  | Some r -> r
                  | None ->
                    let r = ref [] in
                    Hashtbl.add buckets base r;
                    r
                in
                r := (le, v) :: !r))
          | None -> (
            match chop_suffix name "_sum" with
            | Some base when Hashtbl.mem buckets base ->
              Hashtbl.replace sums base v
            | _ -> (
              match chop_suffix name "_count" with
              | Some base when Hashtbl.mem buckets base ->
                Hashtbl.replace counts base v
              | _ -> ())))
      else if line <> "" then begin
        (* comment lines: only # TYPE / # HELP / # EOF style accepted *)
        if String.length line < 2 || line.[1] <> ' ' then
          fail lineno "malformed comment line"
      end)
    lines;
  (match !error with
  | Some _ -> ()
  | None ->
    Hashtbl.iter
      (fun base r ->
        let bs = List.rev !r in
        let rec check prev_le prev_cum = function
          | [] -> ()
          | (le, cum) :: rest ->
            if le <= prev_le then
              fail 0
                (Printf.sprintf "%s: le bounds not ascending (%s after %s)"
                   base (fmt_value le) (fmt_value prev_le));
            if cum < prev_cum then
              fail 0
                (Printf.sprintf "%s: cumulative bucket counts decrease" base);
            check le cum rest
        in
        check neg_infinity 0.0 bs;
        (match List.rev bs with
        | (le, inf_cum) :: _ ->
          if le <> infinity then
            fail 0 (Printf.sprintf "%s: missing le=\"+Inf\" bucket" base);
          (match Hashtbl.find_opt counts base with
          | Some c when c <> inf_cum ->
            fail 0
              (Printf.sprintf "%s: _count (%s) <> +Inf cumulative (%s)" base
                 (fmt_value c) (fmt_value inf_cum))
          | Some _ -> ()
          | None -> fail 0 (Printf.sprintf "%s: missing _count sample" base))
        | [] -> fail 0 (Printf.sprintf "%s: no buckets" base));
        if not (Hashtbl.mem sums base) then
          fail 0 (Printf.sprintf "%s: missing _sum sample" base))
      buckets);
  match !error with Some msg -> Error msg | None -> Ok ()

(* --- selfcheck -------------------------------------------------------------- *)

let selfcheck_url url =
  let get path =
    match Httpd.Client.get (url ^ path) with
    | Ok (200, body) -> Ok body
    | Ok (status, _) ->
      Error (Printf.sprintf "GET %s: unexpected status %d" path status)
    | Error msg -> Error (Printf.sprintf "GET %s: %s" path msg)
  in
  match get "/healthz" with
  | Error _ as e -> e
  | Ok _ -> (
    match get "/status" with
    | Error _ as e -> e
    | Ok body -> (
      match Json.parse (String.trim body) with
      | Error msg -> Error (Printf.sprintf "/status: invalid JSON: %s" msg)
      | Ok j when Json.member "phase" j = None ->
        Error "/status: missing \"phase\" field"
      | Ok _ -> (
        match get "/metrics" with
        | Error _ as e -> e
        | Ok body -> (
          match validate_metrics_text body with
          | Error msg -> Error (Printf.sprintf "/metrics: %s" msg)
          | Ok () -> Ok ()))))

let selfcheck t = selfcheck_url (Httpd.url t)
