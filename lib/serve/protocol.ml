module Json = Mcf_util.Json

(* Wire format of the tuning service.  See protocol.mli for the
   contract and DESIGN.md for the JSON schema. *)

type tune_request = {
  workload : string;
  chain : Mcf_ir.Chain.t;
  spec : Mcf_gpu.Spec.t;
  seed : int option;
  reservoir : int option;
}

type sched = {
  cand : string;
  time_s : float;
  virtual_s : float;
  estimated : int;
  measured : int;
  generations : int;
}

(* --- workload resolution ---------------------------------------------- *)

let chain_of_workload name =
  let canon = String.lowercase_ascii name in
  let strip_prefix p s =
    let lp = String.length p in
    if String.length s > lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  let gemm =
    List.find_opt
      (fun (g : Mcf_workloads.Configs.gemm_config) ->
        String.lowercase_ascii g.gname = canon)
      Mcf_workloads.Configs.gemm_chains
  in
  match gemm with
  | Some g -> Ok (Mcf_workloads.Configs.gemm_chain g)
  | None -> (
    let attention =
      List.find_opt
        (fun (s : Mcf_workloads.Configs.attention_config) ->
          let network = String.lowercase_ascii s.network in
          String.lowercase_ascii s.sname = canon
          || network = canon
          ||
          match strip_prefix "mha-" canon with
          | Some suffix -> network = "bert-" ^ suffix
          | None -> false)
        Mcf_workloads.Configs.attentions
    in
    match attention with
    | Some s -> Ok (Mcf_workloads.Configs.attention s)
    | None -> (
      match Mcf_workloads.Configs.find_deep name with
      | Some d -> Ok (Mcf_workloads.Configs.deep_chain d)
      | None ->
        Error
          (Printf.sprintf
             "unknown workload %S (G1-G12, S1-S9, D5-D8, a network name like \
              bert-base, or mha-small/base/large)"
             name)))

(* --- request parsing --------------------------------------------------- *)

let jint j = match j with Json.Num n when Float.is_integer n -> Some (int_of_float n) | _ -> None

let field_int obj name ~default =
  match Json.member name obj with
  | None -> Ok default
  | Some j -> (
    match jint j with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Printf.sprintf "field %S must be a positive integer" name))

let chain_of_json j =
  match Json.member "kind" j with
  | Some (Json.Str kind) -> (
    let dims () =
      match
        ( field_int j "batch" ~default:1,
          field_int j "m" ~default:0,
          field_int j "n" ~default:0,
          field_int j "k" ~default:0,
          field_int j "h" ~default:0 )
      with
      | Ok batch, Ok m, Ok n, Ok k, Ok h ->
        if m <= 0 || n <= 0 || k <= 0 || h <= 0 then
          Error "chain dims m, n, k, h must all be positive integers"
        else Ok (batch, m, n, k, h)
      | (Error _ as e), _, _, _, _
      | _, (Error _ as e), _, _, _
      | _, _, (Error _ as e), _, _
      | _, _, _, (Error _ as e), _
      | _, _, _, _, (Error _ as e) -> e
    in
    match kind with
    | "gemm" -> (
      match dims () with
      | Error _ as e -> e
      | Ok (batch, m, n, k, h) ->
        Ok (Mcf_ir.Chain.gemm_chain ~batch ~m ~n ~k ~h ()))
    | "mlp" -> (
      match dims () with
      | Error _ as e -> e
      | Ok (batch, m, n, k, h) ->
        Ok (Mcf_ir.Chain.mlp_chain ~batch ~m ~n ~k ~h ()))
    | "attention" -> (
      match dims () with
      | Error _ as e -> e
      | Ok (heads, m, n, k, h) ->
        Ok (Mcf_ir.Chain.attention ~heads ~m ~n ~k ~h ()))
    | "gemm3" -> (
      match (dims (), field_int j "p" ~default:0) with
      | Error _ as e, _ -> e
      | _, Error _ -> Error "field \"p\" must be a positive integer"
      | Ok (batch, m, n, k, h), Ok p ->
        if p <= 0 then Error "chain kind \"gemm3\" requires a positive \"p\""
        else Ok (Mcf_ir.Chain.gemm_chain3 ~batch ~m ~n ~k ~h ~p ()))
    | other ->
      Error
        (Printf.sprintf
           "unknown chain kind %S (expected gemm, mlp, attention or gemm3)"
           other))
  | Some _ -> Error "chain field \"kind\" must be a string"
  | None -> Error "chain object is missing the \"kind\" field"

let parse_tune_request body =
  match Json.parse (String.trim body) with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok (Json.Obj _ as j) -> (
    let chain =
      match (Json.member "workload" j, Json.member "chain" j) with
      | Some (Json.Str _), Some _ | Some _, Some _ ->
        Error "give either \"workload\" or \"chain\", not both"
      | Some (Json.Str w), None -> (
        match chain_of_workload w with
        | Ok c -> Ok (w, c)
        | Error _ as e -> e)
      | Some _, None -> Error "field \"workload\" must be a string"
      | None, Some (Json.Obj _ as cj) -> (
        match chain_of_json cj with
        | Ok c -> Ok (c.Mcf_ir.Chain.cname, c)
        | Error _ as e -> e)
      | None, Some _ -> Error "field \"chain\" must be an object"
      | None, None -> Error "request needs a \"workload\" or \"chain\" field"
    in
    match chain with
    | Error _ as e -> e
    | Ok (workload, chain) -> (
      let device =
        match Json.member "device" j with
        | None -> Ok "A100"
        | Some (Json.Str d) -> Ok d
        | Some _ -> Error "field \"device\" must be a string"
      in
      match device with
      | Error _ as e -> e
      | Ok device -> (
        match Mcf_gpu.Spec.by_name device with
        | None ->
          Error
            (Printf.sprintf "unknown device %S (available: %s)" device
               (String.concat ", "
                  (List.map
                     (fun (s : Mcf_gpu.Spec.t) -> s.name)
                     Mcf_gpu.Spec.all)))
        | Some spec -> (
          (* A seed may be 0; a reservoir of 0 would be clamped to 1 by
             the enumeration, so one session would run under two keys. *)
          let opt_field name ~least ~what =
            match Json.member name j with
            | None -> Ok None
            | Some v -> (
              match jint v with
              | Some n when n >= least -> Ok (Some n)
              | _ ->
                Error
                  (Printf.sprintf "field %S must be a %s integer" name what))
          in
          match
            ( opt_field "seed" ~least:0 ~what:"non-negative",
              opt_field "reservoir" ~least:1 ~what:"positive" )
          with
          | Error _ as e, _ | _, (Error _ as e) -> e
          | Ok seed, Ok reservoir ->
            Ok { workload; chain; spec; seed; reservoir }))))
  | Ok _ -> Error "request body must be a JSON object"

(* --- coalescing key ---------------------------------------------------- *)

(* The chain fingerprint covers the chain name (which the tuner's default
   seed derives from), every axis and every tensor; the spec fingerprint
   covers every device field.  Two requests with equal keys therefore run
   the exact same deterministic tuning session. *)
let key (r : tune_request) =
  let fp s = Printf.sprintf "%Lx" (Mcf_util.Hashing.fnv1a64 s) in
  Printf.sprintf "%s|%s|%s|seed=%s|res=%s" r.spec.name
    (fp (Mcf_gpu.Spec.fingerprint r.spec))
    (Mcf_search.Measure.chain_fp r.chain)
    (match r.seed with Some s -> string_of_int s | None -> "auto")
    (match r.reservoir with Some n -> string_of_int n | None -> "none")

(* --- sched JSON -------------------------------------------------------- *)

let sched_fields (s : sched) =
  [ ("candidate", Json.Str s.cand);
    ("kernel_time_s", Json.Num s.time_s);
    ("tuning_virtual_s", Json.Num s.virtual_s);
    ("estimated", Json.num_of_int s.estimated);
    ("measured", Json.num_of_int s.measured);
    ("generations", Json.num_of_int s.generations) ]

let sched_json s = Json.Obj (sched_fields s)

let sched_of_json j =
  match
    ( Json.member "candidate" j,
      Json.member "kernel_time_s" j,
      Json.member "tuning_virtual_s" j,
      Json.member "estimated" j,
      Json.member "measured" j,
      Json.member "generations" j )
  with
  | ( Some (Json.Str cand),
      Some (Json.Num time_s),
      Some (Json.Num virtual_s),
      Some ej,
      Some mj,
      Some gj ) -> (
    match (jint ej, jint mj, jint gj) with
    | Some estimated, Some measured, Some generations ->
      Some { cand; time_s; virtual_s; estimated; measured; generations }
    | _ -> None)
  | _ -> None

let sched_of_outcome (o : Mcf_search.Tuner.outcome) =
  { cand = Mcf_ir.Candidate.serialize o.best.cand;
    time_s = o.kernel_time_s;
    virtual_s = o.tuning_virtual_s;
    estimated = o.search_stats.estimated;
    measured = o.search_stats.measured;
    generations = o.search_stats.generations }

(* --- schedule-cache file ----------------------------------------------- *)

let load_cache path =
  let entries, malformed =
    Json.fold_jsonl ~path ~init:[] ~f:(fun acc j ->
        match (Json.member "key" j, sched_of_json j) with
        | Some (Json.Str key), Some sched -> Some ((key, sched) :: acc)
        | _ -> None)
  in
  (List.rev entries, malformed)

let persist_cache path entries =
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  Json.write_atomic path (fun oc ->
      List.iter
        (fun (key, s) ->
          let line = Json.Obj (("key", Json.Str key) :: sched_fields s) in
          output_string oc (Json.to_string line);
          output_char oc '\n')
        entries);
  List.length entries

(* --- one tune ------------------------------------------------------------ *)

let c_hits = Mcf_obs.Metrics.counter "cache.hits"
let c_misses = Mcf_obs.Metrics.counter "cache.misses"

let tune ?cache_file ?measure (r : tune_request) =
  let fresh () =
    Result.map
      (fun o -> (sched_of_outcome o, Some o))
      (Mcf_search.Tuner.tune ?seed:r.seed ?reservoir:r.reservoir ?measure
         r.spec r.chain)
  in
  match cache_file with
  | None -> fresh ()
  | Some path -> (
    let module Trace = Mcf_obs.Trace in
    let entries, _ = Trace.with_span "cache.load" (fun () -> load_cache path) in
    let table = Hashtbl.of_seq (List.to_seq entries) in
    let key = key r in
    match Hashtbl.find_opt table key with
    | Some s ->
      Mcf_obs.Metrics.incr c_hits;
      Ok (s, None)
    | None ->
      Mcf_obs.Metrics.incr c_misses;
      let res = fresh () in
      Result.iter
        (fun (s, _) ->
          Hashtbl.replace table key s;
          Trace.with_span "cache.save" (fun () ->
              ignore (persist_cache path (List.of_seq (Hashtbl.to_seq table)))))
        res;
      res)
