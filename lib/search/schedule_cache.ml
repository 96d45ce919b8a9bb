open Mcf_ir

let log_src = Logs.Src.create "mcfuser.cache" ~doc:"MCFuser schedule cache"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_hits = Mcf_obs.Metrics.counter "cache.hits"
let c_misses = Mcf_obs.Metrics.counter "cache.misses"

type entry = {
  echain : string;
  edevice : string;
  ecand : Candidate.t;
  etime_s : float;
}

type t = entry list

let empty = []

let key e = (e.echain, e.edevice)

(* The one replace path: keep the first (most recent) entry per
   (chain, device) key, preserving list order.  Both [add] and [load]
   funnel through it, so their latest-wins semantics cannot drift. *)
let dedup_keep_first entries =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun e ->
      let k = key e in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    entries

let add t e = dedup_keep_first (e :: t)

let size = List.length

(* The line format is [Candidate.serialize]'s — the same serialization
   the measurement cache keys on — and is backward-compatible: files
   written before the extraction parse unchanged. *)
let serialize_candidate = Candidate.serialize

let parse_candidate chain s =
  let ( let* ) r f = Result.bind r f in
  let axis_of name =
    match List.find_opt (fun (a : Axis.t) -> a.name = name) chain.Chain.axes with
    | Some a -> Ok a
    | None -> Error ("unknown axis " ^ name)
  in
  let axes_of csv =
    List.fold_right
      (fun name acc ->
        let* acc = acc in
        let* a = axis_of name in
        Ok (a :: acc))
      (String.split_on_char ',' csv)
      (Ok [])
  in
  match String.split_on_char ';' s with
  | [ tiling_s; tiles_s ] ->
    let* tiling =
      match String.index_opt tiling_s ':' with
      | None -> Error "missing tiling kind"
      | Some i -> (
        let kind = String.sub tiling_s 0 i in
        let rest =
          String.sub tiling_s (i + 1) (String.length tiling_s - i - 1)
        in
        match kind with
        | "deep" ->
          let* axes = axes_of rest in
          Ok (Tiling.Deep axes)
        | "flat" -> (
          match String.split_on_char '/' rest with
          | prefix :: groups when groups <> [] ->
            let* prefix = axes_of prefix in
            let* groups =
              List.fold_right
                (fun g acc ->
                  let* acc = acc in
                  let* g = if g = "" then Ok [] else axes_of g in
                  Ok (g :: acc))
                groups (Ok [])
            in
            Ok (Tiling.Flat (prefix, groups))
          | _ -> Error "malformed flat tiling")
        | other -> Error ("unknown tiling kind " ^ other))
    in
    let* tiles =
      List.fold_right
        (fun pair acc ->
          let* acc = acc in
          match String.split_on_char '=' pair with
          | [ name; v ] -> (
            match int_of_string_opt v with
            | Some v when v > 0 ->
              let* _ = axis_of name in
              Ok ((name, v) :: acc)
            | Some _ | None -> Error ("bad tile value " ^ pair))
          | _ -> Error ("bad tile pair " ^ pair))
        (String.split_on_char ',' tiles_s)
        (Ok [])
    in
    (* every chain axis must be bound *)
    if
      List.for_all
        (fun (a : Axis.t) -> List.mem_assoc a.name tiles)
        chain.Chain.axes
    then Ok (Candidate.make tiling tiles)
    else Error "tile vector does not cover every axis"
  | _ -> Error "malformed candidate record"

let lookup t ~chain ~device =
  List.find_opt
    (fun e -> e.echain = chain.Chain.cname && e.edevice = device)
    t

let save t path =
  Mcf_util.Json.write_atomic path (fun oc ->
      List.iter
        (fun e ->
          Printf.fprintf oc "%s|%s|%s|%.9e\n" e.echain e.edevice
            (serialize_candidate e.ecand)
            e.etime_s)
        (List.rev t))

let load ~chains path =
  (* Entries are collected newest-first and deduplicated through the
     same [dedup_keep_first] path as [add], so load keeps [add]'s
     semantics by construction: latest occurrence per key wins, entries
     ordered most-recently-seen first.  The line format is pipe-
     separated, not JSON, so this rides [fold_lines] (count-and-skip
     plus the shared "skipped N malformed lines" warning) rather than
     [fold_jsonl]. *)
  let entries, _skipped =
    Mcf_util.Json.fold_lines ~path ~init:[] ~f:(fun acc line ->
        match String.split_on_char '|' line with
        | [ echain; edevice; cand_s; time_s ] -> (
          match
            ( List.find_opt (fun (c : Chain.t) -> c.cname = echain) chains,
              float_of_string_opt time_s )
          with
          | Some chain, Some etime_s -> (
            match parse_candidate chain cand_s with
            | Ok ecand -> Some ({ echain; edevice; ecand; etime_s } :: acc)
            | Error _ -> None)
          | None, Some _ ->
            (* a record for a chain we were not asked about: well
               formed, just out of scope for this load *)
            Some acc
          | _, None -> None)
        | _ -> None)
  in
  dedup_keep_first entries

let tune_with_cache ~cache_file (spec : Mcf_gpu.Spec.t) chain =
  let module Trace = Mcf_obs.Trace in
  let cache =
    Trace.with_span "cache.load" (fun () -> load ~chains:[ chain ] cache_file)
  in
  match lookup cache ~chain ~device:spec.name with
  | Some entry ->
    Mcf_obs.Metrics.incr c_hits;
    Log.info (fun m ->
        m "hit: %s on %s -> %s" entry.echain entry.edevice
          (serialize_candidate entry.ecand));
    Ok (None, entry)
  | None -> (
    Mcf_obs.Metrics.incr c_misses;
    Log.info (fun m -> m "miss: %s on %s, tuning" chain.Chain.cname spec.name);
    match Tuner.tune spec chain with
    | Error e -> Error e
    | Ok outcome ->
      let entry =
        { echain = chain.Chain.cname;
          edevice = spec.name;
          ecand = outcome.best.cand;
          etime_s = outcome.kernel_time_s }
      in
      Trace.with_span "cache.save" (fun () ->
          save (add cache entry) cache_file);
      Ok (Some outcome, entry))
