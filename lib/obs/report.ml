module Json = Mcf_util.Json
module Table = Mcf_util.Table

(* --- JSON field helpers ------------------------------------------------- *)

let ev_name j =
  match Json.member "ev" j with Some (Json.Str s) -> s | _ -> ""

let jstr ?(default = "?") k j =
  match Json.member k j with Some (Json.Str s) -> s | _ -> default

let jnum k j =
  match Json.member k j with Some (Json.Num v) -> Some v | _ -> None

let jlist k j =
  match Json.member k j with Some (Json.List l) -> l | _ -> []

(* Funnel counts are integer-valued even when carried as floats
   (candidates_raw); print them exactly, not in rounded scientific
   notation, so the report reproduces the funnel bit-for-bit. *)
let fmt_count v =
  if Float.is_integer v && Float.abs v < 9e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let rec fmt_value = function
  | Json.Null -> "-"
  | Json.Bool b -> if b then "on" else "off"
  | Json.Num v -> fmt_count v
  | Json.Str s -> s
  | Json.List l -> String.concat "," (List.map fmt_value l)
  | Json.Obj kvs ->
    String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ fmt_value v) kvs)

let fmt_opt_time = function
  | Some t -> Table.fmt_time_s t
  | None -> "-"

(* --- one run ------------------------------------------------------------ *)

(* Split the stream into runs: each ["run"] header opens a new segment;
   events before the first header (a bare [Space.enumerate] call) form a
   headerless one. *)
let segments evs =
  List.fold_left
    (fun acc e ->
      match (ev_name e, acc) with
      | "run", _ -> [ e ] :: acc
      | _, [] -> [ [ e ] ]
      | _, seg :: rest -> (e :: seg) :: rest)
    [] evs
  |> List.rev_map List.rev

let find_ev name seg =
  List.find_opt (fun e -> ev_name e = name) seg

let last_ev name seg =
  List.fold_left (fun acc e -> if ev_name e = name then Some e else acc)
    None seg

let filter_ev name seg = List.filter (fun e -> ev_name e = name) seg

let funnel_rows funnel =
  let labels =
    [ ("tilings_raw", "tiling expressions (raw)");
      ("tilings_rule1", "after Rule 1 (dedup)");
      ("tilings_rule2", "after Rule 2 (residency)");
      ("candidates_raw", "candidates (raw)");
      ("candidates_rule3", "after Rule 3 (padding)");
      ("candidates_rule4", "after Rule 4 (shared memory)");
      ("candidates_valid", "valid (softmax legality)") ]
  in
  match funnel with
  | Json.Obj kvs ->
    List.map
      (fun (k, v) ->
        let label =
          match List.assoc_opt k labels with Some l -> l | None -> k
        in
        (label, fmt_value v))
      kvs
  | _ -> []

let pairs_of_events seg =
  List.filter_map
    (fun e ->
      match (jnum "est" e, jnum "time_s" e) with
      | Some est, Some meas ->
        Some { Fidelity.pcand = jstr "cand" e; pest = est; pmeas = meas }
      | _ -> None)
    (filter_ev "measure" seg)

let fidelity_of_run seg = Fidelity.of_pairs (pairs_of_events seg)

let render_run buf seg =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match find_ev "run" seg with
  | Some run ->
    add "# run\n";
    add "workload  %s on %s (seed %s, jobs %s)\n" (jstr "chain" run)
      (jstr "device" run)
      (fmt_value (Option.value ~default:Json.Null (Json.member "seed" run)))
      (fmt_value (Option.value ~default:Json.Null (Json.member "jobs" run)));
    (match Json.member "options" run with
    | Some o -> add "options   %s\n" (fmt_value o)
    | None -> ());
    (match Json.member "params" run with
    | Some p -> add "params    %s\n" (fmt_value p)
    | None -> ());
    add "\n"
  | None -> add "# run (no header recorded)\n\n");
  (match last_ev "space" seg with
  | Some space -> (
    match Json.member "funnel" space with
    | Some funnel ->
      add "# pruning funnel\n";
      let tbl = Table.create ~headers:[ "stage"; "count" ] in
      List.iter (fun (l, v) -> Table.add_row tbl [ l; v ]) (funnel_rows funnel);
      Buffer.add_string buf (Table.render tbl);
      add "\n"
    | None -> ())
  | None -> ());
  (match filter_ev "prune" seg with
  | [] -> ()
  | prunes ->
    add "# prune attribution\n";
    let tbl =
      Table.create ~headers:[ "rule"; "kind"; "kept"; "removed"; "exemplars" ]
    in
    List.iter
      (fun p ->
        let exemplars =
          jlist "exemplars" p |> List.map fmt_value
          |> Mcf_util.Listx.take 2 |> String.concat ", "
        in
        Table.add_row tbl
          [ jstr "stage" p;
            jstr "kind" p;
            fmt_value (Option.value ~default:Json.Null (Json.member "after" p));
            fmt_value
              (Option.value ~default:Json.Null (Json.member "removed" p));
            (if exemplars = "" then "-" else exemplars) ])
      prunes;
    Buffer.add_string buf (Table.render tbl);
    add "\n");
  (match filter_ev "generation" seg with
  | [] -> ()
  | gens ->
    add "# convergence\n";
    let mutations = filter_ev "mutation" seg in
    let mutation_for g =
      List.find_opt (fun m -> jnum "gen" m = Some g) mutations
    in
    let tbl =
      Table.create
        ~headers:
          [ "gen"; "population"; "est best"; "measured"; "round best";
            "best so far"; "mutated"; "plateaus" ]
    in
    List.iter
      (fun g ->
        let gen = Option.value ~default:0.0 (jnum "gen" g) in
        let mutated =
          match mutation_for gen with
          | Some m ->
            Printf.sprintf "%s/%s"
              (fmt_value
                 (Option.value ~default:Json.Null (Json.member "changed" m)))
              (fmt_value
                 (Option.value ~default:Json.Null (Json.member "proposed" m)))
          | None -> "-"
        in
        Table.add_row tbl
          [ fmt_count gen;
            fmt_value
              (Option.value ~default:Json.Null (Json.member "population" g));
            fmt_opt_time (jnum "est_best" g);
            fmt_value
              (Option.value ~default:Json.Null (Json.member "measured_new" g));
            fmt_opt_time (jnum "round_best_s" g);
            fmt_opt_time (jnum "best_time_s" g);
            mutated;
            fmt_value
              (Option.value ~default:Json.Null (Json.member "plateaus" g)) ])
      gens;
    Buffer.add_string buf (Table.render tbl);
    add "\n");
  let fid = fidelity_of_run seg in
  if fid.Fidelity.pairs > 0 then begin
    Fidelity.publish fid;
    add "# model fidelity (estimate vs measurement)\n";
    Buffer.add_string buf (Fidelity.render fid);
    add "\n"
  end;
  match last_ev "result" seg with
  | None -> ()
  | Some r ->
    add "# result\n";
    add "best      %s at %s\n" (jstr "best" r)
      (fmt_opt_time (jnum "kernel_time_s" r));
    add "search    %s generations, %s estimated, %s measured (virtual \
         tuning %s)\n"
      (fmt_value
         (Option.value ~default:Json.Null (Json.member "generations" r)))
      (fmt_value (Option.value ~default:Json.Null (Json.member "estimated" r)))
      (fmt_value (Option.value ~default:Json.Null (Json.member "measured" r)))
      (fmt_opt_time (jnum "tuning_virtual_s" r))

let render evs =
  match segments evs with
  | [] -> Error "empty recording"
  | segs ->
    let buf = Buffer.create 4096 in
    List.iteri
      (fun i seg ->
        if i > 0 then Buffer.add_string buf "\n";
        render_run buf seg)
      segs;
    Ok (Buffer.contents buf)

(* --- diff --------------------------------------------------------------- *)

type diff = {
  dreport : string;
  funnel_drift : bool;
  fidelity_drift : bool;
  regression : bool;
  wall_drift : bool;
}

let last_segment evs =
  match List.rev (segments evs) with [] -> None | seg :: _ -> Some seg

let funnel_fields seg =
  match last_ev "space" seg with
  | Some space -> (
    match Json.member "funnel" space with Some (Json.Obj kvs) -> kvs | _ -> [])
  | None -> []

let diff ?(tolerance = 0.05) a b =
  match (last_segment a, last_segment b) with
  | None, _ -> Error "recording A is empty"
  | _, None -> Error "recording B is empty"
  | Some sa, Some sb ->
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "# report diff\n";
    (* funnel *)
    let fa = funnel_fields sa and fb = funnel_fields sb in
    let keys =
      List.sort_uniq compare (List.map fst fa @ List.map fst fb)
    in
    let funnel_changes =
      List.filter_map
        (fun k ->
          let va = List.assoc_opt k fa and vb = List.assoc_opt k fb in
          if va = vb then None
          else
            Some
              (Printf.sprintf "%s %s -> %s" k
                 (fmt_value (Option.value ~default:Json.Null va))
                 (fmt_value (Option.value ~default:Json.Null vb))))
        keys
    in
    let funnel_drift = funnel_changes <> [] in
    if funnel_drift then
      add "funnel    DRIFT: %s\n" (String.concat ", " funnel_changes)
    else add "funnel    identical (%d counts)\n" (List.length keys);
    (* fidelity *)
    let fida = fidelity_of_run sa and fidb = fidelity_of_run sb in
    let near x y = Float.abs (x -. y) <= 1e-12 in
    let fidelity_drift =
      not
        (near fida.Fidelity.mape fidb.Fidelity.mape
        && near fida.rank_accuracy fidb.rank_accuracy
        && near fida.kendall_tau fidb.kendall_tau
        && fida.pairs = fidb.pairs)
    in
    add "fidelity  %sMAPE %.1f%% -> %.1f%%, tau %.3f -> %.3f, pairs %d -> %d\n"
      (if fidelity_drift then "DRIFT: " else "")
      fida.Fidelity.mape fidb.Fidelity.mape fida.kendall_tau
      fidb.kendall_tau fida.pairs fidb.pairs;
    (* best measured time *)
    let best seg =
      Option.bind (last_ev "result" seg) (jnum "kernel_time_s")
    in
    let regression =
      match (best sa, best sb) with
      | Some ta, Some tb ->
        let rel = (tb -. ta) /. ta in
        add "best      %s -> %s (%+.2f%%, tolerance %.1f%%)\n"
          (Table.fmt_time_s ta) (Table.fmt_time_s tb) (100.0 *. rel)
          (100.0 *. tolerance);
        rel > tolerance
      | ta, tb ->
        add "best      %s -> %s (no comparison)\n" (fmt_opt_time ta)
          (fmt_opt_time tb);
        false
    in
    (* resource telemetry from the [end] events, informational only: the
       peak heap is [Gc] [top_heap_words], which follows major-GC pacing
       rather than live data, and per-phase wall times carry wall-clock
       noise, so either would make a flaky CI signal.  Printed as
       relative changes, never absolutes, so a self-diff is byte-stable. *)
    let end_of seg = last_ev "end" seg in
    let heap seg = Option.bind (end_of seg) (jnum "peak_heap_words") in
    (match (heap sa, heap sb) with
    | Some ha, Some hb when ha > 0.0 ->
      add "peakheap  %+.2f%% (informational)\n" (100.0 *. (hb -. ha) /. ha)
    | _ ->
      add "peakheap  no comparison (recording predates resource telemetry)\n");
    let phase_walls seg =
      match Option.bind (end_of seg) (Json.member "phases") with
      | Some (Json.Obj kvs) ->
        List.filter_map
          (function k, Json.Num v -> Some (k, v) | _ -> None)
          kvs
      | _ -> []
    in
    let pa = phase_walls sa and pb = phase_walls sb in
    let wall_drift =
      match (pa, pb) with
      | [], _ | _, [] ->
        add "phases    no comparison (recording predates resource telemetry)\n";
        false
      | _ ->
        let changes =
          List.filter_map
            (fun (k, va) ->
              match List.assoc_opt k pb with
              | Some vb when va > 0.0 ->
                let rel = (vb -. va) /. va in
                Some (Printf.sprintf "%s %+.2f%%" k (100.0 *. rel), Float.abs rel > tolerance)
              | _ -> None)
            pa
        in
        add "phases    %s (informational)\n"
          (String.concat ", " (List.map fst changes));
        List.exists snd changes
    in
    if regression then
      add "verdict   FAIL: best measured time regressed beyond tolerance\n"
    else add "verdict   OK\n";
    Ok { dreport = Buffer.contents buf; funnel_drift; fidelity_drift;
         regression; wall_drift }
