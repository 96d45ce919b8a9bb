module Json = Mcf_util.Json

(* Cross-run performance history.  See history.mli for the contract.

   The store is append-only JSONL: one self-describing object per line,
   so concurrent bench runs can append without coordination and a
   truncated tail costs exactly the damaged lines (count-and-skip on
   load, like Schedule_cache).  All analysis — trends, robust baseline,
   the regression gate — happens at read time over the full file. *)

type entry = {
  time : float;
  rev : string;
  device : string;
  workload : string;
  cores : int option;
  ocaml : string option;
  metrics : (string * float) list;
}

(* Direction of improvement, by metric name.  Throughputs are the only
   higher-is-better family; everything else (times, heap words) is
   lower-is-better. *)
let higher_is_better name =
  let suffix = "_per_s" in
  let n = String.length name and k = String.length suffix in
  n >= k && String.sub name (n - k) k = suffix

let to_json e =
  Json.Obj
    ([ ("time", Json.Num e.time);
       ("rev", Json.Str e.rev);
       ("device", Json.Str e.device);
       ("workload", Json.Str e.workload) ]
    @ Option.fold ~none:[] ~some:(fun c -> [ ("cores", Json.num_of_int c) ]) e.cores
    @ Option.fold ~none:[] ~some:(fun v -> [ ("ocaml", Json.Str v) ]) e.ocaml
    @ [ ("metrics",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) e.metrics)) ])

let str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
let num k j = match Json.member k j with Some (Json.Num v) -> Some v | _ -> None

(* The host fields came after the first rows: absent, they are [None]. *)
let cores_of j = Option.map int_of_float (num "cores" j)

let of_json j =
  match
    (num "time" j, str "rev" j, str "device" j, str "workload" j,
     Json.member "metrics" j)
  with
  | Some time, Some rev, Some device, Some workload, Some (Json.Obj ms) ->
    let metrics =
      List.filter_map
        (function k, Json.Num v -> Some (k, v) | _ -> None)
        ms
    in
    let cores = cores_of j and ocaml = str "ocaml" j in
    Some { time; rev; device; workload; cores; ocaml; metrics }
  | _ -> None

let append ~path e =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string (to_json e) ^ "\n"))

let load path =
  let rev_entries, skipped =
    Json.fold_jsonl ~path ~init:[] ~f:(fun acc j ->
        match of_json j with Some e -> Some (e :: acc) | None -> None)
  in
  (List.rev rev_entries, skipped)

let current_rev () =
  match Sys.getenv_opt "MCFUSER_GIT_REV" with
  | Some r when String.trim r <> "" -> String.trim r
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when String.trim line <> "" -> String.trim line
      | _ -> "unknown"
    with _ -> "unknown")

(* Convert one BENCH_search.json document into history entries, one per
   workload.  Per-jobs rows use the last (highest --jobs) measurement —
   that is the configuration the paper's speed claims are about. *)
let of_search_doc ?time ?rev doc =
  let time = match time with Some t -> t | None -> Unix.gettimeofday () in
  let rev = match rev with Some r -> r | None -> current_rev () in
  let device = Option.value (str "device" doc) ~default:"unknown" in
  let cores = cores_of doc and ocaml = str "ocaml" doc in
  let last = function [] -> None | l -> Some (List.nth l (List.length l - 1)) in
  match Json.member "workloads" doc with
  | Some (Json.List ws) ->
    List.filter_map
      (fun w ->
        match Json.member "name" w with
        | Some (Json.Str workload) ->
          let enum_row =
            match Json.member "enumerate" w with
            | Some (Json.List rows) -> last rows
            | _ -> None
          in
          let tune_row =
            match Json.member "tune" w with
            | Some (Json.List rows) -> last rows
            | _ -> None
          in
          let metric name = function
            | Some row -> (
              match num name row with Some v -> [ (name, v) ] | None -> [])
            | None -> []
          in
          let metrics =
            metric "points_per_s" enum_row
            @ (match tune_row with
              | Some row -> (
                match num "wall_s" row with
                | Some v -> [ ("tune_wall_s", v) ]
                | None -> [])
              | None -> [])
            @ metric "best_time_s" tune_row
            (* Measurement-engine rows carry a nested [measure] section;
               both arms are throughputs (higher is better). *)
            @ metric "measured_per_s" (Json.member "measure" w)
            @ metric "sequential_per_s" (Json.member "measure" w)
            @ metric "peak_heap_words" (Some w)
            @ metric "alloc_words_per_point" (Some w)
            @ metric "summaries_per_enumeration" (Some w)
          in
          if metrics = [] then None
          else Some { time; rev; device; workload; cores; ocaml; metrics }
        | _ -> None)
      ws
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Grouping                                                            *)

let group_key e = (e.device, e.workload)

(* Groups in first-appearance order; entries inside a group keep file
   order, so the last element is the newest run. *)
let groups entries =
  let order = ref [] in
  let tbl : (string * string, entry list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = group_key e in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := e :: !r
      | None ->
        order := k :: !order;
        Hashtbl.add tbl k (ref [ e ]))
    entries;
  List.rev_map
    (fun k -> (k, List.rev !(Hashtbl.find tbl k)))
    !order

(* Metric names within a group, in first-appearance order. *)
let metric_names group_entries =
  List.fold_left
    (fun acc e ->
      List.fold_left
        (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
        acc e.metrics)
    [] group_entries

let series name group_entries =
  List.filter_map (fun e -> List.assoc_opt name e.metrics) group_entries

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)

type verdict = {
  vdevice : string;
  vworkload : string;
  vmetric : string;
  latest : float;
  baseline_median : float;
  baseline_mad : float;
  threshold : float;
  n_baseline : int;
  regressed : bool;
}

let mad ~median:m xs = Mcf_util.Stats.median (List.map (fun x -> Float.abs (x -. m)) xs)

(* Each group's newest entry, its older entries (newest first), and those
   of them recorded on the same core count: timings from hosts with a
   different number of cores are no baseline.  Rows without [cores]
   match only each other. *)
let newest_and_peers entries =
  groups entries
  |> List.filter_map (fun (key, es) ->
         match List.rev es with
         | [] -> None
         | newest :: older ->
           Some
             (key, newest, older,
              List.filter (fun e -> e.cores = newest.cores) older))

let gate ?(window = 10) ?(tolerance = 0.05) entries =
  newest_and_peers entries
  |> List.concat_map (fun ((device, workload), newest, _, peers) ->
         match peers with
         | [] -> [] (* no baseline: the gate passes trivially *)
         | _ ->
           (* [peers] is newest-first; the trailing window is its prefix. *)
           let baseline_entries = List.filteri (fun i _ -> i < window) peers in
           List.filter_map
             (fun (name, latest) ->
               let base = series name baseline_entries in
               match base with
               | [] -> None (* metric is new in this run: nothing to gate *)
               | _ ->
                 let m = Mcf_util.Stats.median base in
                 let d = mad ~median:m base in
                 (* Robust band: tolerance floor keeps MAD=0 windows
                    (identical repeated runs) from tripping on any
                    change at all; 3*MAD widens it for noisy metrics. *)
                 let band = Float.max (tolerance *. Float.abs m) (3.0 *. d) in
                 let threshold, regressed =
                   if higher_is_better name then (m -. band, latest < m -. band)
                   else (m +. band, latest > m +. band)
                 in
                 Some
                   { vdevice = device;
                     vworkload = workload;
                     vmetric = name;
                     latest;
                     baseline_median = m;
                     baseline_mad = d;
                     threshold;
                     n_baseline = List.length base;
                     regressed;
                   })
             newest.metrics)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let fmt_val v = Printf.sprintf "%.6g" v

let render ?workload entries =
  let buf = Buffer.create 1024 in
  let selected =
    match workload with
    | None -> entries
    | Some w -> List.filter (fun e -> e.workload = w) entries
  in
  let gs = groups selected in
  if gs = [] then Buffer.add_string buf "perf: no history entries\n"
  else
    List.iteri
      (fun gi ((device, wl), es) ->
        if gi > 0 then Buffer.add_char buf '\n';
        let n = List.length es in
        let newest = List.nth es (n - 1) in
        let host =
          Option.fold ~none:"" ~some:(Printf.sprintf ", cores %d") newest.cores
          ^ Option.fold ~none:"" ~some:(( ^ ) ", OCaml ") newest.ocaml
        in
        Buffer.add_string buf
          (Printf.sprintf "== %s/%s (%d run%s, latest rev %s%s) ==\n" device wl
             n
             (if n = 1 then "" else "s")
             newest.rev host);
        Buffer.add_string buf
          (Printf.sprintf "  %-20s %12s %9s  %s\n" "metric" "latest" "delta"
             "trend");
        List.iter
          (fun name ->
            let xs = series name es in
            match List.rev xs with
            | [] -> ()
            | latest :: _ ->
              let first = List.hd xs in
              let delta =
                if Float.abs first > 0.0 then
                  (latest -. first) /. Float.abs first *. 100.0
                else 0.0
              in
              Buffer.add_string buf
                (Printf.sprintf "  %-20s %12s %+8.2f%%  %s\n" name
                   (fmt_val latest) delta
                   (Mcf_util.Chart.sparkline xs)))
          (metric_names es))
      gs;
  Buffer.contents buf

let render_gate ~tolerance entries verdicts =
  let buf = Buffer.create 512 in
  List.iter
    (fun ((device, workload), newest, older, peers) ->
      if older <> [] && peers = [] then
        Buffer.add_string buf
          (Printf.sprintf
             "skip %s/%s: no baseline %s (%d older run%s on other core counts)\n"
             device workload
             (match newest.cores with
             | Some c -> Printf.sprintf "with cores %d" c
             | None -> "without a recorded core count")
             (List.length older)
             (if List.length older = 1 then "" else "s")))
    (newest_and_peers entries);
  if verdicts = [] then
    Buffer.add_string buf
      "perf gate: no baseline (fewer than two runs per workload) — pass\n"
  else begin
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf "%-4s %s/%s %s: latest %s vs median %s (mad %s, %s %s)\n"
             (if v.regressed then "FAIL" else "ok")
             v.vdevice v.vworkload v.vmetric (fmt_val v.latest)
             (fmt_val v.baseline_median) (fmt_val v.baseline_mad)
             (if higher_is_better v.vmetric then "floor" else "ceiling")
             (fmt_val v.threshold)))
      verdicts;
    let failed = List.length (List.filter (fun v -> v.regressed) verdicts) in
    Buffer.add_string buf
      (Printf.sprintf "perf gate: %d metric%s checked, %d regression%s (tolerance %.0f%%)\n"
         (List.length verdicts)
         (if List.length verdicts = 1 then "" else "s")
         failed
         (if failed = 1 then "" else "s")
         (tolerance *. 100.0))
  end;
  Buffer.contents buf
