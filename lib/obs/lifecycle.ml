type config = {
  trace : string option;
  record : string option;
  metrics : string option;
  profile : bool;
  sample_ms : float option;
  progress : bool;
  listen : string option;
  listen_selfcheck : bool;
}

let off =
  { trace = None;
    record = None;
    metrics = None;
    profile = false;
    sample_ms = None;
    progress = false;
    listen = None;
    listen_selfcheck = false }

(* Stop a buffer, write it to [path] if one was asked for, and report
   the count on stderr. *)
let write_buffer ~what ~unit stop write = function
  | None -> Ok ()
  | Some path ->
    stop ();
    Result.map
      (fun n -> Printf.eprintf "%s: wrote %s (%d %s)\n%!" what path n unit)
      (write path)

let run c body =
  if c.profile then Profile.enable ();
  if c.trace <> None then Trace.start ();
  if c.record <> None then Recorder.start ();
  Option.iter (fun ms -> Resource.start ~period_s:(ms *. 1e-3)) c.sample_ms;
  if c.progress && Unix.isatty Unix.stdout then Progress.enable ();
  let listener =
    match c.listen with
    | None -> Ok None
    | Some listen -> (
      match Export.serve ~listen with
      | Error e -> Error ("--listen: " ^ e)
      | Ok t ->
        Printf.eprintf
          "telemetry: listening on %s/ (metrics, status, healthz)\n%!"
          (Mcf_util.Httpd.url t);
        Ok (Some t))
  in
  match listener with
  | Error _ as e ->
    Progress.disable ();
    Resource.stop ();
    e
  | Ok listener ->
    let result = body () in
    (* Probe the live listener before tearing it down: the selfcheck
       exercises the same socket path an external curl would. *)
    let selfcheck =
      match listener with
      | Some t when c.listen_selfcheck -> (
        match Export.selfcheck t with
        | Ok () ->
          Printf.eprintf "telemetry: selfcheck ok (metrics, status, healthz)\n%!";
          Ok ()
        | Error e -> Error ("telemetry selfcheck: " ^ e))
      | Some _ | None -> Ok ()
    in
    Option.iter Export.shutdown listener;
    Progress.disable ();
    (* Stop the sampler before the trace flushes: the closing sample still
       lands in the counter-event buffer. *)
    Resource.stop ();
    let trace =
      write_buffer ~what:"trace" ~unit:"spans" Trace.stop Trace.write c.trace
    in
    let record =
      write_buffer ~what:"record" ~unit:"events" Recorder.stop Recorder.write
        c.record
    in
    let metrics =
      match c.metrics with None -> Ok () | Some path -> Export.write_metrics path
    in
    if c.profile then begin
      Resource.sync_pool ();
      Printf.printf "\n# per-phase wall-clock\n";
      print_string (Profile.render ());
      Printf.printf "\n# metrics\n";
      print_string (Metrics.render_table ())
    end;
    List.fold_left
      (fun acc r -> Result.bind acc (fun v -> Result.map (fun () -> v) r))
      result
      [ trace; record; metrics; selfcheck ]
