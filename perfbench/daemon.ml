(* [mcfuser serve] daemons run as child processes of the benchmark, and
   the small HTTP/JSON helpers the load generator and the probes share. *)

module Json = Mcf_util.Json
module Client = Mcf_util.Httpd.Client

(* Built from source by run.py before the benchmark starts. *)
let exe = Filename.concat "_build" (Filename.concat "default" "bin/mcfuser_cli.exe")

type t = {
  pid : int;
  url : string;
}

(* Children not reaped yet; [kill_all] ends them on any exit path. *)
let live = ref []

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

let wait_for ~timeout_s f =
  let deadline = Common.now () +. timeout_s in
  let rec go () =
    match f () with
    | Some v -> Some v
    | None ->
      if Common.now () > deadline then None
      else begin
        Thread.delay 0.001;
        go ()
      end
  in
  go ()

(* Wait for the child [pid] to exit, stopping it after [timeout_s]; true
   on a clean exit. *)
let reap ~timeout_s pid =
  let deadline = Common.now () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Common.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        false
      end
      else begin
        Thread.delay 0.002;
        go ()
      end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> false
  in
  let ok = go () in
  live := List.filter (( <> ) pid) !live;
  ok

(* Stop and reap every daemon this process started. *)
let stop_all () = List.iter (fun pid -> ignore (reap ~timeout_s:0.0 pid)) !live

let launches = ref 0

(* Start a daemon on a kernel-assigned loopback port and return once
   [/readyz] answers: the daemon has warm-started its caches and is
   accepting requests. *)
let launch ~dir ~workers ~jobs ?schedule_cache () =
  incr launches;
  let port_file = Filename.concat dir (Printf.sprintf "url-%d.txt" !launches) in
  let log =
    Unix.openfile
      (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let args =
    [ exe; "serve"; "--listen"; "127.0.0.1:0"; "--workers";
      string_of_int workers; "--port-file"; port_file ]
    @ match schedule_cache with Some f -> [ "--schedule-cache"; f ] | None -> []
  in
  let env =
    Array.append
      [| Printf.sprintf "MCFUSER_JOBS=%d" jobs |]
      (Unix.environment ())
  in
  let pid =
    Unix.create_process_env exe (Array.of_list args) env Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let url =
    wait_for ~timeout_s:60.0 (fun () ->
        let s = read_file port_file in
        let n = String.length s in
        if n > 0 && s.[n - 1] = '\n' then Some (String.trim s) else None)
  in
  let ready url =
    wait_for ~timeout_s:30.0 (fun () ->
        match Client.get ~timeout_s:2.0 (url ^ "/readyz") with
        | Ok (200, _) -> Some ()
        | _ -> None)
  in
  match url with
  | Some url when ready url <> None -> Ok { pid; url }
  | _ ->
    ignore (reap ~timeout_s:0.0 pid);
    Error "mcfuser serve did not become ready"

(* Graceful drain over HTTP; true when the daemon exited 0. *)
let stop d =
  ignore (Client.post ~timeout_s:10.0 (d.url ^ "/shutdown") ~body:"{}");
  reap ~timeout_s:60.0 d.pid

let parse body =
  match Json.parse (String.trim body) with Ok j -> Some j | Error _ -> None

let jstr j k = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

(* The unlabelled samples of the daemon's Prometheus exposition, taken
   after a [GET /status] has forced a fresh resource sample. *)
let scrape d =
  ignore (Client.get ~timeout_s:10.0 (d.url ^ "/status"));
  match Client.get ~timeout_s:10.0 (d.url ^ "/metrics") with
  | Ok (200, text) ->
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; v ] when line.[0] <> '#' ->
          Option.map (fun f -> (name, f)) (float_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' text)
  | _ -> []

let sample samples name = Option.value ~default:0.0 (List.assoc_opt name samples)
