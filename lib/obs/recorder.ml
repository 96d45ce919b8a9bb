module Json = Mcf_util.Json

let enabled_flag = Atomic.make false

(* The buffer is mutex-guarded for safety, but every pipeline emission
   site runs in sequential code (parallel stages join before their
   events are built), which is what makes recordings deterministic. *)
let lock = Mutex.create ()
let buffer : Json.t list ref = ref []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let start () =
  with_lock (fun () -> buffer := []);
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

let reset () =
  Atomic.set enabled_flag false;
  with_lock (fun () -> buffer := [])

let emit ev fields =
  if Atomic.get enabled_flag then begin
    let e = Json.Obj (("ev", Json.Str ev) :: fields ()) in
    with_lock (fun () -> buffer := e :: !buffer)
  end

let now () = Unix.gettimeofday ()
let events () = with_lock (fun () -> List.rev !buffer)

let clock_fields = [ "time"; "wall_s"; "phases"; "peak_heap_words" ]

let strip_clock = function
  | Json.Obj kvs ->
    Json.Obj (List.filter (fun (k, _) -> not (List.mem k clock_fields)) kvs)
  | j -> j

let write path =
  let evs = events () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string e);
      Buffer.add_char buf '\n')
    evs;
  match Json.write_atomic path (fun oc -> Buffer.output_buffer oc buf) with
  | exception Sys_error e -> Error ("cannot write recording: " ^ e)
  | () -> Ok (List.length evs)

let load path =
  match open_in path with
  | exception Sys_error e -> Error ("cannot read recording: " ^ e)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go (lineno + 1) acc
          | line -> (
            match Json.parse line with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error e ->
              Error (Printf.sprintf "%s:%d: %s" path lineno e))
        in
        go 1 [])
