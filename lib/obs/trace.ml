type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  name : string;
  path : string list;
  ts_us : float;
  dur_us : float;
  tid : int;
  args : (string * arg) list;
}

let recording = Atomic.make false
let t0 = Atomic.make 0.0
let lock = Mutex.create ()

(* Spans keep a start-order sequence number so that [events] stays in
   start order even when consecutive spans land on the same microsecond
   timestamp. *)
let seq = Atomic.make 0

let buffer : (int * event) list ref = ref []

(* Counter samples ("ph":"C" in the Chrome export) live in their own
   buffer: they carry no duration or ancestry, and interleaving them
   with spans at export time keeps the span path machinery untouched. *)
type counter_event = {
  kname : string;
  kts_us : float;
  ktid : int;
  kvalues : (string * float) list;
}

let counter_buffer : counter_event list ref = ref []

(* Innermost-first stack of enclosing span names, one per domain. *)
let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let now () = Unix.gettimeofday ()

let enabled () = Atomic.get recording

let active () = enabled () || Profile.enabled ()

let reset () =
  Mutex.lock lock;
  buffer := [];
  counter_buffer := [];
  Mutex.unlock lock

let start () =
  reset ();
  Atomic.set t0 (now ());
  Atomic.set recording true

let stop () = Atomic.set recording false

let events () =
  Mutex.lock lock;
  let es = !buffer in
  Mutex.unlock lock;
  List.sort
    (fun (sa, a) (sb, b) ->
      match Float.compare a.ts_us b.ts_us with
      | 0 -> Int.compare sa sb
      | c -> c)
    es
  |> List.map snd

let no_args () = []

(* Cross-domain span ancestry: a spawned domain starts with an empty
   DLS stack, which would make its spans new roots.  A pipeline stage
   (the streaming enumeration's generator) captures the caller's stack
   and re-seeds its own, so its spans nest where the work logically
   belongs. *)
let ancestry () = !(Domain.DLS.get stack_key)

let with_ancestry stack f =
  let r = Domain.DLS.get stack_key in
  let saved = !r in
  r := stack;
  Fun.protect ~finally:(fun () -> r := saved) f

let counter name values =
  if Atomic.get recording then begin
    let ev =
      { kname = name;
        kts_us = (now () -. Atomic.get t0) *. 1e6;
        ktid = (Domain.self () :> int);
        kvalues = values () }
    in
    Mutex.lock lock;
    counter_buffer := ev :: !counter_buffer;
    Mutex.unlock lock
  end

let counter_events () =
  Mutex.lock lock;
  let es = !counter_buffer in
  Mutex.unlock lock;
  List.sort (fun a b -> Float.compare a.kts_us b.kts_us) es

(* The full span machinery; only reached when [active ()]. *)
let record_span args name f =
  let stack = Domain.DLS.get stack_key in
  let path = List.rev (name :: !stack) in
  stack := name :: !stack;
  let my_seq = Atomic.fetch_and_add seq 1 in
  let begin_s = now () in
  let finish () =
    let dur_s = now () -. begin_s in
    stack := List.tl !stack;
    if Profile.enabled () then Profile.record ~path dur_s;
    if Atomic.get recording then begin
      let ev =
        { name;
          path;
          ts_us = (begin_s -. Atomic.get t0) *. 1e6;
          dur_us = dur_s *. 1e6;
          tid = (Domain.self () :> int);
          args = args () }
      in
      Mutex.lock lock;
      buffer := (my_seq, ev) :: !buffer;
      Mutex.unlock lock
    end;
    dur_s
  in
  let dur = ref 0.0 in
  let r = Fun.protect ~finally:(fun () -> dur := finish ()) f in
  (r, !dur)

let with_span ?(args = no_args) name f =
  if not (active ()) then f () else fst (record_span args name f)

let timed ?(args = no_args) name f =
  if not (active ()) then begin
    let begin_s = now () in
    let r = f () in
    (r, now () -. begin_s)
  end
  else record_span args name f

let observe_timed hist f =
  if not (active ()) then f ()
  else begin
    let begin_s = now () in
    let r = f () in
    Metrics.observe hist (now () -. begin_s);
    r
  end

(* --- export ---------------------------------------------------------------- *)

let json_of_arg = function
  | Str s -> Mcf_util.Json.Str s
  | Int i -> Mcf_util.Json.num_of_int i
  | Float v -> Mcf_util.Json.Num v
  | Bool b -> Mcf_util.Json.Bool b

let to_chrome_json () =
  let open Mcf_util.Json in
  let event_json e =
    let base =
      [ ("name", Str e.name);
        ("cat", Str "mcfuser");
        ("ph", Str "X");
        ("ts", Num e.ts_us);
        ("dur", Num e.dur_us);
        ("pid", num_of_int 1);
        ("tid", num_of_int e.tid) ]
    in
    let args =
      match e.args with
      | [] -> []
      | kvs -> [ ("args", Obj (List.map (fun (k, v) -> (k, json_of_arg v)) kvs)) ]
    in
    Obj (base @ args)
  in
  let counter_json (k : counter_event) =
    Obj
      [ ("name", Str k.kname);
        ("cat", Str "mcfuser");
        ("ph", Str "C");
        ("ts", Num k.kts_us);
        ("pid", num_of_int 1);
        ("tid", num_of_int k.ktid);
        ("args", Obj (List.map (fun (s, v) -> (s, Num v)) k.kvalues)) ]
  in
  Obj
    [ ("traceEvents",
       List
         (List.map event_json (events ())
         @ List.map counter_json (counter_events ())));
      ("displayTimeUnit", Str "ms") ]

let write path =
  let doc = Mcf_util.Json.to_string (to_chrome_json ()) in
  (* Parse the document back before writing, so a trace file is never
     unloadable. *)
  match Mcf_util.Json.parse doc with
  | Error e ->
    Error (Printf.sprintf "trace serialization produced invalid JSON (%s)" e)
  | Ok _ -> (
    match
      Mcf_util.Json.write_atomic path (fun oc ->
          output_string oc doc;
          output_char oc '\n')
    with
    | exception Sys_error e -> Error ("cannot write trace: " ^ e)
    | () -> Ok (List.length (events ())))
