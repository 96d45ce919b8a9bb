(* Live TTY status line + phase snapshot.  See progress.mli for the
   contract.

   All state sits behind one mutex; rendering is throttled so hot-path
   updates (per-generation) cost a clock read at most every 100ms.  The
   line is drawn on stderr ("\r" + clear-to-eol) so piping stdout is
   unaffected; [disable] erases it before normal output resumes.

   Two independent consumers share the recorded state: the TTY line
   ([enable]/[disable], draws) and the telemetry listener
   ([track]/[untrack], reads via [snapshot] — never draws).  When
   neither is on, every entry point is two atomic loads and nothing
   else, so the search hot path is unaffected by default. *)

let enabled_flag = Atomic.make false
let tracked_flag = Atomic.make false

type state = {
  mutable phase : string;
  mutable info : string;
  mutable gen : int;
  mutable max_gen : int;
  mutable measured : int;
  mutable started_s : float;
  mutable gen0_s : float;  (* start of the generation loop, for the ETA *)
  mutable last_render_s : float;
  mutable drawn : bool;
}

let st =
  { phase = "";
    info = "";
    gen = 0;
    max_gen = 0;
    measured = 0;
    started_s = 0.0;
    gen0_s = 0.0;
    last_render_s = 0.0;
    drawn = false }

let lock = Mutex.create ()
let min_render_gap_s = 0.1
let recording () = Atomic.get enabled_flag || Atomic.get tracked_flag

let render_line () =
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    (Printf.sprintf "mcfuser: %s"
       (if st.phase = "" then "starting" else st.phase));
  if st.info <> "" then Buffer.add_string buf (Printf.sprintf " | %s" st.info);
  if st.max_gen > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf " | gen %d/%d (%d measured" st.gen st.max_gen st.measured);
    (* ETA: average generation time extrapolated over the generations
       left; max_generations is an upper bound, so this is worst-case.
       [gen0_s] is stamped by the first generation update, so [gen - 1]
       generations have elapsed since. *)
    (if st.gen > 1 then begin
       let per_gen =
         (Unix.gettimeofday () -. st.gen0_s) /. float_of_int (st.gen - 1)
       in
       let eta = per_gen *. float_of_int (st.max_gen - st.gen) in
       Buffer.add_string buf (Printf.sprintf ", ETA %.1fs)" eta)
     end
     else Buffer.add_string buf ")")
  end;
  Buffer.add_string buf
    (Printf.sprintf " [%.1fs]" (Unix.gettimeofday () -. st.started_s));
  Buffer.contents buf

let draw ~force () =
  if Atomic.get enabled_flag then begin
    let t = Unix.gettimeofday () in
    if force || t -. st.last_render_s >= min_render_gap_s then begin
      st.last_render_s <- t;
      st.drawn <- true;
      Printf.eprintf "\r\027[K%s%!" (render_line ())
    end
  end

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset_state () =
  with_lock (fun () ->
      st.phase <- "";
      st.info <- "";
      st.gen <- 0;
      st.max_gen <- 0;
      st.measured <- 0;
      st.started_s <- Unix.gettimeofday ();
      st.gen0_s <- 0.0;
      st.last_render_s <- 0.0;
      st.drawn <- false)

let enable () =
  if not (Atomic.get enabled_flag) then begin
    if not (recording ()) then reset_state ();
    Atomic.set enabled_flag true
  end

let disable () =
  if Atomic.get enabled_flag then begin
    Atomic.set enabled_flag false;
    with_lock (fun () ->
        if st.drawn then begin
          st.drawn <- false;
          Printf.eprintf "\r\027[K%!"
        end)
  end

let track () =
  if not (Atomic.get tracked_flag) then begin
    if not (recording ()) then reset_state ();
    Atomic.set tracked_flag true
  end

let untrack () = Atomic.set tracked_flag false

let set_phase name =
  if recording () then
    with_lock (fun () ->
        st.phase <- name;
        st.info <- "";
        draw ~force:true ())

let set_info info =
  if recording () then
    with_lock (fun () ->
        st.info <- info;
        draw ~force:true ())

let generation ~gen ~max_gen ~measured =
  if recording () then
    with_lock (fun () ->
        if st.max_gen = 0 then st.gen0_s <- Unix.gettimeofday ();
        st.gen <- gen;
        st.max_gen <- max_gen;
        st.measured <- measured;
        draw ~force:false ())

type snapshot = {
  sphase : string;
  sinfo : string;
  sgen : int;
  smax_gen : int;
  smeasured : int;
  selapsed_s : float;
  seta_s : float option;
}

let snapshot () =
  with_lock (fun () ->
      let now = Unix.gettimeofday () in
      let eta_s =
        if st.max_gen > 0 && st.gen > 1 then begin
          let per_gen = (now -. st.gen0_s) /. float_of_int (st.gen - 1) in
          Some (per_gen *. float_of_int (st.max_gen - st.gen))
        end
        else None
      in
      { sphase = st.phase;
        sinfo = st.info;
        sgen = st.gen;
        smax_gen = st.max_gen;
        smeasured = st.measured;
        selapsed_s = (if st.started_s = 0.0 then 0.0 else now -. st.started_s);
        seta_s = eta_s })
