(* One tuning session: the unit of coalescing.  All jobs whose request
   derives the same Protocol.key attach to one session, which runs
   Protocol.tune (the CLI's tune path, without a cache file) exactly
   once.  State transitions are guarded by the owning server's lock;
   [run] itself executes outside it. *)

type state =
  | Queued
  | Running
  | Done of Protocol.sched
  | Failed of string

type t = {
  skey : string;
  sreq : Protocol.tune_request;
  mutable sstate : state;
  mutable sjobs : string list;  (* attached job ids, newest first *)
}

let make ~key ~req ~job = { skey = key; sreq = req; sstate = Queued; sjobs = [ job ] }

let attach t job = t.sjobs <- job :: t.sjobs

let run ?measure t =
  let req = t.sreq in
  match Protocol.tune ?measure req with
  | Ok (sched, _) -> Ok sched
  | Error Mcf_search.Tuner.No_viable_candidate ->
    Error
      (Printf.sprintf "no viable candidate for %s on %s" req.workload
         req.spec.name)
  | exception e ->
    Error (Printf.sprintf "tuner exception: %s" (Printexc.to_string e))
