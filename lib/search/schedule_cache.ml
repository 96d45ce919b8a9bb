open Mcf_ir

type entry = {
  echain : string;
  edevice : string;
  ecand : Candidate.t;
  etime_s : float;
}

type t = entry list

let empty = []

let key e = (e.echain, e.edevice)

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

let lookup t ~chain ~device =
  List.find_opt
    (fun e -> e.echain = chain.Chain.cname && e.edevice = device)
    t
