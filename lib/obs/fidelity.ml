module Json = Mcf_util.Json

type pair = {
  pcand : string;
  pest : float;
  pmeas : float;
}

type t = {
  pairs : int;
  mape : float;
  rank_accuracy : float;
  kendall_tau : float;
  topk_recall : (int * float) list;
}

(* Top-k sets under the two orderings; ties broken by candidate label so
   the score never depends on input order. *)
let top_by key k ps =
  let ranked =
    List.sort
      (fun a b ->
        match Float.compare (key a) (key b) with
        | 0 -> String.compare a.pcand b.pcand
        | c -> c)
      ps
  in
  Mcf_util.Listx.take k ranked |> List.map (fun p -> p.pcand)

let of_pairs ?(ks = [ 1; 5; 10 ]) ps =
  let n = List.length ps in
  let mape =
    if n = 0 then 0.0
    else
      100.0
      /. float_of_int n
      *. Mcf_util.Listx.sum_by
           (fun p -> Float.abs (p.pest -. p.pmeas) /. p.pmeas)
           ps
  in
  let arr = Array.of_list ps in
  let concordant = ref 0 and discordant = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      incr total;
      let de = Float.compare arr.(i).pest arr.(j).pest in
      let dm = Float.compare arr.(i).pmeas arr.(j).pmeas in
      if de * dm > 0 then incr concordant
      else if de * dm < 0 then incr discordant
    done
  done;
  let rank_accuracy =
    if !concordant + !discordant = 0 then 1.0
    else float_of_int !concordant /. float_of_int (!concordant + !discordant)
  in
  let kendall_tau =
    if !total = 0 then 0.0
    else float_of_int (!concordant - !discordant) /. float_of_int !total
  in
  let topk_recall =
    List.sort_uniq compare ks
    |> List.map (fun k ->
           let k' = min k n in
           if k' = 0 then (k, 0.0)
           else begin
             let by_meas = top_by (fun p -> p.pmeas) k' ps in
             let by_est = top_by (fun p -> p.pest) k' ps in
             let hits =
               List.length (List.filter (fun c -> List.mem c by_meas) by_est)
             in
             (k, float_of_int hits /. float_of_int k')
           end)
  in
  { pairs = n; mape; rank_accuracy; kendall_tau; topk_recall }

let publish t =
  let set name v = Metrics.set (Metrics.gauge name) v in
  set "fidelity.pairs" (float_of_int t.pairs);
  set "fidelity.mape" t.mape;
  set "fidelity.rank_accuracy" t.rank_accuracy;
  set "fidelity.kendall_tau" t.kendall_tau;
  List.iter
    (fun (k, r) -> set (Printf.sprintf "fidelity.top%d_recall" k) r)
    t.topk_recall

let render t =
  let tbl = Mcf_util.Table.create ~headers:[ "fidelity metric"; "value" ] in
  Mcf_util.Table.add_row tbl [ "estimate/measure pairs"; string_of_int t.pairs ];
  Mcf_util.Table.add_row tbl [ "MAPE"; Printf.sprintf "%.1f%%" t.mape ];
  Mcf_util.Table.add_row tbl
    [ "pairwise rank accuracy"; Printf.sprintf "%.3f" t.rank_accuracy ];
  Mcf_util.Table.add_row tbl
    [ "Kendall's tau"; Printf.sprintf "%.3f" t.kendall_tau ];
  List.iter
    (fun (k, r) ->
      Mcf_util.Table.add_row tbl
        [ Printf.sprintf "top-%d recall" k; Printf.sprintf "%.2f" r ])
    t.topk_recall;
  Mcf_util.Table.render tbl

(* Same (2^(e-1), 2^e] bucket layout as Metrics histograms, computed on a
   plain sample so the recorder can summarize a population without
   touching the process-wide registry. *)
let histogram xs =
  let tbl : (float, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      let bound =
        if v <= 0.0 then 0.0
        else if v = Float.infinity then Float.infinity
        else begin
          let m, e = Float.frexp v in
          let e = if m = 0.5 then e - 1 else e in
          Float.ldexp 1.0 e
        end
      in
      Hashtbl.replace tbl bound
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl bound)))
    xs;
  Hashtbl.fold (fun b c acc -> (b, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
