open Mcf_ir

let math_penalty = 3.0
let max_fusable_batch = 4
let trials = ref 1000
let trials_per_round = 64
let tvm_compile_s = 4.5
let model_train_s = 2.0
let measure_repeats = 10

(* Ansor's generated code runs the contractions off the MMA pipes. *)
let derate k = Backend.derate_math math_penalty k

let space_options =
  { Mcf_search.Space.default_options with
    include_flat = false;
    dead_loop_elim = false }

let tune_fused ~rng ~clock spec chain =
  let entries, _ = Mcf_search.Space.enumerate ~options:space_options spec chain in
  match entries with
  | [] -> None
  | _ ->
    let pool = Array.of_list entries in
    let engine = Mcf_search.Measure.create ~derate spec in
    let results = Hashtbl.create 256 in
    let model = ref None in
    let budget = ref !trials in
    let predict (e : Mcf_search.Space.entry) =
      match !model with
      | None -> Mcf_util.Rng.float rng 1.0
      | Some m -> Xgb.predict m (Xgb.feature_vector (Mcf_search.Space.lowered e))
    in
    while !budget > 0 do
      let round = min trials_per_round !budget in
      budget := !budget - round;
      (* rank the whole space with the learned model, explore 20% randomly *)
      let scored =
        Array.map (fun e -> (e, predict e)) pool
      in
      Array.sort (fun (_, a) (_, b) -> Float.compare a b) scored;
      let picks = ref [] in
      let n_guided = round * 4 / 5 in
      let unmeasured =
        Array.to_list scored
        |> List.map fst
        |> List.filter (fun (e : Mcf_search.Space.entry) ->
               not (Hashtbl.mem results (Candidate.key e.cand)))
      in
      picks := Mcf_util.Listx.take n_guided unmeasured;
      for _ = List.length !picks + 1 to round do
        picks := Mcf_util.Rng.pick rng pool :: !picks
      done;
      (* The round's fresh picks form one batch, in pick order.  Ansor
         re-measures revisited states, and the compile is real even when
         the result is known.  A revisit's charge keeps its place in pick
         order, so the clock adds the same floats in the same order: it
         is made in the commit of the fresh pick before it, or at once
         when no fresh pick precedes it. *)
      let fresh = Hashtbl.create 64 in
      let batch = ref [] in
      let revisits = Array.make round 0 in
      List.iter
        (fun (e : Mcf_search.Space.entry) ->
          let key = Candidate.key e.cand in
          if Hashtbl.mem results key || Hashtbl.mem fresh key then
            match !batch with
            | [] -> Mcf_gpu.Clock.charge_compile clock ~toolchain_s:tvm_compile_s
            | (i, _) :: _ -> revisits.(i) <- revisits.(i) + 1
          else begin
            Hashtbl.replace fresh key ();
            batch := (Hashtbl.length fresh - 1, e) :: !batch
          end)
        !picks;
      let batch = Array.of_list (List.rev !batch) in
      Mcf_search.Measure.run_batch engine ~clock ~compile_cost_s:tvm_compile_s
        ~repeats:measure_repeats
        ~commit:(fun i r ->
          let e = snd batch.(i) in
          Hashtbl.replace results (Candidate.key e.cand) (e, r);
          for _ = 1 to revisits.(i) do
            Mcf_gpu.Clock.charge_compile clock ~toolchain_s:tvm_compile_s
          done)
        (Array.to_list batch);
      (* retrain the cost model on everything measured so far *)
      let samples =
        Hashtbl.fold
          (fun _ (e, r) acc ->
            match r with
            | Some t ->
              ((Xgb.feature_vector (Mcf_search.Space.lowered e), log t) :: acc)
            | None -> acc)
          results []
      in
      if List.length samples >= 8 then begin
        Mcf_gpu.Clock.charge clock model_train_s;
        model := Some (Xgb.train samples)
      end
    done;
    let best =
      Hashtbl.fold
        (fun _ (e, r) acc ->
          match (r, acc) with
          | Some t, Some (_, bt) when t < bt -> Some (e, t)
          | Some t, None -> Some (e, t)
          | _, acc -> acc)
        results None
    in
    Option.bind best (fun ((e : Mcf_search.Space.entry), time_s) ->
        Result.to_option
          (Mcf_codegen.Compile.compile spec (Mcf_search.Space.lowered e))
        |> Option.map (fun kernel -> (derate kernel, time_s)))

let tune_unfused ~clock spec chain =
  (* Per-operator tuning: Ansor still runs its trial budget, spread over
     the chain's operator tasks. *)
  Mcf_gpu.Clock.charge clock (float_of_int !trials *. tvm_compile_s);
  let kernels =
    List.map derate (Pytorch.chain_kernels ~fused_softmax:true spec chain)
  in
  match Backend.run_kernels ~dispatch_s:Backend.graph_dispatch_s spec kernels with
  | Error _ -> None
  | Ok t -> Some (kernels, t)

let tune spec (chain : Chain.t) =
  let rng =
    Mcf_util.Rng.create
      (Mcf_util.Hashing.seed ("ansor|" ^ chain.cname ^ spec.Mcf_gpu.Spec.name))
  in
  let clock = Mcf_gpu.Clock.create () in
  let outcome ~fused ?note (kernels, time_s) =
    { Backend.backend = "Ansor";
      kernels;
      time_s;
      tuning_virtual_s = Mcf_gpu.Clock.elapsed_s clock;
      tuning_wall_s = 0.0;
      fused;
      note }
  in
  let unfused note =
    match tune_unfused ~clock spec chain with
    | Some r -> Ok (outcome ~fused:false ~note r)
    | None -> Error (Backend.Unsupported "no viable schedule")
  in
  let run () =
    if chain.batch > max_fusable_batch then
      unfused "fallback: batch too large for fusion sketches"
    else
      match tune_fused ~rng ~clock spec chain with
      | Some (kernel, time_s) -> Ok (outcome ~fused:true ([ kernel ], time_s))
      | None -> unfused "fallback: unfused (no viable fused schedule)"
  in
  let result, wall = Mcf_gpu.Clock.with_wall_clock run in
  Result.map (fun (o : Backend.outcome) -> { o with tuning_wall_s = wall }) result

let backend = { Backend.name = "Ansor"; tune }
