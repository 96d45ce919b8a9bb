open Mcf_ir
module Tensor = Mcf_tensor.Tensor

exception Uninitialized_tile of string

(* --- small helpers ------------------------------------------------------ *)

(* Live loop indices by axis name. *)
module Env = Hashtbl.Make (String)

let env_get env (a : Axis.t) =
  match Env.find_opt env a.Axis.name with Some i -> i | None -> 0

(* Iterate all combinations of [0, bound_i) over a list of bounds. *)
let iter_combos bounds f =
  let n = List.length bounds in
  let bounds = Array.of_list bounds in
  let idx = Array.make n 0 in
  let rec go d =
    if d = n then f idx
    else
      for i = 0 to bounds.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  if Array.for_all (fun b -> b > 0) bounds then go 0

(* Row-major offset of local indices within a tile. *)
let offset_of dims locals =
  let off = ref 0 in
  Array.iteri (fun i d -> off := (!off * d) + locals.(i)) dims;
  !off

(* --- interpreter state -------------------------------------------------- *)

type state = {
  program : Program.t;
  chain : Chain.t;
  cand : Candidate.t;
  inputs : (string, Tensor.t) Hashtbl.t;
  output : Tensor.t;
  (* tensor name -> (tile coordinates -> tile buffer) *)
  buffers : (string, (int array, float array) Hashtbl.t) Hashtbl.t;
  (* softmax tensor name -> (global row key -> running max, running sum) *)
  stats : (string, (string, float * float) Hashtbl.t) Hashtbl.t;
  (* (tensor, tile coordinates) entries whose tile has been read by a
     consumer or epilogue; the next producer write starts a fresh
     reduction round (partial-consumption schedules recompute
     per-iteration deltas). *)
  consumed : (string * int array, unit) Hashtbl.t;
  env : int Env.t;
}

let tile_dims st (ts : Chain.tensor_spec) =
  Array.of_list (List.map (Candidate.tile st.cand) ts.taxes)

let coord_key env (ts : Chain.tensor_spec) =
  Array.of_list (List.map (env_get env) ts.taxes)

(* The inner table of [tables] under [name], made empty on first use. *)
let table tables name =
  match Hashtbl.find_opt tables name with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.add tables name tbl;
    tbl

let tensor_table st (ts : Chain.tensor_spec) = table st.buffers ts.tname

let numel dims = Array.fold_left ( * ) 1 dims

(* [f coords v] on every tile of [ts] in [tbl] (tile coordinates -> [v])
   that the loop indices of [env] leave live: none of the tensor's axes
   bound by a live loop contradicts the tile's coordinate. *)
let iter_live env (ts : Chain.tensor_spec) tbl f =
  let bound =
    Array.of_list
      (List.map
         (fun (a : Axis.t) ->
           match Env.find_opt env a.name with Some i -> i | None -> -1)
         ts.taxes)
  in
  let rec live coords i =
    i = Array.length bound
    || ((bound.(i) < 0 || bound.(i) = coords.(i)) && live coords (i + 1))
  in
  Hashtbl.iter (fun coords v -> if live coords 0 then f coords v) tbl

let get_tile st ts ~create =
  let tbl = tensor_table st ts in
  let key = coord_key st.env ts in
  match Hashtbl.find_opt tbl key with
  | Some arr -> arr
  | None ->
    if create then begin
      let arr = Array.make (numel (tile_dims st ts)) 0.0 in
      Hashtbl.add tbl key arr;
      arr
    end
    else begin
      let indices =
        Env.fold (fun name i acc -> (name, i) :: acc) st.env []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (name, i) -> Printf.sprintf "%s=%d" name i)
        |> String.concat " "
      in
      raise
        (Uninitialized_tile
           (Printf.sprintf "tile %s@[%s] read before any Load under {%s}"
              ts.Chain.tname
              (String.concat "," (List.map string_of_int (Array.to_list key)))
              indices))
    end

let mark_consumed st (ts : Chain.tensor_spec) =
  Hashtbl.replace st.consumed (ts.Chain.tname, coord_key st.env ts) ()

let fresh_round st (ts : Chain.tensor_spec) arr =
  let key = (ts.Chain.tname, coord_key st.env ts) in
  if Hashtbl.mem st.consumed key then begin
    Hashtbl.remove st.consumed key;
    Array.fill arr 0 (Array.length arr) 0.0
  end

let stats_table st name = table st.stats name

(* --- statement execution ------------------------------------------------ *)

let exec_load st (ts : Chain.tensor_spec) =
  let src =
    match Hashtbl.find_opt st.inputs ts.tname with
    | Some t -> t
    | None -> invalid_arg ("Interp: missing input tensor " ^ ts.tname)
  in
  let dims = tile_dims st ts in
  let bases =
    Array.of_list
      (List.map (fun a -> env_get st.env a * Candidate.tile st.cand a) ts.taxes)
  in
  let sizes = Array.of_list (List.map (fun a -> a.Axis.size) ts.taxes) in
  let tbl = tensor_table st ts in
  let key = coord_key st.env ts in
  let arr = Array.make (numel dims) 0.0 in
  iter_combos (Array.to_list dims) (fun locals ->
      let gidx = Array.mapi (fun i l -> bases.(i) + l) locals in
      let inb = ref true in
      Array.iteri (fun i g -> if g >= sizes.(i) then inb := false) gidx;
      if !inb then arr.(offset_of dims locals) <- Tensor.get src gidx);
  Hashtbl.replace tbl key arr

let exec_compute st (b : Chain.block) =
  let axes = Chain.used_axes b in
  let tiles = List.map (fun a -> Candidate.tile st.cand a) axes in
  let bases =
    List.map (fun a -> env_get st.env a * Candidate.tile st.cand a) axes
  in
  let axis_names = Array.of_list (List.map (fun a -> a.Axis.name) axes) in
  let sizes = Array.of_list (List.map (fun a -> a.Axis.size) axes) in
  let bases = Array.of_list bases in
  let out_dims = tile_dims st b.out in
  let out_arr = get_tile st b.out ~create:true in
  fresh_round st b.out out_arr;
  let pos_of name =
    let rec go i =
      if axis_names.(i) = name then i else go (i + 1)
    in
    go 0
  in
  let out_positions =
    Array.of_list (List.map (fun a -> pos_of a.Axis.name) b.out.taxes)
  in
  let in_info =
    List.map
      (fun (ts : Chain.tensor_spec) ->
        let dims = tile_dims st ts in
        let positions =
          Array.of_list (List.map (fun a -> pos_of a.Axis.name) ts.taxes)
        in
        let arr = get_tile st ts ~create:false in
        if ts.storage <> Chain.Input then mark_consumed st ts;
        (dims, positions, arr))
      b.ins
  in
  iter_combos tiles (fun locals ->
      let inb = ref true in
      Array.iteri
        (fun i l -> if bases.(i) + l >= sizes.(i) then inb := false)
        locals;
      if !inb then begin
        let contribution = ref 1.0 in
        List.iter
          (fun (dims, positions, arr) ->
            let lv = Array.map (fun p -> locals.(p)) positions in
            contribution := !contribution *. arr.(offset_of dims lv))
          in_info;
        let lv = Array.map (fun p -> locals.(p)) out_positions in
        let off = offset_of out_dims lv in
        out_arr.(off) <- out_arr.(off) +. !contribution
      end)

(* Rescale every resident accumulator element of [q.out] that belongs to
   the softmax row identified by [row_axes]/[row_globals] (online-softmax
   correction of the consumers, FlashAttention-style). *)
let rescale_consumers st (p : Chain.block) row_axes row_globals corr =
  List.iter
    (fun (q : Chain.block) ->
      let tbl = tensor_table st q.out in
      let qdims = tile_dims st q.out in
      let qtiles =
        Array.of_list (List.map (Candidate.tile st.cand) q.out.taxes)
      in
      Hashtbl.iter
        (fun coords arr ->
          iter_combos (Array.to_list qdims) (fun locals ->
              let matches = ref true in
              List.iteri
                (fun i (a : Axis.t) ->
                  match
                    Mcf_util.Listx.index_of
                      (fun (ra : Axis.t) -> Axis.equal ra a)
                      row_axes
                  with
                  | None -> ()
                  | Some ri ->
                    let g = (coords.(i) * qtiles.(i)) + locals.(i) in
                    if g <> row_globals.(ri) then matches := false)
                q.out.taxes;
              if !matches then begin
                let off = offset_of qdims locals in
                arr.(off) <- arr.(off) *. corr
              end))
        tbl)
    (Chain.consumers_of st.chain p.out)

let exec_softmax st (b : Chain.block) (saxis : Axis.t) sscale =
  let z = b.out in
  let dims = tile_dims st z in
  let arr = get_tile st z ~create:false in
  mark_consumed st b.out;
  let row_axes = List.filter (fun a -> not (Axis.equal a saxis)) z.taxes in
  let spos =
    match
      Mcf_util.Listx.index_of (fun a -> Axis.equal a saxis) z.taxes
    with
    | Some i -> i
    | None -> invalid_arg "Interp: softmax axis not in tensor"
  in
  let stile = Candidate.tile st.cand saxis in
  let sbase = env_get st.env saxis * stile in
  let row_dims =
    List.filteri (fun i _ -> i <> spos) (Array.to_list dims)
  in
  let stats = stats_table st z.tname in
  iter_combos row_dims (fun row_locals ->
      (* reconstruct full local index template with a hole at spos *)
      let full = Array.make (Array.length dims) 0 in
      let ri = ref 0 in
      Array.iteri
        (fun i _ ->
          if i <> spos then begin
            full.(i) <- row_locals.(!ri);
            incr ri
          end)
        dims;
      (* global row coordinates, with bounds check *)
      let in_bounds = ref true in
      let row_globals =
        Array.of_list
          (List.map
             (fun (a : Axis.t) ->
               let i =
                 match
                   Mcf_util.Listx.index_of (fun x -> Axis.equal x a) z.taxes
                 with
                 | Some i -> i
                 | None -> assert false
               in
               let g =
                 (env_get st.env a * Candidate.tile st.cand a) + full.(i)
               in
               if g >= a.Axis.size then in_bounds := false;
               g)
             row_axes)
      in
      if !in_bounds then begin
        let row_key =
          row_globals |> Array.to_list |> List.map string_of_int
          |> String.concat ","
        in
        let m_old, l_old =
          match Hashtbl.find_opt stats row_key with
          | Some s -> s
          | None -> (neg_infinity, 0.0)
        in
        (* scan valid columns *)
        let valid = ref [] in
        for s = stile - 1 downto 0 do
          if sbase + s < saxis.Axis.size then begin
            full.(spos) <- s;
            valid := (s, offset_of dims full) :: !valid
          end
        done;
        let m_tile =
          List.fold_left
            (fun acc (_, off) -> Float.max acc (sscale *. arr.(off)))
            neg_infinity !valid
        in
        let m_new = Float.max m_old m_tile in
        let corr =
          if m_old = neg_infinity then 1.0 else exp (m_old -. m_new)
        in
        let sum = ref 0.0 in
        List.iter
          (fun (_, off) ->
            let e = exp ((sscale *. arr.(off)) -. m_new) in
            arr.(off) <- e;
            sum := !sum +. e)
          !valid;
        (* zero out padded columns so consumers never read garbage *)
        for s = 0 to stile - 1 do
          if sbase + s >= saxis.Axis.size then begin
            full.(spos) <- s;
            arr.(offset_of dims full) <- 0.0
          end
        done;
        Hashtbl.replace stats row_key (m_new, ((l_old *. corr) +. !sum));
        if corr <> 1.0 then rescale_consumers st b row_axes row_globals corr
      end)

let exec_scale st (b : Chain.block) c =
  let arr = get_tile st b.out ~create:false in
  Array.iteri (fun i v -> arr.(i) <- c *. v) arr

let exec_unary st (b : Chain.block) f =
  mark_consumed st b.out;
  let arr = get_tile st b.out ~create:false in
  Array.iteri (fun i v -> arr.(i) <- f v) arr

(* Softmax producers feeding [p], for the final normalization at Store. *)
let softmax_feeders st (p : Chain.block) =
  List.filter_map
    (fun (inp : Chain.tensor_spec) ->
      match Chain.producer_of st.chain inp with
      | Some pr -> (
        match pr.epilogue with
        | Chain.Softmax { saxis; _ } -> Some (pr, saxis)
        | Chain.No_epilogue | Chain.Scale _ | Chain.Unary _ -> None)
      | None -> None)
    p.ins

let exec_store st (ts : Chain.tensor_spec) (p : Chain.block) =
  let tbl = tensor_table st ts in
  let dims = tile_dims st ts in
  let tiles = Array.of_list (List.map (Candidate.tile st.cand) ts.taxes) in
  let sizes = Array.of_list (List.map (fun a -> a.Axis.size) ts.taxes) in
  let feeders = softmax_feeders st p in
  let divisor globals =
    List.fold_left
      (fun acc ((pr : Chain.block), (saxis : Axis.t)) ->
        let row_axes =
          List.filter (fun a -> not (Axis.equal a saxis)) pr.out.taxes
        in
        let key =
          row_axes
          |> List.map (fun (a : Axis.t) ->
                 match
                   Mcf_util.Listx.index_of
                     (fun (x : Axis.t) -> Axis.equal x a)
                     ts.taxes
                 with
                 | Some i -> string_of_int globals.(i)
                 | None -> "0")
          |> String.concat ","
        in
        match Hashtbl.find_opt (stats_table st pr.out.tname) key with
        | Some (_, l) when l > 0.0 -> acc *. l
        | Some _ | None -> acc)
      1.0 feeders
  in
  iter_live st.env ts tbl (fun coords arr ->
      iter_combos (Array.to_list dims) (fun locals ->
          let globals =
            Array.mapi (fun i l -> (coords.(i) * tiles.(i)) + l) locals
          in
          let inb = ref true in
          Array.iteri (fun i g -> if g >= sizes.(i) then inb := false) globals;
          if !inb then begin
            let v = arr.(offset_of dims locals) /. divisor globals in
            Tensor.set st.output globals v
          end))

(* --- driver ------------------------------------------------------------- *)

(* The loop walk [run] and [count] share: [on_stmt i s] on every
   execution of [s], the [i]-th placed statement in program order, with
   [env] binding the index of every enclosing loop.  Returns [k] plus the
   statements of [nodes]; a loop's extent is at least 1, so each body is
   walked and numbered. *)
let rec walk env on_stmt k = function
  | [] -> k
  | Program.Stmt s :: rest ->
    on_stmt k s;
    walk env on_stmt (k + 1) rest
  | Program.Loop l :: rest ->
    let next = ref k in
    for i = 0 to l.Program.extent - 1 do
      Env.replace env l.Program.laxis.Axis.name i;
      next := walk env on_stmt k l.Program.body
    done;
    Env.remove env l.Program.laxis.Axis.name;
    walk env on_stmt !next rest

let exec_stmt st _ = function
  | Program.Load (ts, _) -> exec_load st ts
  | Program.Compute b -> exec_compute st b
  | Program.Epilogue b -> (
    match b.Chain.epilogue with
    | Chain.Softmax { saxis; sscale } -> exec_softmax st b saxis sscale
    | Chain.Scale c -> exec_scale st b c
    | Chain.Unary { apply; _ } -> exec_unary st b apply
    | Chain.No_epilogue -> ())
  | Program.Store (ts, p) -> exec_store st ts p

(* One per-head execution: [inputs] are unbatched slices. *)
let run_single (program : Program.t) ~input_tbl ~output =
  let chain = program.Program.chain in
  let grid_trips =
    List.map (fun a -> Candidate.trip program.Program.cand a) program.grid_axes
  in
  iter_combos grid_trips (fun grid_idx ->
      let st =
        { program;
          chain;
          cand = program.Program.cand;
          inputs = input_tbl;
          output;
          buffers = Hashtbl.create 8;
          stats = Hashtbl.create 8;
          consumed = Hashtbl.create 16;
          env = Env.create 8 }
      in
      List.iteri
        (fun i (a : Axis.t) -> Env.replace st.env a.name grid_idx.(i))
        program.grid_axes;
      ignore (walk st.env (exec_stmt st) 0 program.Program.roots))

let slice_first t b =
  let shape = Tensor.shape t in
  let rest = Array.sub shape 1 (Array.length shape - 1) in
  Tensor.init rest (fun idx -> Tensor.get t (Array.append [| b |] idx))

let blit_first dst b src =
  let shape = Tensor.shape src in
  let idx = Array.make (Array.length shape) 0 in
  let rec go d =
    if d = Array.length shape then
      Tensor.set dst (Array.append [| b |] idx) (Tensor.get src idx)
    else
      for i = 0 to shape.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  if Tensor.numel src > 0 then go 0

let run (program : Program.t) ~inputs =
  let chain = program.Program.chain in
  let batch = chain.Chain.batch in
  let input_tbl = Hashtbl.create 8 in
  List.iter (fun (name, t) -> Hashtbl.replace input_tbl name t) inputs;
  List.iter
    (fun (ts : Chain.tensor_spec) ->
      match Hashtbl.find_opt input_tbl ts.tname with
      | None -> invalid_arg ("Interp.run: missing input " ^ ts.tname)
      | Some t ->
        let dims = List.map (fun a -> a.Axis.size) ts.taxes in
        let want =
          Array.of_list (if batch > 1 then batch :: dims else dims)
        in
        if Tensor.shape t <> want then
          invalid_arg ("Interp.run: shape mismatch for " ^ ts.tname))
    (Chain.input_tensors chain);
  let out_spec = Chain.output_tensor chain in
  let out_dims = List.map (fun a -> a.Axis.size) out_spec.taxes in
  if batch = 1 then begin
    let output = Tensor.create (Array.of_list out_dims) in
    run_single program ~input_tbl ~output;
    output
  end
  else begin
    let output = Tensor.create (Array.of_list (batch :: out_dims)) in
    for b = 0 to batch - 1 do
      let slice_tbl = Hashtbl.create 8 in
      Hashtbl.iter
        (fun name t -> Hashtbl.replace slice_tbl name (slice_first t b))
        input_tbl;
      let out_slice = Tensor.create (Array.of_list out_dims) in
      run_single program ~input_tbl:slice_tbl ~output:out_slice;
      blit_first output b out_slice
    done;
    output
  end

let run_candidate chain cand ~inputs =
  run (Program.build chain cand) ~inputs

(* --- counting ----------------------------------------------------------- *)

type count = { stmt : Program.stmt; execs : int; moved : int; volume : int }

(* One thread block through [walk], without data: a Compute registers
   its output tile, and a Store counts the registered tiles [iter_live]
   leaves live, the ones [exec_store] would flush. *)
let count (program : Program.t) =
  let cand = program.Program.cand in
  let stmts = Array.of_list (List.map snd (Program.placed_stmts program)) in
  (* Per statement: its tensor's tile elements, or a Compute's volume. *)
  let elems =
    Array.map
      (fun stmt ->
        let axes =
          match stmt with
          | Program.Load (ts, _) | Program.Store (ts, _) -> ts.Chain.taxes
          | Program.Compute b -> Chain.used_axes b
          | Program.Epilogue _ -> []
        in
        List.fold_left (fun acc a -> acc * Candidate.tile cand a) 1 axes)
      stmts
  in
  let execs = Array.make (Array.length stmts) 0 in
  let moved = Array.make (Array.length stmts) 0 in
  (* Per statement: the registered tiles of a stored tensor, which its
     Compute registers and its Store counts. *)
  let stored = Hashtbl.create 4 in
  Array.iter
    (function Program.Store (ts, _) -> ignore (table stored ts.tname) | _ -> ())
    stmts;
  let tiles =
    Array.map
      (function
        | Program.Compute { out; _ } | Program.Store (out, _) ->
          Hashtbl.find_opt stored out.Chain.tname
        | Program.Load _ | Program.Epilogue _ -> None)
      stmts
  in
  let env = Env.create 8 in
  List.iter
    (fun (a : Axis.t) -> Env.replace env a.name 0)
    program.Program.grid_axes;
  let on_stmt i s =
    execs.(i) <- execs.(i) + 1;
    match (s, tiles.(i)) with
    | Program.Load _, _ -> moved.(i) <- moved.(i) + elems.(i)
    | Program.Compute b, Some tbl ->
      Hashtbl.replace tbl (coord_key env b.out) ()
    | Program.Store (ts, _), Some tbl ->
      let live = ref 0 in
      iter_live env ts tbl (fun _ () -> incr live);
      moved.(i) <- moved.(i) + (elems.(i) * !live)
    | (Program.Compute _ | Program.Store _ | Program.Epilogue _), _ -> ()
  in
  ignore (walk env on_stmt 0 program.Program.roots);
  List.mapi
    (fun i stmt ->
      { stmt;
        execs = execs.(i);
        moved = moved.(i);
        volume =
          (match stmt with
          | Program.Compute _ -> elems.(i)
          | Program.Load _ | Program.Store _ | Program.Epilogue _ -> 0) })
    (Array.to_list stmts)

(* Direct un-tiled evaluation (exact softmax), block by block; batched
   chains are evaluated slice by slice. *)
let rec reference (chain : Chain.t) ~inputs =
  if chain.Chain.batch > 1 then begin
    let per_head = { chain with Chain.batch = 1 } in
    let out_spec = Chain.output_tensor chain in
    let out_dims =
      List.map (fun (a : Axis.t) -> a.Axis.size) out_spec.taxes
    in
    let output =
      Tensor.create (Array.of_list (chain.Chain.batch :: out_dims))
    in
    for b = 0 to chain.Chain.batch - 1 do
      let sliced =
        List.map (fun (name, t) -> (name, slice_first t b)) inputs
      in
      blit_first output b (reference per_head ~inputs:sliced)
    done;
    output
  end
  else begin
  let values = Hashtbl.create 8 in
  List.iter (fun (name, t) -> Hashtbl.replace values name t) inputs;
  let eval_block (b : Chain.block) =
    let axes = Chain.used_axes b in
    let sizes = List.map (fun a -> a.Axis.size) axes in
    let out_shape =
      Array.of_list (List.map (fun a -> a.Axis.size) b.out.taxes)
    in
    let out = Tensor.create out_shape in
    let pos_of (a : Axis.t) =
      match
        Mcf_util.Listx.index_of (fun x -> Axis.equal x a) axes
      with
      | Some i -> i
      | None -> assert false
    in
    let in_info =
      List.map
        (fun (ts : Chain.tensor_spec) ->
          let t =
            match Hashtbl.find_opt values ts.tname with
            | Some t -> t
            | None -> invalid_arg ("reference: missing " ^ ts.tname)
          in
          (t, Array.of_list (List.map pos_of ts.taxes)))
        b.ins
    in
    let out_pos = Array.of_list (List.map pos_of b.out.taxes) in
    iter_combos sizes (fun idx ->
        let contribution = ref 1.0 in
        List.iter
          (fun (t, positions) ->
            contribution :=
              !contribution *. Tensor.get t (Array.map (fun p -> idx.(p)) positions))
          in_info;
        let oidx = Array.map (fun p -> idx.(p)) out_pos in
        Tensor.set out oidx (Tensor.get out oidx +. !contribution));
    let out =
      match b.epilogue with
      | Chain.No_epilogue -> out
      | Chain.Scale c -> Tensor.map (fun v -> c *. v) out
      | Chain.Unary { apply; _ } -> Tensor.map apply out
      | Chain.Softmax { saxis; sscale } ->
        let scaled = Tensor.map (fun v -> sscale *. v) out in
        (* softmax over [saxis]; our chains keep it innermost, but handle
           the general position by permuting through Ops when needed *)
        let last = List.nth b.out.taxes (List.length b.out.taxes - 1) in
        if Axis.equal saxis last then Mcf_tensor.Ops.softmax scaled
        else begin
          let t = Mcf_tensor.Ops.transpose_last2 scaled in
          Mcf_tensor.Ops.transpose_last2 (Mcf_tensor.Ops.softmax t)
        end
    in
    Hashtbl.replace values b.out.tname out
  in
  List.iter eval_block chain.blocks;
  Hashtbl.find values (Chain.output_tensor chain).tname
  end
