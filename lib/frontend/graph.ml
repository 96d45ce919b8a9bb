type op =
  | Dense of { dname : string; m : int; n : int; k : int }
  | Mbci_attention of {
      aname : string;
      cfg : Mcf_workloads.Configs.attention_config;
    }
  | Bias_gelu of { ename : string; elems : float }
  | Bias_add of { ename : string; elems : float }
  | Residual_layernorm of { lname : string; rows : float; cols : int }

type t = {
  gname : string;
  ops : op list;
  flops : float;
}

let bert (cfg : Mcf_workloads.Configs.bert_config) =
  let s = cfg.seq in
  let hd = cfg.hidden in
  let inter = cfg.intermediate in
  let head_dim = hd / cfg.bheads in
  let attn_cfg =
    { Mcf_workloads.Configs.sname = cfg.bname ^ "-attn";
      heads = cfg.bheads;
      sm = s;
      sn = s;
      sk = head_dim;
      sh = head_dim;
      network = cfg.bname }
  in
  let fs = float_of_int s in
  let layer i =
    let n p = Printf.sprintf "l%d.%s" i p in
    [ Dense { dname = n "qkv"; m = s; n = 3 * hd; k = hd };
      Bias_add { ename = n "qkv.bias"; elems = fs *. float_of_int (3 * hd) };
      Mbci_attention { aname = n "self_attention"; cfg = attn_cfg };
      Dense { dname = n "out_proj"; m = s; n = hd; k = hd };
      Bias_add { ename = n "out.bias"; elems = fs *. float_of_int hd };
      Residual_layernorm { lname = n "ln1"; rows = fs; cols = hd };
      Dense { dname = n "ffn_up"; m = s; n = inter; k = hd };
      Bias_gelu { ename = n "ffn.gelu"; elems = fs *. float_of_int inter };
      Dense { dname = n "ffn_down"; m = s; n = hd; k = inter };
      Bias_add { ename = n "ffn.bias"; elems = fs *. float_of_int hd };
      Residual_layernorm { lname = n "ln2"; rows = fs; cols = hd } ]
  in
  let ops = List.concat_map layer (Mcf_util.Listx.range cfg.layers) in
  let flops =
    Mcf_util.Listx.sum_by
      (function
        | Dense { m; n; k; _ } ->
          2.0 *. float_of_int m *. float_of_int n *. float_of_int k
        | Mbci_attention { cfg = a; _ } ->
          let f = float_of_int in
          2.0 *. f a.heads *. f a.sm *. f a.sn *. (f a.sk +. f a.sh)
        | Bias_gelu _ | Bias_add _ | Residual_layernorm _ -> 0.0)
      ops
  in
  { gname = cfg.bname; ops; flops }

let unique_dense_shapes t =
  t.ops
  |> List.filter_map (function
       | Dense { m; n; k; _ } -> Some (m, n, k)
       | Mbci_attention _ | Bias_gelu _ | Bias_add _ | Residual_layernorm _ ->
         None)
  |> Mcf_util.Listx.dedup ~compare:Stdlib.compare

let attention_configs t =
  t.ops
  |> List.filter_map (function
       | Mbci_attention { cfg; _ } -> Some cfg
       | Dense _ | Bias_gelu _ | Bias_add _ | Residual_layernorm _ -> None)
  |> Mcf_util.Listx.dedup_keep_order
       ~key:(fun (c : Mcf_workloads.Configs.attention_config) -> c.sname)

let attention_time_fraction t ~dense_time ~attn_time =
  let total, attn =
    List.fold_left
      (fun (total, attn) op ->
        match op with
        | Dense { m; n; k; _ } -> (total +. dense_time (m, n, k), attn)
        | Mbci_attention { cfg; _ } ->
          let ta = attn_time cfg in
          (total +. ta, attn +. ta)
        | Bias_gelu _ | Bias_add _ | Residual_layernorm _ -> (total, attn))
      (0.0, 0.0) t.ops
  in
  if total > 0.0 then attn /. total else 0.0
