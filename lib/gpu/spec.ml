type t = {
  name : string;
  compute_capability : string;
  sm_count : int;
  peak_flops : float;
  mem_bw : float;
  smem_per_block : int;
  smem_per_sm : int;
  l2_bytes : int;
  max_blocks_per_sm : int;
  launch_overhead_s : float;
  elem_bytes : int;
}

let a100 =
  { name = "A100";
    compute_capability = "sm80";
    sm_count = 108;
    peak_flops = 312e12;
    mem_bw = 1555e9;
    (* 163 KiB opt-in maximum per block; 164 KiB per SM. *)
    smem_per_block = 163 * 1024;
    smem_per_sm = 164 * 1024;
    l2_bytes = 40 * 1024 * 1024;
    max_blocks_per_sm = 32;
    launch_overhead_s = 4.0e-6;
    elem_bytes = 2 }

let rtx3080 =
  { name = "RTX3080";
    compute_capability = "sm86";
    sm_count = 68;
    peak_flops = 119e12;
    mem_bw = 760e9;
    smem_per_block = 99 * 1024;
    smem_per_sm = 100 * 1024;
    l2_bytes = 5 * 1024 * 1024;
    max_blocks_per_sm = 16;
    launch_overhead_s = 4.0e-6;
    elem_bytes = 2 }

let all = [ a100; rtx3080 ]

let by_name name =
  let want = String.lowercase_ascii name in
  List.find_opt (fun s -> String.lowercase_ascii s.name = want) all

let roofline_ratio s = s.peak_flops /. s.mem_bw

let fingerprint s =
  (* Every field participates: two specs that differ anywhere (a tweaked
     bandwidth, a different shared-memory budget) must never share cached
     measurements.  Floats are printed in hex so the identity is exact,
     not rounded. *)
  Printf.sprintf "%s/%s/sm%d/p%h/bw%h/sb%d/ss%d/l2%d/mb%d/lo%h/eb%d" s.name
    s.compute_capability s.sm_count s.peak_flops s.mem_bw s.smem_per_block
    s.smem_per_sm s.l2_bytes s.max_blocks_per_sm s.launch_overhead_s
    s.elem_bytes
