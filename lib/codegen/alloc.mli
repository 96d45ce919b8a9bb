(** "Actual" shared-memory allocation — the code generator's side of the
    Fig. 10 comparison (the paper measures it with the NVPTX backend; we
    compute it from the same allocation rules Triton applies):

    - every tile row is padded to dodge shared-memory bank conflicts;
    - input tiles streamed inside a loop are double-buffered (software
      pipelining with [num_stages = 2]), falling back to single buffers
      when the padded total would not fit the device limit;
    - resident intermediate/accumulator tiles appear once per Rule-2
      multiplicity, except that output accumulators small enough for the
      register file live in registers (as `tl.dot` accumulators do) and
      occupy no shared memory at all — the one case where the actual
      allocation undercuts the eq. (1) estimate (quadrant IV of Fig. 10);
    - online-softmax schedules keep fp32 running-max/sum vectors (plus a
      correction temporary) per softmax row.

    The result is what the simulator charges against the occupancy limit;
    candidates whose actual allocation exceeds the per-block maximum fail
    to launch (the "eliminated during PTX code lowering" cases). *)

type detail = {
  tiles_bytes : int;  (** Padded tile storage, single-buffered. *)
  double_buffer_bytes : int;  (** Extra staging copies (0 after fallback). *)
  softmax_bytes : int;  (** Running statistics vectors. *)
  total_bytes : int;
}

val detail : Mcf_gpu.Spec.t -> Mcf_ir.Lower.t -> detail

val actual_bytes : Mcf_gpu.Spec.t -> Mcf_ir.Lower.t -> int
(** [total_bytes] of {!detail}. *)
