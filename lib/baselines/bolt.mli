(** The BOLT baseline: CUTLASS-templated fusion (§II-B, §VI).

    BOLT fuses back-to-back GEMM pairs through a fixed template menu whose
    defining constraint is that each thread block covers the entire N
    dimension of the first GEMM (the intermediate never leaves the block).
    Every instantiated template is compiled and measured — that is its
    "mid" tuning cost in Table I/IV.  It cannot fuse self-attention (no
    pattern for softmax between the GEMMs) and does not support sm86
    devices at all (§VI-B); oversized shapes for which no template fits
    fall back to unfused CUTLASS operators (the G10-G12 behaviour). *)

val backend : Backend.t
