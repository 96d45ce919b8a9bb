(** The FlashAttention baseline: the handcrafted fused self-attention
    kernel (§VI-A, commit 57ee618 era).

    Modeled by its documented shape (§VI-B2): a fixed schedule that tiles
    only the M and N sequence dimensions (T_m = 128, T_n = 64) while K and
    H are kept whole, with online softmax; it requires K = H and a head
    dimension within the hand-written kernel's menu (<= 128).  No tuning —
    and no adaptation, which is why a searched schedule beats it on the
    small-sequence workloads of Table III. *)

val backend : Backend.t
