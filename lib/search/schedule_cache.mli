(** Persistent schedule cache.

    Deployment flows tune once and reuse: the cache stores the best
    candidate found for (device, chain) pairs in a small line-oriented text
    file, so later runs skip tuning entirely (the "efficient deployment"
    concern of the paper's introduction).

    Format, one record per line:
    [chain_name|device|tiling|tiles|kernel_time_s] with [tiling] in a
    parse-friendly spelling ([deep:m,h,n,k] or [flat:m,n/k/h]) and [tiles]
    as [name=value] pairs.  Unknown or corrupt lines are skipped on load. *)

type entry = {
  echain : string;  (** Chain name. *)
  edevice : string;
  ecand : Mcf_ir.Candidate.t;
  etime_s : float;
}

type t

val empty : t

val add : t -> entry -> t
(** Replaces an existing record for the same (chain, device). *)

val lookup : t -> chain:Mcf_ir.Chain.t -> device:string -> entry option
(** The candidate is re-bound to [chain]'s axes; [None] when the cached
    tiling references axes the chain does not have. *)

val size : t -> int

val serialize_candidate : Mcf_ir.Candidate.t -> string

val parse_candidate :
  Mcf_ir.Chain.t -> string -> (Mcf_ir.Candidate.t, string) result

val load : chains:Mcf_ir.Chain.t list -> string -> t
(** Read a cache file; records for unknown chains or with unparsable
    candidates are dropped.  A missing file yields {!empty}. *)

val tune_with_cache :
  cache_file:string ->
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  (Tuner.outcome option * entry, Tuner.error) result
(** Look the chain up; on a miss, run {!Tuner.tune}, append the result to
    the file and return the fresh outcome alongside the cache entry (the
    outcome is [None] on a cache hit). *)
