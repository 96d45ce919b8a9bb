(** In-memory schedule table keyed by chain name and device name.

    The persistent schedule cache that [mcfuser tune --cache] and
    [mcfuser serve --schedule-cache] share is [Mcf_serve.Protocol]'s
    JSONL store, keyed by everything that fixes a tuning outcome.  This
    module is only the deploy-side table the benchmark's closed loop
    fills after each tune and answers its cache hits from. *)

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
(** The record for [chain]'s name on [device], if any. *)
