(** Minimal JSON tree, printer and parser.

    Just enough JSON for the observability layer: the tracer serializes
    Chrome [trace_event] files through {!to_string}, the metrics registry
    dumps deterministic snapshots, and tests / the [--trace] self-check
    parse the output back with {!parse}.  No dependency on external JSON
    packages; no streaming. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** Keys are emitted in list order. *)

val num_of_int : int -> t

val to_string : t -> string
(** Compact (no whitespace) rendering.  Deterministic: integral floats
    with magnitude below 2^53 print without a decimal point, other
    numbers as shortest round-trip decimal; strings are escaped per RFC
    8259 ([\uXXXX] for control characters). *)

val parse : string -> (t, string) result
(** Strict recursive-descent parse of one JSON value (surrounding
    whitespace allowed, trailing garbage rejected).  Escapes including
    [\uXXXX] are decoded (surrogate pairs to UTF-8).  Errors carry a
    byte offset. *)

val member : string -> t -> t option
(** [member k (Obj ...)] finds the first binding of [k]; [None] for
    non-objects or missing keys. *)

val fold_jsonl :
  path:string -> init:'a -> f:('a -> t -> 'a option) -> 'a * int
(** Count-and-skip fold over an append-only JSONL store.  Every
    non-blank line of [path] is run through {!parse} and passed to [f];
    a parse failure, or [None] from [f], marks the line malformed — it
    is counted and skipped, and the fold continues.  Returns the final
    accumulator and the number of malformed lines, after logging one
    ["skipped N malformed lines"] warning on the [mcfuser.jsonl] source
    when N > 0.  A missing file is empty: [(init, 0)].  This is the one
    shared loader for every JSONL store (history, caches) — truncated
    tails cost exactly the damaged lines. *)

val write_atomic : string -> (out_channel -> 'a) -> 'a
(** [write_atomic path write] runs [write] on a fresh [path ^ ".tmp"],
    closes it and renames it over [path], so readers see the old file or
    the complete new one, never a torn write.  This is the one writer for
    every persistent store (caches, recordings).  If [write], the close or
    the rename raises, the temporary file is removed, [path] is left as it
    was and the exception is re-raised. *)
