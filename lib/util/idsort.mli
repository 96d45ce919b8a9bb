(** Sorting int ids by a float key, in exactly [Array.sort]'s order.

    [by_key key ids] sorts [ids] in place so that [key.(ids.(i))]
    ascends, and leaves [ids] as the very permutation that
    [Array.sort (fun a b -> Float.compare key.(a) key.(b)) ids] leaves:
    it is OCaml 5.1's ternary heap sort transcribed for int ids and a
    float-array key, making the same comparisons and the same moves
    without a closure call, a boxed float or an exception per element.
    Ties therefore land where [Array.sort] puts them, which is not the
    (key, id) order; callers whose outcomes depend on tie order (the
    explorer's rankings) rely on that.  Keys compare by [Float.compare]:
    [nan] ranks below every other value and [-0.0] ties with [0.0].

    @raise Invalid_argument if an id is out of [key]'s bounds. *)

val by_key : float array -> int array -> unit
