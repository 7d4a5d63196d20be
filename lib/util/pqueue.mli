(** Mutable binary min-heap keyed by integer priorities.

    Used by weighted graph algorithms (Dijkstra). Ties are broken by
    insertion order, which keeps every run deterministic under a fixed
    seed. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> priority:int -> 'a -> unit

val pop_min : 'a t -> (int * 'a) option
(** Removes and returns the minimum-priority element, with its priority.
    Among equal priorities, the earliest pushed wins. *)

val peek_min : 'a t -> (int * 'a) option
