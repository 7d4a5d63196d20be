(** Connected components. *)

val labels : Graph.t -> int array * int
(** [(label, count)]: component labels in [0..count-1], assigned in order of
    smallest contained vertex. *)

val is_connected : Graph.t -> bool

val count : Graph.t -> int

val vertex_sets : Graph.t -> int list array
(** Component index to its vertices (ascending). *)

val is_vertex_set_connected : Graph.t -> int list -> bool
(** Whether the induced subgraph on the given vertices is connected (an
    empty set is not). One BFS with graph-sized scratch per call: checking
    k sets this way costs O(k·n), so validation uses
    {!first_disconnected}; the tests keep this as its reference. *)

val first_disconnected : Graph.t -> label:int array -> int option
(** [first_disconnected g ~label], where [label.(v)] is the class of [v]
    or negative for a vertex in no class: the smallest class whose
    vertices do not induce a connected subgraph of [g], or [None] if every
    class does. A class no vertex carries is not reported; callers that
    forbid empty classes check for them separately. One pass over all
    classes, O(n + m + L) time and space for L = the largest label + 1,
    with all scratch local to the call. Raises [Invalid_argument] if
    [label] is not of length [n]. *)
