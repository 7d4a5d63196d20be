(** Collections of node-disjoint connected parts (Definition 2.1).

    Parts need not cover every vertex — the paper's lower-bound instance
    (Lemma 3.2) leaves the top path and column connectors unassigned — but
    each part must induce a connected subgraph of the host graph. *)

type t

val of_assignment : Graph.t -> int array -> t
(** [of_assignment g part_of] where [part_of.(v)] is the part index of [v] or
    [-1] for unassigned vertices. Part indices must form a gap-free range
    [0..k-1]. Raises [Invalid_argument] naming the lowest part that is
    empty or induces a disconnected subgraph. Validation is one
    O(n + m) pass over all parts ({!Components.first_disconnected}), not a
    BFS per part, so k singleton parts cost O(n + m) rather than O(k·n). *)

val of_parts : Graph.t -> int list list -> t
(** From explicit vertex lists; parts must be disjoint. *)

val k : t -> int
(** Number of parts. *)

val part_of : t -> int -> int
(** Part index of a vertex, [-1] if unassigned. *)

val members : t -> int -> int array
(** Vertices of a part (ascending). Callers must not mutate. *)

val size : t -> int -> int

val graph : t -> Graph.t
(** The host graph. *)

val internal_diameter : t -> int -> int
(** Diameter of [G[P_i]] for one part. *)

val voronoi : Graph.t -> Lcs_util.Rng.t -> parts:int -> t
(** BFS-Voronoi partition from [parts] random distinct centers: every vertex
    joins its nearest center (ties by BFS order), so each cell is connected
    and the cells cover V. Requires a connected host graph and
    [1 <= parts <= n]. *)

val random_blobs : Graph.t -> Lcs_util.Rng.t -> target_size:int -> t
(** Greedy BFS blobs: repeatedly grow a part from a random unassigned seed
    until it reaches [target_size] (or runs out of unassigned neighbors).
    Covers V with connected parts of roughly uniform size — a different
    shape family from {!voronoi} (whose cell sizes follow the random
    centers). Requires a connected host and [target_size >= 1]. *)

val singletons : Graph.t -> t
(** Every vertex its own part. *)

val whole : Graph.t -> t
(** One part containing every vertex (host must be connected). *)

val grid_rows : Graph.t -> rows:int -> cols:int -> t
(** For a graph generated by {!Generators.grid} with the same dimensions:
    one part per grid row. Row parts are long thin paths — the classic
    hard partition for part-wise aggregation. *)

