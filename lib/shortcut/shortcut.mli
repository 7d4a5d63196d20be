(** Low-congestion shortcuts (Definition 2.2).

    For a collection of node-disjoint connected parts [P_1..P_k] of a host
    graph, a shortcut assigns each part a set [H_i] of host edges. The
    figures of merit — congestion, dilation, quality — are measured by
    {!Quality}. A shortcut may be {e partial}: parts that received no
    shortcut are distinguished from parts that received the empty shortcut
    by the [covered] flag. *)

type t

val create :
  ?covered:bool array ->
  Lcs_graph.Partition.t ->
  int list array ->
  t
(** [create partition edge_sets] where [edge_sets.(i)] lists the host edge
    ids of [H_i]. [covered] defaults to all-true (a full shortcut); a
    partial shortcut marks the parts it serves. Raises [Invalid_argument]
    on an arity mismatch or out-of-range edge ids. *)

val partition : t -> Lcs_graph.Partition.t
val graph : t -> Lcs_graph.Graph.t

val k : t -> int
(** Number of parts. *)

val edges : t -> int -> int list
(** [H_i] of part [i] (empty for uncovered parts). Fresh list — a compat
    shim over {!edges_array}; prefer the array on hot paths. *)

val edges_array : t -> int -> int array
(** [H_i] of part [i] as the shortcut's own flat storage: O(1), no
    allocation, read-only — callers must not mutate it. This is what
    {!Quality} folds over. *)

val is_covered : t -> int -> bool

val is_partial : t -> bool
(** True if some part is uncovered. *)

val empty : Lcs_graph.Partition.t -> t
(** The trivial full shortcut [H_i = ∅]: parts only use their own induced
    edges. The baseline every measurement compares against. *)

val union : t -> t -> t
(** Part-wise union of edge sets; a part is covered if it is covered in
    either operand. The two shortcuts must share their partition. Used by
    the Observation 2.7 boosting loop. *)

val total_edge_occurrences : t -> int
(** Sum over parts of [|H_i|]; the communication footprint. *)

