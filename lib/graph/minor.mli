(** Graph minors: contraction, density, and minor-model verification.

    The paper's central parameter is the minor density
    [δ(G) = max |E'|/|V'|] over all minors [H=(V',E')] of [G]. Exact
    computation is NP-hard; this module supplies the machinery the rest of
    the repository needs: contracting a branch-set assignment into an
    explicit minor, measuring its density (a certified lower bound on δ),
    and verifying that a claimed minor model is genuine — used to check the
    dense-minor certificates of Theorem 3.1's case (II). *)

type model = {
  branch_sets : int list array;
      (** [branch_sets.(i)] = host vertices mapped to minor vertex [i]. *)
  minor_edges : (int * int) list;
      (** Edges of the minor, as pairs of minor vertex indices. *)
}

val contract : Graph.t -> assignment:int array -> Graph.t
(** [contract g ~assignment] where [assignment.(v)] is a minor-vertex index
    or [-1] (vertex deleted). Produces the graph whose vertices are the used
    indices (compacted to a gap-free range in increasing index order) and
    whose edges are host edges between distinct branch sets, deduplicated.
    Raises [Invalid_argument] naming the lowest compacted index whose branch
    set is disconnected: such an assignment does not define a minor. The
    check is one O(n + m) pass over all branch sets. *)

val verify : Graph.t -> model -> (unit, string) result
(** Checks that the model is a genuine minor of the host: branch sets
    non-empty, disjoint, each inducing a connected subgraph, and every
    minor edge witnessed by a host edge between the two branch sets. The
    error names the first problem in that order; connectivity is one
    O(n + m) pass that reports the lowest disconnected branch set. *)

val of_components : Graph.t -> keep_edge:(int -> bool) -> int array
(** Assignment mapping each vertex to its connected component in the
    subgraph of edges satisfying [keep_edge]; a convenient way to produce
    contraction assignments. *)
