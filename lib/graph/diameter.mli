(** Graph diameter (hop metric).

    [exact] prunes an all-pairs search with eccentricity bounds; [estimate]
    uses the iterated double-sweep heuristic plus an eccentricity upper
    bound and is what the experiment harnesses use on large inputs. All
    functions raise [Invalid_argument] on disconnected graphs. *)

val exact : Graph.t -> int
(** The largest eccentricity, computed by eccentricity-bound pruning
    (BoundingDiameters): each BFS bounds every vertex's eccentricity, and
    vertices whose upper bound cannot exceed the best eccentricity found
    need no BFS of their own. The loop opens with a double sweep (see
    {!sweep_csr}), whose second BFS usually finds the diameter; on a tree
    it always does, and the loop stops there. Sources then alternate
    between a central vertex (smallest lower bound) and a peripheral one
    (largest upper bound). The result equals the all-pairs definition,
    whatever the order of sources; the cost is a few BFS runs on the
    sparse, tree-like graphs of this repository and O(n·m) in the worst
    case. One distance array and one queue serve every BFS. *)

type scratch
(** The work arrays of {!exact}: a distance array, a queue and the
    per-vertex eccentricity bounds. *)

val scratch : int -> scratch
(** [scratch size] serves {!exact_csr} on graphs of at most [size]
    vertices, any number of times. *)

val exact_csr :
  ?beat:int -> scratch -> n:int -> offsets:int array -> neighbors:int array -> int
(** {!exact} over an adjacency held in plain arrays, its loop opened by
    the double sweep of {!sweep_csr}. Vertex [v < n] has the neighbors
    [neighbors.(offsets.(v)) .. neighbors.(offsets.(v+1) - 1)].
    The arrays may be longer than the graph needs, so one set can hold
    every graph of a sequence, as [Quality] does for the subgraphs of a
    shortcut's parts. With [beat], the result is the diameter when that
    exceeds [beat] and otherwise some value at most [beat], found with
    fewer BFS runs — what a maximum over many graphs needs. Raises
    [Invalid_argument] exactly as {!exact} does. *)

type bounds = { lower : int; upper : int }

val sweep_csr :
  ?beat:int -> scratch -> n:int -> offsets:int array -> neighbors:int array -> bounds
(** The double sweep that opens {!exact_csr}, on the same arrays: a BFS
    from the vertex of highest degree (the lowest id among ties), then one
    from the farthest vertex it reached. [lower] is the second
    eccentricity and [upper] twice the first, so
    [lower <= exact_csr s ~n ~offsets ~neighbors <= upper]; on a tree
    ([n - 1] edges) [upper = lower], since there a double sweep is exact.
    When twice the first eccentricity is at most [beat] the graph cannot
    beat [beat], and the second BFS is skipped: [lower] is then the first
    eccentricity. Raises [Invalid_argument] exactly as {!exact} does. *)

val estimate : ?sweeps:int -> Graph.t -> bounds
(** Iterated double sweep: [lower] is the largest eccentricity seen, [upper]
    is twice the minimum eccentricity seen (tree-like bound). [sweeps]
    defaults to 4. On trees and many practical graphs [lower = upper]
    collapses to the exact value. *)

val of_graph : ?exact_limit:int -> Graph.t -> int
(** [exact] when [n <= exact_limit] (default 2048), otherwise the
    double-sweep lower bound, which is exact on every family the experiment
    harness generates. *)
