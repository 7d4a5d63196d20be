(** Graph diameter (hop metric).

    [exact] prunes an all-pairs search with eccentricity bounds; [estimate]
    uses the iterated double-sweep heuristic plus an eccentricity upper
    bound and is what the experiment harnesses use on large inputs. All
    functions raise [Invalid_argument] on disconnected graphs. *)

val exact : Graph.t -> int
(** The largest eccentricity, computed by eccentricity-bound pruning
    (BoundingDiameters): each BFS bounds every vertex's eccentricity, and
    vertices whose upper bound cannot exceed the best eccentricity found
    need no BFS of their own. The result equals the all-pairs definition;
    the cost is a few BFS runs on the sparse, tree-like graphs of this
    repository and O(n·m) in the worst case. One distance array and one
    queue serve every BFS. *)

type scratch
(** The work arrays of {!exact}: a distance array, a queue and the
    per-vertex eccentricity bounds. *)

val scratch : int -> scratch
(** [scratch size] serves {!exact_csr} on graphs of at most [size]
    vertices, any number of times. *)

val exact_csr :
  ?beat:int -> scratch -> n:int -> offsets:int array -> neighbors:int array -> int
(** {!exact} over an adjacency held in plain arrays: vertex [v < n] has
    the neighbors [neighbors.(offsets.(v)) .. neighbors.(offsets.(v+1) - 1)].
    The arrays may be longer than the graph needs, so one set can hold
    every graph of a sequence, as [Quality] does for the subgraphs of a
    shortcut's parts. With [beat], the result is the diameter when that
    exceeds [beat] and otherwise some value at most [beat], found with
    fewer BFS runs — what a maximum over many graphs needs. Raises
    [Invalid_argument] exactly as {!exact} does. *)

type bounds = { lower : int; upper : int }

val estimate : ?sweeps:int -> Graph.t -> bounds
(** Iterated double sweep: [lower] is the largest eccentricity seen, [upper]
    is twice the minimum eccentricity seen (tree-like bound). [sweeps]
    defaults to 4. On trees and many practical graphs [lower = upper]
    collapses to the exact value. *)

val of_graph : ?exact_limit:int -> Graph.t -> int
(** [exact] when [n <= exact_limit] (default 2048), otherwise the
    double-sweep lower bound, which is exact on every family the experiment
    harness generates. *)
