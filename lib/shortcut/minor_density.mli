(** Bounds on the minor density [δ(G)].

    Exact computation is NP-hard; the experiments rely on families with
    analytically known density plus the certified lower bounds computed
    here: the density of any explicitly constructed minor is a lower bound
    on [δ(G)]. *)

val trivial_lower : Lcs_graph.Graph.t -> float
(** [m/n]: the graph is a minor of itself. *)

val partition_lower : Lcs_graph.Graph.t -> Lcs_graph.Partition.t -> float
(** Contract every part to a single vertex (unassigned vertices deleted)
    and return the resulting minor's density — a certified lower bound.
    On {!Lcs_graph.Generators.clique_of_grids} with its block partition
    this recovers exactly [(blocks-1)/2]. *)

val greedy_lower : Lcs_util.Rng.t -> ?restarts:int -> ?steps:int -> Lcs_graph.Graph.t -> float
(** Randomized contraction local search: repeatedly contract a random edge
    and track the best density seen along the way, over several restarts
    (default 8) of at most [steps] (default [n]) contractions. Certified
    lower bound (every intermediate graph is a minor); quality depends on
    luck, hence the restarts. *)

(** Analytic bounds used in the experiment tables (Lemma 3.3 and standard
    facts): *)

val planar_upper : float
(** [< 3] for every planar graph (Euler). *)

val complete_lower : int -> float
(** [δ(K_r) = (r-1)/2]. *)
