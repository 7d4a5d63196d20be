(** Distributed minimum spanning tree (Corollary 1.6): Borůvka's algorithm
    with every fragment-wide step a measured part-wise aggregation over a
    shortcut.

    With the Theorem 3.1 shortcuts each of the [O(log n)] phases costs
    [Õ(δD)] rounds, giving the corollary's [Õ(δD)] total; with the BFS-tree
    baseline the same phases cost [Θ(D + √n)]. The output is checked
    against {!Kruskal} in the tests (distinct weights make the MST
    unique). *)

type result = {
  edges : int list;  (** MST edge ids, ascending *)
  weight : int;
  accounting : Boruvka_engine.accounting;
}

val boruvka :
  ?obs:Lcs_obs.Obs.t ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?seed:int ->
  ?mode:Boruvka_engine.shortcut_mode ->
  ?domains:int ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  Lcs_graph.Weights.t ->
  result
(** Requires a connected host graph (the result then has [n-1] edges).
    [?obs] wraps the run in an ["mst"] span over {!Boruvka_engine.run}'s
    span tree (mst → boruvka → boruvka.phase → pa → pa.epoch); [?tracer]
    observes the underlying simulator runs. [domains] (default 1) shards
    every aggregation's run across that many domains
    ({!Lcs_congest.Simulator} via {!Lcs_partwise.Sim_aggregate}); the MST
    and the accounting are the same at any value. [par_profile] attaches
    a wall-clock collector to those runs. *)
