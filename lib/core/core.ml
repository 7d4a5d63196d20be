(** Public umbrella API of the low-congestion-shortcuts library.

    One alias per module of the underlying layers, so applications write
    [Core.Graph], [Core.Construct], [Core.Aggregate], ... and link a single
    library. The examples in [examples/] exercise exactly this surface. *)

(* Utilities *)
module Rng = Lcs_util.Rng
module Stats = Lcs_util.Stats
module Table = Lcs_util.Table
module Bitset = Lcs_util.Bitset
module Pqueue = Lcs_util.Pqueue
module Json = Lcs_util.Json
module Vec = Lcs_util.Vec
module Intvec = Lcs_util.Intvec

(* Observability *)
module Obs = Lcs_obs.Obs
module Analyze = Lcs_analyze.Analyze

(* Graphs *)
module Graph = Lcs_graph.Graph
module Builder = Lcs_graph.Builder
module Generators = Lcs_graph.Generators
module Bfs = Lcs_graph.Bfs
module Rooted_tree = Lcs_graph.Rooted_tree
module Union_find = Lcs_graph.Union_find
module Components = Lcs_graph.Components
module Diameter = Lcs_graph.Diameter
module Partition = Lcs_graph.Partition
module Minor = Lcs_graph.Minor
module Weights = Lcs_graph.Weights
module Lower_bound_graph = Lcs_graph.Lower_bound_graph
module Dfs = Lcs_graph.Dfs
module Graph_io = Lcs_graph.Graph_io

(* CONGEST simulator *)
module Simulator = Lcs_congest.Simulator
module Simulator_ref = Lcs_congest.Simulator_ref
module Par_profile = Lcs_congest.Par_profile
module Trace = Lcs_congest.Trace
module Fault = Lcs_congest.Fault
module Reliable = Lcs_congest.Reliable
module Outcome = Lcs_congest.Outcome
module Sync_bfs = Lcs_congest.Sync_bfs
module Tree_info = Lcs_congest.Tree_info
module Broadcast = Lcs_congest.Broadcast
module Convergecast = Lcs_congest.Convergecast
module Leader_election = Lcs_congest.Leader_election

(* Shortcuts *)
module Shortcut = Lcs_shortcut.Shortcut
module Quality = Lcs_shortcut.Quality
module Construct = Lcs_shortcut.Construct
module Boost = Lcs_shortcut.Boost
module Baseline = Lcs_shortcut.Baseline
module Certificate = Lcs_shortcut.Certificate
module Minor_density = Lcs_shortcut.Minor_density
module Distributed = Lcs_shortcut.Distributed

(* Part-wise aggregation *)
module Aggregate = Lcs_partwise.Aggregate
module Schedule = Lcs_partwise.Schedule
module Sim_aggregate = Lcs_partwise.Sim_aggregate

(* Resilience *)
module Supervisor = Lcs_resilience.Supervisor
module Chaos = Lcs_resilience.Chaos

(* Algorithms *)
module Boruvka_engine = Lcs_algos.Boruvka_engine
module Mst = Lcs_algos.Mst
module Kruskal = Lcs_algos.Kruskal
module Connectivity = Lcs_algos.Connectivity
module Mincut = Lcs_algos.Mincut
module Stoer_wagner = Lcs_algos.Stoer_wagner
module Sssp = Lcs_algos.Sssp
module Dijkstra = Lcs_algos.Dijkstra
module Karger = Lcs_algos.Karger
