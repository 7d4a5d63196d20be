(** Distributed breadth-first-search tree construction.

    The classic CONGEST protocol: the root floods a join wave; every node
    adopts the first announcement it hears as its parent, notifies the
    parent, convergecasts the subtree height, and the root broadcasts the
    global tree height back down. Completes in [O(D)] rounds with [O(m)]
    messages — both are returned, measured, in {!Simulator.stats}.

    The resulting tree (plus the height known at every node) is the [T] that
    all tree-restricted shortcut machinery runs on. *)

(** {1 Entry points} *)

type report = {
  tree : Lcs_graph.Rooted_tree.t option;
      (** [Some] only when every node joined with consistent depths *)
  parent : int array;  (** [-1] at the root and at unjoined nodes *)
  dist : int array;  (** tree depth; [-1] at unjoined nodes *)
  height : int;  (** global height as known at the root; [-1] if unknown *)
  unjoined : int list;  (** nodes that never joined, ascending *)
  stats : Simulator.stats;
}

val run_outcome :
  ?domains:int ->
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  ?par_profile:Par_profile.t ->
  Lcs_graph.Graph.t ->
  root:int ->
  report Outcome.t
(** BFS construction, under injected faults when [faults] is given. The
    wave protocol counts exact round offsets, so it runs {e raw} (no
    {!Reliable} wrapping — the ARQ stretches the clock); faults therefore
    degrade the result rather than being absorbed. The validator checks
    every joined non-root node has a joined parent exactly one level
    shallower; violators and unjoined nodes form the degradation's
    [affected]. Caveat stated rather than hidden: under message loss a
    [Complete] result is a consistent rooted spanning tree, but a delayed
    adoption can make depths exceed true BFS distances. The run gets
    [4n + 64] rounds. [tracer] is forwarded to the simulator. [domains]
    (default 1) shards the simulation across that many OCaml domains
    (see {!Simulator.run}); every observable is identical at any value.
    [par_profile] attaches a wall-clock collector to the simulator (see
    {!Simulator.run}). *)

val run :
  ?domains:int ->
  ?tracer:Trace.tracer ->
  ?par_profile:Par_profile.t ->
  Lcs_graph.Graph.t ->
  root:int ->
  Lcs_graph.Rooted_tree.t * int * Simulator.stats
(** [run g ~root] is [(tree, height, stats)]: {!run_outcome} without a
    fault plan, whose [Complete] report it unpacks. On a disconnected
    graph some node never joins, and the run raises
    {!Simulator.Round_limit} after its [4n + 64] rounds. *)
