(** Tree broadcast: the root's value is delivered to every node.

    One word per tree edge; [height + 1] rounds. *)

type report = {
  values : int option array;  (** [None] at nodes the value never reached *)
  unreached : int list;  (** nodes without the (correct) value, ascending *)
  stats : Simulator.stats;
  retransmissions : int;  (** ARQ retransmitted frames; 0 when raw *)
}

val run_outcome :
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  ?reliable:bool ->
  ?config:Reliable.config ->
  Lcs_graph.Graph.t ->
  Tree_info.t ->
  value:int ->
  report Outcome.t
(** Broadcast under injected faults, degrading gracefully instead of
    raising. [reliable] (default true) runs the protocol over the
    {!Reliable} ARQ so loss, duplication and reordering are absorbed; only
    crashes (and round exhaustion) can then degrade the result.
    [Complete] guarantees every node holds the root's value; [Degraded]
    lists exactly the nodes that do not ([unreached] = the degradation's
    [affected]) — every value that {e is} present equals the root's, which
    this function checks rather than assumes. The run gets
    [1024 + 32·(height + 1)] rounds; note a run with unreached nodes
    always spends them all, since an unreached node cannot locally decide
    to stop waiting. [tracer] is forwarded to
    {!Simulator.run_outcome}. *)

val run :
  ?tracer:Trace.tracer ->
  Lcs_graph.Graph.t ->
  Tree_info.t ->
  value:int ->
  int array * Simulator.stats
(** [run g info ~value] returns each node's received value and the
    measured stats: {!run_outcome} raw ([reliable = false]) and without a
    fault plan. If the tree misses a node, that node waits for the value
    until the [1024 + 32·(height + 1)] rounds are spent, and the run
    raises {!Simulator.Round_limit}. *)
