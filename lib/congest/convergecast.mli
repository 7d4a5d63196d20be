(** Tree convergecast: an associative-commutative combine of one value per
    node, delivered to the root.

    Leaves send immediately; an internal node forwards once all its children
    have reported. One word per tree edge; [height + 1] rounds. *)

val run :
  ?tracer:Trace.tracer ->
  Lcs_graph.Graph.t ->
  Tree_info.t ->
  values:int array ->
  combine:(int -> int -> int) ->
  int * Simulator.stats
(** [run g info ~values ~combine] returns the combined value at the root
    and the measured stats. [tracer] is forwarded to {!Simulator.run}.

    This raw program stays beside {!run_outcome}, which is not it run
    without a plan: the outcome program also sends probes down the tree,
    which exist only so that the ARQ it runs over can detect a dead
    child, and they cost messages and rounds. A fault-free count on a
    tree in one word per tree edge and [height + 1] rounds — such as
    Theorem 1.5's success test, run in the model — is this program. *)

(** {1 Fault-tolerant entry point} *)

type report = {
  total : int;  (** the root's accumulator *)
  included : int list;
      (** nodes whose values provably reached the root, ascending (the
          root is always included) *)
  excluded : int list;  (** the complement, ascending *)
  validated : bool;
      (** [total] equals the sequential [combine] over [included]'s
          values — the post-hoc correctness check; requires [combine]
          associative and commutative, as {!run} already does *)
  rstats : Simulator.stats;
  retransmissions : int;
}

val run_outcome :
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  Lcs_graph.Graph.t ->
  Tree_info.t ->
  values:int array ->
  combine:(int -> int -> int) ->
  report Outcome.t
(** Convergecast under injected faults. The outcome-mode protocol differs
    from {!run} in one respect: parents periodically probe children that
    have not reported, so the {!Reliable} transport (default
    configuration), which the protocol always runs over, can detect a
    crashed child — ARQ dead-link detection fires only on the
    sender side, and plain convergecast never sends downward. When a
    child's channel dies the parent stops waiting and forwards the
    partial combine of the subtrees that did report. [Complete]
    guarantees [total] is the full combine; [Degraded] names exactly the
    [excluded] nodes and still validates [total] against a sequential
    recomputation over [included] — a failed validation marks every node
    affected rather than returning a silently wrong aggregate. The run
    gets [1024 + 32·(height + 1)] rounds, as {!Broadcast.run_outcome}. *)
