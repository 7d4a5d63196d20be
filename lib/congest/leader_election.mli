(** Leader election by max-id flooding.

    Every node repeatedly forwards the largest id it has seen; after
    [diameter_bound] quiet-capable rounds all nodes agree on the maximum
    id. The classic KT1 protocol under a known diameter bound — [O(D)]
    rounds, [O(m·D)] messages worst case (improvements refresh waves), in
    practice [O(m)]-ish. Used to pick the BFS root distributedly instead
    of hard-wiring vertex 0. *)

type report = {
  leader : int;  (** the majority candidate among surviving nodes *)
  dissenters : int list;
      (** surviving nodes that ended on a different candidate, ascending *)
  stats : Simulator.stats;
}

val run :
  ?diameter_bound:int ->
  ?tracer:Trace.tracer ->
  Lcs_graph.Graph.t ->
  int * Simulator.stats
(** [run g] returns the elected leader (= max vertex id, which every node
    agrees on) and the stats. It is {!run_outcome}'s election without a
    fault plan, under a round budget of [diameter_bound + 1];
    [diameter_bound] defaults to [n - 1], the always-safe bound (and
    {!run_outcome}'s), so pass the actual diameter for honest O(D)
    rounds. Raises [Failure] when some node ends on another id (the bound
    was too small), {!Simulator.Round_limit} if the budget outlasts the
    simulator's default [max_rounds], and [Invalid_argument] on an empty
    graph. [tracer] is forwarded to {!Simulator.run_outcome}. *)

val run_outcome :
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  Lcs_graph.Graph.t ->
  report Outcome.t
(** Max-id flooding under injected faults. Flooding is idempotent, so
    duplication and reordering are harmless by construction; loss within
    the round budget or a crash can leave survivors split, which is
    reported ([dissenters] = the degradation's [affected]) instead of
    {!run}'s [Failure]. The diameter bound is the always-safe [n - 1]. A
    [Complete] outcome means every node survived and unanimously elected
    the maximum id. *)
