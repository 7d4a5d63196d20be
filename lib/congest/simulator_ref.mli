(** Reference CONGEST simulator core — the historical list/Hashtbl
    implementation, retained verbatim as the semantic baseline for
    {!Simulator}'s flat-array (CSR) message plane.

    Every type is an alias of {!Simulator}'s, so one
    {!Simulator.program} value runs unchanged on either core. The test
    suite's differential property drives qcheck-generated programs, graphs
    and fault plans through both and demands identical statistics, trace
    event sequences and outcomes; the simulator macro-benchmarks
    ([bench/sim_bench.exe]) use this module as the allocation baseline the
    CSR core is measured against.

    Semantic changes are applied to {e both} cores in lockstep (e.g. the
    crash-time purge of pending delayed deliveries) — this module is a
    mirror, not a museum piece. It keeps {!Simulator.round} in lockstep
    too, but is deliberately {e hint-oblivious}: it steps every live node
    in every round, ignoring [wake], and checks each hint instead — a
    node stepped in a round before its wake round with an empty inbox
    must send nothing and must not halt, or the run raises
    [Invalid_argument]. Together with the differential comparison of
    final states, this proves the production core's sleeping nodes and
    fast-forwarded rounds unobservable. Do not use it outside tests and
    benchmarks; it allocates per round and per message. *)

val run_outcome :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  Lcs_graph.Graph.t ->
  ('state, 'msg) Simulator.program ->
  'state Simulator.run_result
(** Exactly {!Simulator.run_outcome}, on the reference core. *)

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?tracer:Trace.tracer ->
  ?faults:Fault.t ->
  Lcs_graph.Graph.t ->
  ('state, 'msg) Simulator.program ->
  'state array * Simulator.stats
(** Exactly {!Simulator.run}, on the reference core: raises
    {!Simulator.Round_limit} when [max_rounds] elapse. *)
