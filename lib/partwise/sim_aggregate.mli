(** Part-wise aggregation as a genuine {!Lcs_congest.Simulator} program.

    The dedicated {!Packet_router} simulates the flooding at the packet
    level; this module runs the {e same} protocol as a CONGEST node
    program under the simulator's enforced 1-word bandwidth — every node
    multiplexes the parts it serves over its links, choosing each round's
    message per port by the random-delay priority. It is the engine
    behind [Mst.boruvka ~domains] (at more than one domain) and the
    pipeline benchmark, it cross-checks the router (the tests compare both
    engines' answers and check the round counts agree within a small
    factor), and it shows the full pipeline — BFS, detection waves,
    aggregation — living inside one enforced model.

    Cost follows the messages, not nodes × rounds: the per-node state
    lives in flat arrays built once per run (the parts each node serves
    and their ports, one unboxed heap of (delay, FIFO sequence)-keyed
    words per port), a stepped node allocates only the inbox/outbox lists
    the simulator API requires, and a node whose port queues are empty
    sleeps until mail arrives or its halting round comes (its
    {!Lcs_congest.Simulator.program} wake hint), so the rounds after
    convergence are fast-forwarded.

    A message carries (part, value): two machine integers, each O(log n)
    bits, i.e. one CONGEST word. Termination: nodes run for a caller-given
    round budget (local knowledge cannot detect global quiescence without
    extra machinery); the measured {e completion round} — when every part
    member last improved — is returned alongside. *)

type result = {
  minima : int array;  (** per part *)
  rounds : int;  (** simulator rounds executed (= budget + O(1)) *)
  completion_round : int;  (** last improvement at any part member *)
  messages : int;
  stats : Lcs_congest.Simulator.stats;
}

val minimum :
  ?budget:int ->
  ?domains:int ->
  ?obs:Lcs_obs.Obs.t ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  result
(** [minimum rng shortcut ~values]: every part's minimum, computed by
    flooding inside each part's shortcut subgraph under the simulator.
    [budget] defaults to [4·(c + d·log n) + 32] with (c,d) measured from
    the shortcut — generous enough for the schedule bound, and the
    returned [completion_round] shows the real finish time. Raises
    [Failure] if some part had not converged within the budget. [tracer]
    observes the underlying {!Lcs_congest.Simulator} run — its per-edge
    profile is how E7-style experiments see the congestion {e
    distribution} rather than just the maximum. [domains] (default 1)
    shards the simulation across that many OCaml domains
    ({!Lcs_congest.Simulator}); all observables — minima, rounds,
    stats, trace — are identical at any value. [par_profile] attaches
    a wall-clock collector to the simulator
    ({!Lcs_congest.Simulator.run_outcome}): per-domain timelines,
    barrier waits and the cross-shard traffic matrix, without touching
    any observable. [?obs] opens a ["pa"]
    span with ["pa.setup"] / ["pa.run"] children, cuts the run into
    ["pa.epoch"] spans at the schedule's epoch boundaries
    ({!Schedule.epochs}), and records rounds-vs-[c + d·log n] (observed =
    completion round) and per-edge-words-vs-congestion ledger entries. *)

(** {1 Fault-tolerant entry point} *)

type report = {
  minima : int array;
      (** per part: the minimum over its {e surviving} members' values —
          the reference a degraded run is held to
          ({!Aggregate.surviving_minima}); [max_int] for a part whose
          members all crashed *)
  diverged : int list;
      (** parts where some surviving member holds anything else, ascending *)
  completion_round : int;
  ostats : Lcs_congest.Simulator.stats;
  retransmissions : int;  (** ARQ retransmitted frames; 0 when raw *)
}

val minimum_outcome :
  ?budget:int ->
  ?domains:int ->
  ?max_rounds:int ->
  ?obs:Lcs_obs.Obs.t ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?faults:Lcs_congest.Fault.t ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  ?reliable:bool ->
  ?config:Lcs_congest.Reliable.config ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  report Lcs_congest.Outcome.t
(** {!minimum} under injected faults, degrading gracefully instead of
    raising [Failure]. [reliable] (default true) runs the flooding over
    the {!Lcs_congest.Reliable} ARQ with an 8× round budget (the ARQ
    costs a data/ack round trip per hop); raw mode keeps {!minimum}'s
    budget and relies on min-flooding's natural idempotence (duplicates
    and reordering are harmless; only loss and crashes bite). The
    validator checks, part by part, that every surviving member holds
    exactly the surviving minimum; failing parts are listed in [diverged]
    and their surviving members become the degradation's [affected].
    [Complete] therefore coincides with {!minimum}'s fault-free
    postcondition when no faults were injected. [?obs] opens the same
    ["pa"]/["pa.setup"]/["pa.run"]/["pa.epoch"] span shape and ledger
    entries as {!minimum}, so faulty runs report spans too. *)
