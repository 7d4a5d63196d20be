(** Part-wise aggregation (Definition 2.1) as genuine
    {!Lcs_congest.Simulator} programs — the one engine behind every
    aggregation in this repository: the experiments, [Mst.boruvka] and
    its relatives at every domain count, the CLI and the pipeline
    benchmark.

    Every node multiplexes the parts it serves over its links under the
    simulator's enforced 1-word bandwidth, choosing each round's word per
    port by the part's schedule priority (the random delay of
    {!Schedule}, FIFO among equals). Two programs share that machinery:
    {!minimum} floods each part's minimum through its shortcut subgraph
    [S_i = G[P_i] + H_i], and {!sum} convergecasts and broadcasts along a
    per-part BFS tree of [S_i], so every value counts exactly once. With a
    (c,d)-shortcut both complete in [O(c + d·log n)] rounds
    ({!Aggregate.bound}).

    Cost follows the messages, not nodes × rounds: the per-node state
    lives in flat arrays — the route table (the parts each node serves
    and their ports) built once per shortcut ({!prepare}), and one
    unboxed heap of (delay, FIFO sequence)-keyed words per port that
    each run over a preparation hands to the next — a stepped node of
    {!minimum} allocates nothing per word it sends, and a
    node whose port queues are empty
    sleeps until mail arrives or its halting round comes (its
    {!Lcs_congest.Simulator.program} wake hint), so the rounds after
    convergence are fast-forwarded.

    {b Words.} A {!minimum} word is one immediate int,
    [(part lsl b) lor origin] with [b = ⌈log₂ n⌉], where [origin] is the
    member whose input value the word forwards: two ⌈log₂ n⌉-bit fields,
    one CONGEST word. This is the simulator's encoding of the model's
    (part, value) word, and it is exact for a minimum: a node forwards
    only a value that improves on the best it holds, and every value in
    flight is some member's input, so the receiver reads
    [values.(origin)] and compares exactly the value a (part, value)
    word would carry. Rounds, messages, traces and answers are those of
    the (part, value) flood, and no word is a heap block. {!sum}'s words
    carry partial sums, which are no member's input, so they stay
    (part, value) pairs. *)

type result = {
  minima : int array;
      (** per part: the aggregate every member holds — the minimum for
          {!minimum}, the leader's token for {!broadcast}, the sum for
          {!sum} *)
  rounds : int;
      (** simulator rounds executed: the budget + O(1) for {!minimum},
          the round the last node halted for {!sum} *)
  completion_round : int;
      (** the round by which every member of every part holds its
          aggregate — the measured aggregation time *)
  messages : int;
  stats : Lcs_congest.Simulator.stats;
}

(** {1 Prepared shortcuts} *)

type prepared
(** What every aggregation over one shortcut needs before its first
    round: the route table (each node's served parts and their ports in
    [S_i]), the congestion, the dilation (measured on first use) and the
    default round budget — plus, optionally, a prepared simulator host.
    Any number of runs may share it one after another, and, when it has
    no host (a host serves one run at a time), at once. A finished
    {!minimum}, {!broadcast} or {!minimum_outcome} leaves its port queues
    and per-part best values for the next run over the preparation, which
    resets them before its first round; a run that finds them taken makes
    its own. They die with the preparation. *)

val prepare : ?host:Lcs_congest.Simulator.host -> Lcs_shortcut.Shortcut.t -> prepared
(** [prepare shortcut] builds the route table and measures the
    congestion. A caller that runs several aggregations over one shortcut
    prepares it once and passes the result as [?prepared]; a call without
    it prepares its own. [host], prepared for the shortcut's graph, serves
    every simulator run over this preparation, so a caller that runs over
    several shortcuts of one graph, as Borůvka does, sets up the
    simulator once too. *)

val budget : prepared -> int
(** The round budget {!minimum} runs: [4·(c + d·⌈log₂ n⌉) + 32] with
    (c,d) measured from the shortcut. Measuring the dilation is the
    costly part; it happens once per preparation. *)

val congestion : prepared -> int
(** The shortcut's congestion [c] (Definition 2.2), measured by
    {!prepare}. *)

(** {1 Aggregations} *)

val minimum :
  ?prepared:prepared ->
  ?policy:Schedule.policy ->
  ?domains:int ->
  ?obs:Lcs_obs.Obs.t ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  result
(** [minimum rng shortcut ~values]: every part's minimum, computed by
    flooding inside each part's shortcut subgraph under the simulator —
    {!minimum_outcome}'s raw run ([reliable = false]) without a fault
    plan, whose [Complete] report it returns.
    Termination: nodes run for a round budget (local knowledge cannot
    detect global quiescence without extra machinery), {!budget} —
    generous enough for the schedule bound — and the returned
    [completion_round] shows the real finish time. [prepared] (default:
    prepared for this call) must come from {!prepare} on this very
    shortcut, or the call raises [Invalid_argument]; it changes cost,
    never a result. Raises [Invalid_argument] if the graph has 2{^31}
    nodes or more, which the word layout cannot address, and [Failure]
    if some part had not converged within the budget (the outcome is
    [Degraded]). [policy] (default {!Schedule.Random_delay}) sets the parts'
    priorities, the ablation axis of experiment E14. [tracer] observes
    the underlying {!Lcs_congest.Simulator} run — its per-edge profile is
    how E7-style experiments see the congestion {e distribution} rather
    than just the maximum. [domains] (default 1) shards the simulation
    across that many OCaml domains ({!Lcs_congest.Simulator}); all
    observables — minima, rounds, stats, trace — are identical at any
    value. [par_profile] attaches a wall-clock collector to the simulator
    ({!Lcs_congest.Simulator.run_outcome}): per-domain timelines, barrier
    waits and the cross-shard traffic matrix, without touching any
    observable. [?obs] opens a ["pa"] span with ["pa.setup"] /
    ["pa.run"] children, cuts the run into ["pa.epoch"] spans at the
    schedule's epoch boundaries ({!Schedule.epochs}), and records
    rounds-vs-[c + d·log n] (observed = completion round) and
    per-edge-words-vs-congestion ledger entries. *)

val broadcast :
  ?prepared:prepared ->
  ?domains:int ->
  ?obs:Lcs_obs.Obs.t ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  leaders:int array ->
  result
(** Definition 2.1's second form: [leaders.(i)] is a vertex of part [i]
    whose token must reach the whole part. Implemented as a {!minimum}
    over values that single out the leader, so [minima] holds the
    leaders' ids. Raises [Invalid_argument] unless there is one leader
    per part, inside its part, or if [prepared] belongs to another
    shortcut. *)

val sum :
  ?tracer:Lcs_congest.Trace.tracer ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  result
(** Non-idempotent aggregation: every member of each part learns the sum
    of its part's values (helpers of [S_i] contribute 0). Each part's BFS
    tree of [S_i] from its first member is fixed at setup; leaves report
    up, every node passes its subtree's sum to its parent once all its
    children have reported, and the root's total travels back down. All
    parts share the links under the random-delay schedule. Each part
    sends exactly [2·(|S_i| - 1)] words, counting the vertices of [S_i]
    its root reaches; a node halts once it holds the total of every part
    it serves and has sent all its words, so the run needs no budget.
    Raises [Failure] if a member is unreachable from its part's root in
    [S_i] (a broken shortcut). Traced words carry phase ["pa.up"] or
    ["pa.down"]. *)

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
  ?prepared:prepared ->
  ?budget_factor:int ->
  ?domains:int ->
  ?obs:Lcs_obs.Obs.t ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?faults:Lcs_congest.Fault.t ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  ?reliable:bool ->
  Lcs_util.Rng.t ->
  Lcs_shortcut.Shortcut.t ->
  values:int array ->
  report Lcs_congest.Outcome.t
(** The flood under injected faults, degrading gracefully instead of
    raising [Failure]; {!minimum} is this run, raw and without a plan.
    [reliable] (default true) runs the flooding over the
    {!Lcs_congest.Reliable} ARQ (default configuration) with an 8× round
    budget (the ARQ costs a data/ack round trip per hop) and [budget +
    512] simulator rounds; raw mode keeps {!minimum}'s budget and
    [budget + 8] rounds, and relies on min-flooding's natural idempotence
    (duplicates and reordering are harmless; only loss and crashes bite).
    [budget_factor] (default 1) multiplies that round budget, so a run
    gets [(8 if reliable else 1) · budget_factor ·] {!budget}: the
    resilience supervisor's grown budgets. [prepared] (default: prepared
    for this call) must come from {!prepare} on this very shortcut, as
    for {!minimum}: a caller that runs several attempts over one
    shortcut — a retry ladder, a chaos campaign's cells — prepares it
    once, and the outcome, report and statistics equal those over a
    fresh preparation. The validator checks, part by part,
    that every surviving member holds exactly the surviving minimum;
    failing parts are listed in [diverged] and their surviving members
    become the degradation's [affected]. [Complete] therefore coincides
    with {!minimum}'s fault-free postcondition when no faults were
    injected. [?obs] opens the same ["pa"]/["pa.setup"]/["pa.run"]/
    ["pa.epoch"] span shape and ledger entries as {!minimum}, so faulty
    runs report spans too. *)
