(** Distributed shortcut construction on the CONGEST simulator
    (Theorem 1.5, following the [HIZ16a]/[HHW18] recipe).

    The pipeline, every stage executed on {!Lcs_congest.Simulator} with
    1-word bandwidth and measured rounds/messages:

    + {!Lcs_congest.Sync_bfs} builds the tree [T] ([O(D)] rounds);
    + a bottom-up {e detection wave} determines the overcongested edge set
      [O]: every node aggregates, over its surviving subtree, either
      min-hash sketches of the parts below it (randomized variant —
      each part's hashes are computed locally from its id, [R = Θ(log n)]
      repetitions, the harmonic estimator decides [|I_e| >= c]) or the
      explicit sorted part-id list truncated at the threshold
      (deterministic variant, exact decisions). A node buffers until all
      children have reported, decides, and streams its own summary upward —
      [O(D·R)] rounds randomized, [O(D·c)] deterministic, both measured;
    + the per-part blame degrees, part selection and [H_i] assignment are
      replayed via {!Construct.with_fixed_overcongested}. The paper
      delegates this bookkeeping to the [Õ(Q)]-round machinery of
      Lemma 2.8 [HHW18], which we treat as a black box; DESIGN.md §3.3
      records this reproduction boundary.

    The driver doubles [δ] until at least half the parts are selected,
    exactly like {!Construct.auto}. *)

type variant =
  | Randomized of { repetitions : int }
      (** min-hash sketches; [repetitions] is [R]. *)
  | Deterministic  (** truncated part-id lists; exact [O]. *)

type outcome = {
  tree : Lcs_graph.Rooted_tree.t;
  height : int;
  delta : int;  (** accepted δ *)
  threshold : int;  (** [8·δ·height] *)
  result : Construct.result;  (** selection against the distributed [O] *)
  bfs_stats : Lcs_congest.Simulator.stats;
  wave_rounds : int;  (** summed over all δ guesses *)
  wave_messages : int;
  guesses : int;  (** δ-doubling iterations *)
}

val default_repetitions : Lcs_graph.Graph.t -> int
(** [max 8 (4·⌈log₂ n⌉)]. *)

val detection_wave :
  ?domains:int ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  variant:variant ->
  threshold:int ->
  Lcs_graph.Partition.t ->
  Lcs_congest.Tree_info.t ->
  Lcs_util.Bitset.t * Lcs_congest.Simulator.stats
(** One bottom-up wave at a fixed congestion threshold, without a fault
    plan and with hash seed 1; returns the overcongested edge set it
    determined and the measured stats. With [Deterministic] the returned
    set equals the centralized construction's [O] for the same threshold
    (a property the test suite checks). A wave that does not finish
    within the simulator's default [max_rounds] raises
    {!Lcs_congest.Simulator.Round_limit}. [domains] (default 1) shards
    the wave's simulation across that many OCaml domains
    ({!Lcs_congest.Simulator.run_outcome}); observables are identical at
    any value. [par_profile] attaches a wall-clock collector to it. *)

val construct :
  ?obs:Lcs_obs.Obs.t ->
  ?seed:int ->
  ?variant:variant ->
  ?domains:int ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  Lcs_graph.Partition.t ->
  root:int ->
  outcome
(** Full pipeline: {!construct_outcome}'s pipeline run without a fault
    plan. [variant] defaults to [Randomized] with {!default_repetitions};
    [seed] (default 1) drives the hash functions; δ starts at 1. Each
    stage runs under its own round cap: [4n + 64] for the BFS and
    [256 + 8·d·max(payload, 4)] for each wave, [d = max 1 height] and
    [payload] the words of one report ([R] randomized, [threshold + 1]
    deterministic), several times what a fault-free stage takes. When a
    stage does not finish within its cap, as the BFS on a disconnected
    host, [construct] raises {!Lcs_congest.Simulator.Round_limit} with the
    rounds the pipeline ran. [tracer] observes every stage — the BFS and
    each detection wave feed the same sink, so one profile covers the
    whole construction. [?obs] opens a
    ["distributed"] span with one ["distributed.bfs"] child and one
    ["distributed.wave"] child per δ guess (each carrying its simulated
    rounds and a rounds-vs-[O(D + payload)] ledger entry), the accepted
    guess's {!Construct} spans nested alongside. [domains] shards every
    simulated stage (BFS and each wave) across that many OCaml domains;
    the constructed shortcut, stats and trace are identical at any
    value. [par_profile] attaches one wall-clock collector to every
    simulated stage — the BFS and each wave append their rounds to the
    same timeline, so stage gaps show up in the Perfetto export. *)

(** {1 Fault-tolerant pipeline} *)

type report = {
  constructed : outcome option;  (** [Some] when the pipeline finished *)
  failed_stage : string option;  (** ["bfs"] or ["wave"] when it did not *)
  unjoined : int list;  (** nodes the BFS stage failed to reach *)
  pipeline_rounds : int;  (** simulator rounds across all stages run *)
  validated : bool option;
      (** [Deterministic] only: the accepted wave's [O] equals the
          centralized construction's for the same threshold; a [Some
          false] forces [Degraded] — the shortcut would be built against a
          wrong overcongested set *)
}

val construct_outcome :
  ?seed:int ->
  ?variant:variant ->
  ?domains:int ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?faults:Lcs_congest.Fault.t ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  Lcs_graph.Partition.t ->
  root:int ->
  report Lcs_congest.Outcome.t
(** The pipeline under injected faults, degrading stage by stage instead
    of raising; {!construct} is this pipeline without a plan, so a
    [Complete] outcome without [faults] holds exactly what {!construct}
    returns. The per-stage round caps ({!construct}) bound a stage that a
    crashed node keeps from finishing. The shared [faults] injector spans
    all stages sequentially; each stage numbers its rounds from 1, so a
    scheduled crash round fires in {e every} stage that reaches it (a
    node crashed in one stage is crashed again, not resurrected, in the
    next). With [Deterministic], the accepted wave's [O] is checked
    against the centralized construction's ([validated]). *)
