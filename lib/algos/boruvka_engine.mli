(** The shared Borůvka skeleton behind {!Mst}, {!Connectivity} and
    {!Mincut} — fragments merging along per-fragment minimum candidate
    edges, with every fragment-wide step executed as a measured part-wise
    aggregation over a shortcut.

    Each phase performs two part-wise aggregations, each a CONGEST run of
    {!Lcs_partwise.Sim_aggregate} on the simulator:
    + a {e minimum} PA on the current fragment partition delivering every
      fragment its best candidate edge (for MST: the minimum-weight
      outgoing edge of Borůvka's 1926 algorithm);
    + after merging, a {e leader broadcast} PA on the new partition — the
      fragment-identity update every distributed Borůvka needs — whose
      shortcut is then reused by the next phase.

    Shortcut mode selects what the paper compares: the Theorem 3.1
    construction (boosted to a full shortcut), the [D+√n] BFS-tree
    baseline, or no shortcut at all (parts confined to their induced
    subgraphs — the Section 2 cautionary tale). *)

type shortcut_mode =
  | Thm31  (** {!Lcs_shortcut.Boost.full} at auto-detected δ *)
  | Bfs_baseline  (** {!Lcs_shortcut.Baseline.bfs_tree} *)
  | Induced_only  (** empty shortcuts *)

type accounting = {
  phases : int;
  pa_rounds : int;
      (** completion rounds of the aggregations, summed over phases: by
          each one's completion round every member of every part holds
          its aggregate *)
  pa_messages : int;
  max_congestion : int;  (** largest shortcut congestion across phases *)
  final_fragments : int;
}

val run :
  ?obs:Lcs_obs.Obs.t ->
  ?tracer:Lcs_congest.Trace.tracer ->
  ?seed:int ->
  ?mode:shortcut_mode ->
  ?domains:int ->
  ?par_profile:Lcs_congest.Par_profile.t ->
  Lcs_graph.Graph.t ->
  candidate:(fragment_of:(int -> int) -> int -> (int * int) option) ->
  on_merge:(int -> unit) ->
  accounting
(** [run g ~candidate ~on_merge]: [candidate ~fragment_of v] returns
    [Some (key, edge)] — vertex [v]'s proposed outgoing edge with its
    comparison key (minimized lexicographically by [(key, edge)]) — or
    [None] if [v] has nothing to propose. The engine aggregates per
    fragment, calls [on_merge edge] for every edge that actually merges two
    fragments, and repeats until a phase proposes no merges. Keys must lie
    in [0, 2^31) and the host must have fewer than 2^31 edges. [mode]
    defaults to [Thm31].

    [?tracer] observes every aggregation's simulator run through one
    sink. [?obs] opens a ["boruvka"] span with one ["boruvka.phase"] child
    per phase — each nesting its shortcut construction
    (["boruvka.shortcut"]) and its aggregations' ["pa"] spans — updates the
    ["boruvka.merges"] counter / ["boruvka.congestion"] gauge /
    ["pa.rounds"] histogram, and closes with a phases-vs-[⌈log₂ n⌉ + 1]
    ledger entry.

    [domains] (default 1) shards every aggregation's simulator run across
    that many OCaml domains ({!Lcs_congest.Simulator}); the merges, the
    MST and the accounting are identical at any value, only wall time
    changes.

    Set-up happens once per shortcut and once per run. Each phase's
    shortcut is prepared once ({!Lcs_partwise.Sim_aggregate.prepare}):
    its route table, congestion, dilation, round budget and port queues
    serve both aggregations over it — the previous phase's leader
    broadcast and this phase's minimum — and only one phase's
    preparation is alive at a time. One {!Lcs_congest.Simulator.prepare}d host serves every
    aggregation of the run. Neither changes a result, a round count or a
    trace event.

    [par_profile] attaches a wall-clock collector to every aggregation's
    simulator run ({!Lcs_congest.Simulator.run_outcome}). *)
