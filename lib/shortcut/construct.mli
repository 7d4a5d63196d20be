(** The Theorem 3.1 construction: tree-restricted partial shortcuts with
    congestion at most [c = 8δD] and block number at most [8δ], or —
    through {!Certificate} — a minor of density exceeding [δ].

    The algorithm processes tree edges in order of decreasing depth. For a
    tree edge [e] with lower endpoint [v_e], [I_e] is the set of parts
    intersecting the descendants of [v_e] in [T \ O], where [O] is the set
    of edges already declared overcongested; when [|I_e| >= c] the edge [e]
    joins [O]. The bipartite blame graph [B] records which parts made which
    edges overcongested. Parts whose blame degree is at most the block
    budget receive their ancestor edges in [T \ O] as shortcut; Theorem 3.1
    proves that, when [c = 8δ(G)·D] and the budget is [8δ(G)], at least
    half of the parts qualify. *)

type blame_entry = {
  edge : int;  (** overcongested tree edge id *)
  lower : int;  (** its lower endpoint [v_e] *)
  parts : (int * int) array;
      (** [I_e] as [(part, representative)] pairs: the representative is a
          vertex of the part that is a descendant of [v_e] in [T \ O]. *)
}

type result = {
  partition : Lcs_graph.Partition.t;
  tree : Lcs_graph.Rooted_tree.t;
  threshold : int;  (** the congestion parameter [c] *)
  block_budget : int;
  overcongested : Lcs_util.Bitset.t;  (** edge ids of [O] *)
  overcongested_count : int;
  blame_degree : int array;  (** per part: degree in the blame graph [B] *)
  selected : bool array;  (** parts with blame degree <= block budget *)
  selected_count : int;
  shortcut : Shortcut.t;  (** partial: covered exactly on selected parts *)
  blame : blame_entry list;  (** non-empty only when [record_blame] *)
}

val run :
  ?obs:Lcs_obs.Obs.t ->
  ?record_blame:bool ->
  Lcs_graph.Partition.t ->
  tree:Lcs_graph.Rooted_tree.t ->
  threshold:int ->
  block_budget:int ->
  result
(** The raw parameterized construction. [record_blame] (default false)
    retains the full [I_e] lists for certificate extraction and tracing.
    With [?obs] the run opens a ["construct"] span with
    ["construct.sweep"] / ["construct.assign"] children and records
    congestion (vs [threshold]) and block-number (vs budget + 1) ledger
    entries — the measurements run only when a collector is installed. *)

val with_fixed_overcongested :
  ?obs:Lcs_obs.Obs.t ->
  ?record_blame:bool ->
  Lcs_graph.Partition.t ->
  tree:Lcs_graph.Rooted_tree.t ->
  over:Lcs_util.Bitset.t ->
  threshold:int ->
  block_budget:int ->
  result
(** Replay the selection machinery (blame graph, part selection, [H_i]
    computation) against an externally supplied overcongested-edge set [O]
    — the one determined by the {!Distributed} protocols. [threshold] is
    recorded in the result but takes no decisions. *)

val for_delta :
  ?obs:Lcs_obs.Obs.t ->
  ?record_blame:bool ->
  Lcs_graph.Partition.t ->
  tree:Lcs_graph.Rooted_tree.t ->
  delta:int ->
  result
(** Theorem 3.1 parameters: [threshold = 8·delta·D] and
    [block_budget = 8·delta], with [D] the tree height (at least 1). *)

val succeeded : result -> bool
(** At least half of the parts were selected — the partial-shortcut
    guarantee of Theorem 3.1. When this fails, [delta] underestimates
    [δ(G)] and {!Certificate.extract} can produce a witness. *)

val auto :
  ?obs:Lcs_obs.Obs.t ->
  ?initial_delta:int ->
  Lcs_graph.Partition.t ->
  tree:Lcs_graph.Rooted_tree.t ->
  result * int
(** Doubling search over [delta] starting at [initial_delta] (default 1)
    until {!succeeded}; returns the successful result and the accepted
    [delta]. Theorem 3.1 guarantees acceptance at some
    [delta < 2·max(δ(G), initial_delta)], so the returned quality is
    [O(δ(G)·D)]. Always terminates: once [threshold] exceeds [k] no edge
    can be overcongested. *)
