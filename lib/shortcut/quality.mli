(** Measuring shortcut quality: congestion, dilation, block number.

    Congestion (Def 2.2 II): the maximum, over host edges, of the number of
    parts whose [H_i] contains the edge. Dilation (Def 2.2 I): the maximum,
    over covered parts, of the diameter of [G[P_i] + H_i]. Quality = their
    sum. For tree-restricted shortcuts the block number (Def 2.3) of part
    [P_i] is the number of connected components of [(P_i ∪ V(H_i), H_i)];
    Observation 2.6 bounds dilation by [b(2D+1)], which the tests verify
    against these measurements. *)

type report = {
  congestion : int;
  dilation : int;
  quality : int;  (** congestion + dilation *)
  max_block_number : int;
  covered : int;  (** number of covered parts (measured parts) *)
  per_part_dilation : int array;  (** -1 for uncovered parts *)
  per_part_blocks : int array;  (** -1 for uncovered parts *)
  edge_load : int array;  (** per host edge: number of parts using it *)
}

val congestion : Shortcut.t -> int

val edge_load : Shortcut.t -> int array

type edge_marks
(** Host-edge marks that dedupe one part's edges at a time; one set serves
    every part of a shortcut. *)

val edge_marks : Lcs_graph.Graph.t -> edge_marks
(** Fresh marks for a host graph. *)

val iter_part_edges :
  edge_marks ->
  Shortcut.t ->
  int ->
  member:(int -> unit) ->
  edge:(int -> int -> int -> unit) ->
  unit
(** [iter_part_edges marks sc i ~member ~edge] enumerates the subgraph
    [S_i = G[P_i] + H_i], the one place that decides its edges: for each
    member [v] of [P_i], in {!Lcs_graph.Partition.members} order, [member v]
    and then [edge e v w] for every host edge [e] from [v] to a member
    [w > v]; then [edge e u w] for every edge of [H_i]. Each edge id is
    reported once, the first time it is met; an isolated member still
    gets its [member] call. *)

val part_subgraph : Shortcut.t -> int -> Lcs_graph.Graph.t
(** [G[P_i] + H_i] as a standalone graph: the members of part [i] and
    every endpoint of an [H_i] edge, renumbered from 0, with the host
    edges internal to [P_i] plus [H_i]. Its diameter is the part's
    dilation. *)

val dilation : ?exact_limit:int -> Shortcut.t -> int
(** Max over covered parts. Uncovered parts are skipped: a partial
    shortcut's dilation speaks only for the parts it serves. A part's
    value is [Diameter.exact (part_subgraph sc i)] when [S_i] has at most
    [exact_limit] vertices (default 4096), computed without building that
    graph: every part's adjacency is laid out in one set of host-sized
    int arrays, allocated once per call. Larger parts take the
    double-sweep lower bound ({!Lcs_graph.Diameter.estimate}) of
    [part_subgraph sc i]. Only the maximum is exact, and it takes two
    passes. The first, in index order, bounds each part by
    {!Lcs_graph.Diameter.sweep_csr} (skipping its second BFS when the
    first cannot beat the largest lower bound so far). The second measures
    exactly, largest upper bound first, only the parts whose upper bound
    still beats the best value so far, each only while it can beat it.
    Raises [Invalid_argument] for the first covered part, in index order,
    whose [S_i] is disconnected. *)

val part_blocks : Shortcut.t -> int -> int
(** Block number of one part: connected components of
    [(P_i ∪ V(H_i), H_i)]. Meaningful for tree-restricted shortcuts.
    [part_blocks sc] allocates one host-sized union-find; applied to a
    part it touches only that part's vertices and resets them, so
    [let blocks = part_blocks sc in] counts every part of [sc] in
    [O(n + Σ|P_i| + Σ|H_i|)] time. *)

val measure : ?exact_limit:int -> Shortcut.t -> report
(** Every measurement at once, sharing one set of host-sized tables
    across the parts: [O(n + m)] words of allocation on top of the
    report, whatever the number of parts. *)

type part_traffic = {
  part : int;
  hi_edges : int;  (** [|H_i|] *)
  internal_edges : int;  (** host edges internal to [P_i] *)
  words : float;  (** fair share of the traced words on [G[P_i] + H_i] *)
  share : float;  (** [words] as a fraction of all traced words *)
  max_load : int;  (** worst Def 2.2 load over the part's [H_i] edges *)
}

val traffic : Shortcut.t -> edge_words:int array -> part_traffic array
(** Join a per-edge word-count array (e.g.
    [Lcs_congest.Trace.Profile.edge_words]) against the shortcut: each
    part is attributed the words on its [G[P_i] + H_i] edges, with an
    edge used by several parts split evenly among its users, so the
    attributed words sum to the words on shortcut-relevant edges. Raises
    [Invalid_argument] if the array length is not [Graph.m host]. *)

val traffic_to_json : part_traffic array -> Lcs_util.Json.t

val pp_report : Format.formatter -> report -> unit
