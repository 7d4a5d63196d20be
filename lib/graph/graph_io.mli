(** Serialization of graphs: a plain edge-list text format (round-trips),
    an mmap-able binary format for big graphs (schema [lcs-graph-bin/1]),
    and Graphviz DOT export (for visual inspection of small instances,
    optionally coloring parts). *)

val to_edge_list : Graph.t -> string
(** First line ["n m"], then one ["u v"] line per edge in edge-id order. *)

val of_edge_list : string -> Graph.t
(** Inverse of {!to_edge_list}: one streaming pass, no intermediate list.
    Accepts runs of spaces or tabs between the two fields, CRLF line
    endings, and blank lines. Raises [Invalid_argument] naming the
    offending 1-based line number on malformed input. *)

val to_channel : out_channel -> Graph.t -> unit
(** Stream the edge-list text straight to a channel — nothing of size
    O(m) is ever materialized. *)

val of_channel : in_channel -> Graph.t
(** Streaming {!of_edge_list} from a channel (reads to end of input). *)

val write_file : string -> string -> unit
(** [write_file path contents]. Opens in binary mode, so binary payloads
    and pinned line endings survive on every platform. *)

val read_file : string -> string
(** The whole file, read in binary mode. *)

val write_binary : string -> Graph.t -> unit
(** [write_binary path g] writes the [lcs-graph-bin/1] image of [g]: an
    8-byte magic ["lcsgrb1\n"], little-endian int64 [n] and [m], then the
    CSR sections ([row_off], [col_nbr], [col_edge], [ends_u], [ends_v])
    as little-endian int64 runs. *)

val read_binary : ?mmap:bool -> ?validate:bool -> string -> Graph.t
(** Read an [lcs-graph-bin/1] file. With [mmap] (the default, on
    little-endian hosts) the file is mapped copy-on-write and the graph's
    CSR arrays are O(1) views into the mapping — a 100M-edge graph opens
    in constant copying time. The mapping is private: the file cannot be
    mutated through the graph, and it outlives the file descriptor (which
    is closed before returning). Do not truncate or rewrite the file while
    such a graph is live — the OS may deliver SIGBUS on access. On
    big-endian hosts, or with [~mmap:false], the sections are decoded into
    fresh off-heap arrays instead.

    Header sanity (magic, sizes vs. file length) is always checked in
    O(1); pass [~validate:true] to additionally run {!Graph.validate}'s
    full O(n+m) structural check. The default trusts the CSR invariants,
    which is right only for files the program wrote itself with
    {!write_binary} (a benchmark's own load layer, say): a corrupt row
    offset is then read as is, out of range. Every file from outside —
    each one the [lcs] CLI loads — must pass [~validate:true]. Raises
    [Invalid_argument] on a malformed file. *)

val to_dot : ?partition:Partition.t -> Graph.t -> string
(** Graphviz [graph { ... }]; when [partition] is given, vertices carry a
    [part=i] label and one of a rotating set of fill colors per part. *)

val to_dot_with_edge_style : ?partition:Partition.t -> Graph.t -> style_of_edge:(int -> string option) -> string
(** Like {!to_dot}, additionally styling edges: [style_of_edge e] returns a
    Graphviz attribute string (e.g. ["color=red, penwidth=2"]) or [None]
    for the default. Used to render shortcut edges [H_i] over the host. *)
