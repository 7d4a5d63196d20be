module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Diameter = Lcs_graph.Diameter
module Intvec = Lcs_util.Intvec

type report = {
  congestion : int;
  dilation : int;
  quality : int;
  max_block_number : int;
  covered : int;
  per_part_dilation : int array;
  per_part_blocks : int array;
  edge_load : int array;
}

let edge_load sc =
  let host = Shortcut.graph sc in
  let load = Array.make (Graph.m host) 0 in
  for i = 0 to Shortcut.k sc - 1 do
    Array.iter (fun e -> load.(e) <- load.(e) + 1) (Shortcut.edges_array sc i)
  done;
  load

let congestion sc = Array.fold_left max 0 (edge_load sc)

(* [taken] stamps the host edges the current part already reported; one
   set of marks serves every part of a shortcut, one part at a time. *)
type edge_marks = { taken : int array; mutable stamp : int }

let edge_marks host = { taken = Array.make (Graph.m host) (-1); stamp = 0 }

let iter_part_edges marks sc i ~member ~edge =
  let host = Shortcut.graph sc in
  let partition = Shortcut.partition sc in
  marks.stamp <- marks.stamp + 1;
  let add e u v =
    if marks.taken.(e) <> marks.stamp then begin
      marks.taken.(e) <- marks.stamp;
      edge e u v
    end
  in
  (* The rows are read in place, as [Graph.iter_adj] would walk them,
     so that no closure is made per member. *)
  let offsets = Graph.csr_offsets host and nbrs = Graph.csr_neighbors host in
  let eids = Graph.csr_edges host in
  Array.iter
    (fun v ->
      member v;
      for slot = Intvec.get offsets v to Intvec.get offsets (v + 1) - 1 do
        let w = Intvec.get nbrs slot in
        if v < w && Partition.part_of partition w = i then add (Intvec.get eids slot) v w
      done)
    (Partition.members partition i);
  let ends_u, ends_v = Graph.csr_endpoints host in
  Array.iter
    (fun e -> add e (Intvec.get ends_u e) (Intvec.get ends_v e))
    (Shortcut.edges_array sc i)

(* The subgraph S_i = G[P_i] + H_i of one part at a time, in host-sized
   tables that a measurement allocates once and shares across its parts.
   [local] maps a host vertex to its id in the part being read (-1
   outside it) and is reset after each part; [order] maps the ids back.
   Ids go to the members first, then to the other endpoints of the edges
   as [iter_part_edges] meets them; [ends] holds edge [j] as the id pair
   at [2j], [2j + 1]. [offsets] and [neighbors] hold the part's adjacency
   for [Diameter.exact_csr]. *)
type scratch = {
  local : int array;
  order : int array;
  marks : edge_marks;
  ends : int array;
  offsets : int array;
  neighbors : int array;
  bounds : Diameter.scratch;
}

let scratch host =
  let n = Graph.n host and m = Graph.m host in
  {
    local = Array.make n (-1);
    order = Array.make n 0;
    marks = edge_marks host;
    ends = Array.make (2 * m) 0;
    offsets = Array.make (n + 2) 0;
    neighbors = Array.make (2 * m) 0;
    bounds = Diameter.scratch n;
  }

(* Number part [i]'s subgraph into [s]: its vertex and edge counts. *)
let load s sc i =
  let vertices = ref 0 and edges = ref 0 in
  let intern v =
    if s.local.(v) < 0 then begin
      s.local.(v) <- !vertices;
      s.order.(!vertices) <- v;
      incr vertices
    end;
    s.local.(v)
  in
  Array.iter (fun v -> ignore (intern v)) (Partition.members (Shortcut.partition sc) i);
  iter_part_edges s.marks sc i ~member:ignore ~edge:(fun _ u v ->
      let b = intern v in
      let a = intern u in
      s.ends.(2 * !edges) <- a;
      s.ends.((2 * !edges) + 1) <- b;
      incr edges);
  for x = 0 to !vertices - 1 do
    s.local.(s.order.(x)) <- -1
  done;
  (!vertices, !edges)

(* The loaded subgraph as a standalone graph. *)
let graph_of s ~vertices ~edges =
  let lo = Intvec.init edges (fun j -> min s.ends.(2 * j) s.ends.((2 * j) + 1)) in
  let hi = Intvec.init edges (fun j -> max s.ends.(2 * j) s.ends.((2 * j) + 1)) in
  Graph.of_endpoints ~what:"Quality.part_subgraph" ~n:vertices lo hi

let part_subgraph sc i =
  let s = scratch (Shortcut.graph sc) in
  let vertices, edges = load s sc i in
  graph_of s ~vertices ~edges

(* The loaded subgraph's adjacency rows: counted into [offsets.(x + 2)],
   summed so that [offsets.(x + 1)] starts row [x], then filled by
   advancing [offsets.(x + 1)] to the start of row [x + 1]. *)
let adjacency s ~vertices ~edges =
  let off = s.offsets in
  Array.fill off 0 (vertices + 2) 0;
  for j = 0 to (2 * edges) - 1 do
    let x = s.ends.(j) in
    off.(x + 2) <- off.(x + 2) + 1
  done;
  for x = 2 to vertices + 1 do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  let place x y =
    s.neighbors.(off.(x + 1)) <- y;
    off.(x + 1) <- off.(x + 1) + 1
  in
  for j = 0 to edges - 1 do
    let a = s.ends.(2 * j) and b = s.ends.((2 * j) + 1) in
    place a b;
    place b a
  done

(* The diameter of part [i]'s subgraph: exact within [exact_limit]
   vertices, on the shared adjacency; beyond it the double-sweep estimate
   on the standalone graph, whose numbering its tie-breaks follow. *)
let dilation_in ?(exact_limit = 4096) s sc i =
  let vertices, edges = load s sc i in
  if vertices <= exact_limit then begin
    adjacency s ~vertices ~edges;
    Diameter.exact_csr s.bounds ~n:vertices ~offsets:s.offsets ~neighbors:s.neighbors
  end
  else (Diameter.estimate (graph_of s ~vertices ~edges)).Diameter.lower

(* Only the maximum counts, so it is found in two passes. The first, in
   index order, bounds every covered part by a double sweep while it is
   loaded (so the first disconnected part raises) and keeps the largest
   lower bound; a part whose upper bound cannot beat that bound is done.
   The second takes the parts whose upper bound still beats the best
   value so far, largest upper bound first, and measures each exactly
   only while it can beat that value. It reloads such a part unless its
   adjacency is still the one [s] holds, as a one-part shortcut's is. *)
let dilation ?(exact_limit = 4096) sc =
  let s = scratch (Shortcut.graph sc) in
  let best = ref 0 and pending = ref [] and laid = ref (-1) and laid_n = ref 0 in
  let lay i ~vertices ~edges =
    adjacency s ~vertices ~edges;
    laid := i;
    laid_n := vertices
  in
  for i = 0 to Shortcut.k sc - 1 do
    if Shortcut.is_covered sc i then begin
      let vertices, edges = load s sc i in
      if vertices <= exact_limit then begin
        lay i ~vertices ~edges;
        let b =
          Diameter.sweep_csr ~beat:!best s.bounds ~n:vertices ~offsets:s.offsets
            ~neighbors:s.neighbors
        in
        if b.Diameter.lower > !best then best := b.Diameter.lower;
        if b.Diameter.upper > !best then pending := (b.Diameter.upper, i) :: !pending
      end
      else
        let d = (Diameter.estimate (graph_of s ~vertices ~edges)).Diameter.lower in
        if d > !best then best := d
    end
  done;
  let largest_first (u, _) (v, _) = compare v u in
  List.iter
    (fun (upper, i) ->
      if upper > !best then begin
        if !laid <> i then begin
          let vertices, edges = load s sc i in
          lay i ~vertices ~edges
        end;
        let d =
          Diameter.exact_csr ~beat:!best s.bounds ~n:!laid_n ~offsets:s.offsets
            ~neighbors:s.neighbors
        in
        if d > !best then best := d
      end)
    (List.stable_sort largest_first (List.rev !pending));
  !best

(* Partially applied, this allocates one union-find over the host whose
   entries are -1 outside the part being counted; each part touches only
   its own vertices and resets them, so counting every part of a shortcut
   costs O(n + Σ|P_i| + Σ|H_i|), not O(k·n). *)
let part_blocks sc =
  let host = Shortcut.graph sc in
  let ends_u, ends_v = Graph.csr_endpoints host in
  let n = Graph.n host in
  let parent = Array.make n (-1) and rank = Array.make n 0 and touched = Array.make n 0 in
  let rec root v =
    let p = parent.(v) in
    if p = v then v
    else begin
      let r = root p in
      parent.(v) <- r;
      r
    end
  in
  fun i ->
    let used = ref 0 and joined = ref 0 in
    let touch v =
      if parent.(v) < 0 then begin
        parent.(v) <- v;
        touched.(!used) <- v;
        incr used
      end
    in
    Array.iter touch (Partition.members (Shortcut.partition sc) i);
    Array.iter
      (fun e ->
        let u = Intvec.get ends_u e and v = Intvec.get ends_v e in
        touch u;
        touch v;
        let ru = root u and rv = root v in
        if ru <> rv then begin
          incr joined;
          if rank.(ru) < rank.(rv) then parent.(ru) <- rv
          else begin
            parent.(rv) <- ru;
            if rank.(ru) = rank.(rv) then rank.(ru) <- rank.(ru) + 1
          end
        end)
      (Shortcut.edges_array sc i);
    for a = 0 to !used - 1 do
      parent.(touched.(a)) <- -1;
      rank.(touched.(a)) <- 0
    done;
    !used - !joined

type part_traffic = {
  part : int;
  hi_edges : int;
  internal_edges : int;
  words : float;
  share : float;
  max_load : int;
}

(* Attribute a per-edge word count (a [Trace.Profile.edge_words] array) to
   parts. Every edge of G[P_i] + H_i contributes to part i; an edge used by
   several parts (H-set overlap, or an internal edge another part shortcuts
   through) is split evenly among its users, so the per-part words sum to
   the total words on attributed edges. *)
let traffic sc ~edge_words =
  let host = Shortcut.graph sc in
  let partition = Shortcut.partition sc in
  let m = Graph.m host in
  if Array.length edge_words <> m then
    invalid_arg "Quality.traffic: edge_words length <> Graph.m";
  let k = Shortcut.k sc in
  let load = edge_load sc in
  (* users(e) = H-set multiplicity + 1 if e is internal to some part. *)
  let users = Array.copy load in
  for e = 0 to m - 1 do
    let u, v = Graph.edge_endpoints host e in
    let pu = Partition.part_of partition u in
    if pu >= 0 && pu = Partition.part_of partition v then
      users.(e) <- users.(e) + 1
  done;
  let total = Array.fold_left (fun a w -> a +. float_of_int w) 0. edge_words in
  Array.init k (fun i ->
      let words = ref 0. in
      let internal_edges = ref 0 in
      let max_load = ref 0 in
      Array.iter
        (fun v ->
          Graph.iter_adj host v (fun w e ->
              if v < w && Partition.part_of partition w = i then begin
                incr internal_edges;
                words := !words +. (float_of_int edge_words.(e) /. float_of_int users.(e))
              end))
        (Partition.members partition i);
      let hi = Shortcut.edges_array sc i in
      Array.iter
        (fun e ->
          if load.(e) > !max_load then max_load := load.(e);
          words := !words +. (float_of_int edge_words.(e) /. float_of_int users.(e)))
        hi;
      {
        part = i;
        hi_edges = Array.length hi;
        internal_edges = !internal_edges;
        words = !words;
        share = (if total > 0. then !words /. total else 0.);
        max_load = !max_load;
      })

let traffic_to_json tr =
  Lcs_util.Json.List
    (Array.to_list
       (Array.map
          (fun p ->
            Lcs_util.Json.Obj
              [
                ("part", Lcs_util.Json.Int p.part);
                ("hi_edges", Lcs_util.Json.Int p.hi_edges);
                ("internal_edges", Lcs_util.Json.Int p.internal_edges);
                ("words", Lcs_util.Json.Float p.words);
                ("share", Lcs_util.Json.Float p.share);
                ("max_load", Lcs_util.Json.Int p.max_load);
              ])
          tr))

let measure ?exact_limit sc =
  let k = Shortcut.k sc in
  let per_part_dilation = Array.make k (-1) in
  let per_part_blocks = Array.make k (-1) in
  let covered = ref 0 in
  let scratch = scratch (Shortcut.graph sc) in
  let blocks = part_blocks sc in
  for i = 0 to k - 1 do
    if Shortcut.is_covered sc i then begin
      incr covered;
      per_part_dilation.(i) <- dilation_in ?exact_limit scratch sc i;
      per_part_blocks.(i) <- blocks i
    end
  done;
  let load = edge_load sc in
  let congestion = Array.fold_left max 0 load in
  let dilation = Array.fold_left max 0 per_part_dilation in
  {
    congestion;
    dilation;
    quality = congestion + dilation;
    max_block_number = Array.fold_left max 0 per_part_blocks;
    covered = !covered;
    per_part_dilation;
    per_part_blocks;
    edge_load = load;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "quality=%d (congestion=%d, dilation=%d), blocks<=%d, covered=%d"
    r.quality r.congestion r.dilation r.max_block_number r.covered
