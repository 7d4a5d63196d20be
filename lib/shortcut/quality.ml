module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Diameter = Lcs_graph.Diameter
module Union_find = Lcs_graph.Union_find
module Intvec = Lcs_util.Intvec
module Vec = Lcs_util.Vec

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
  Array.iter
    (fun v ->
      member v;
      Graph.iter_adj host v (fun w e ->
          if v < w && Partition.part_of partition w = i then add e v w))
    (Partition.members partition i);
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      add e u v)
    (Shortcut.edges_array sc i)

(* The subgraph G[P_i] + H_i as an explicit graph, vertices renumbered
   members first. The host-sized tables live in a scratch record that a
   measurement shares across its parts: [local] maps a host vertex to its
   id in the part being built (-1 outside it) and is reset after each
   part. *)
type scratch = { local : int array; marks : edge_marks }

let scratch host = { local = Array.make (Graph.n host) (-1); marks = edge_marks host }

let subgraph_in scratch sc i =
  let order = Vec.create () in
  let intern v =
    if scratch.local.(v) < 0 then begin
      scratch.local.(v) <- Vec.length order;
      Vec.push order v
    end;
    scratch.local.(v)
  in
  let us = Intvec.create () and vs = Intvec.create () in
  Array.iter (fun v -> ignore (intern v)) (Partition.members (Shortcut.partition sc) i);
  iter_part_edges scratch.marks sc i ~member:ignore ~edge:(fun _ u v ->
      let b = intern v in
      let a = intern u in
      Intvec.push us (min a b);
      Intvec.push vs (max a b));
  Vec.iter (fun v -> scratch.local.(v) <- -1) order;
  Graph.of_endpoints ~what:"Quality.part_subgraph" ~n:(Vec.length order)
    (Intvec.freeze us) (Intvec.freeze vs)

let part_subgraph sc i = subgraph_in (scratch (Shortcut.graph sc)) sc i

let dilation_in ?(exact_limit = 4096) scratch sc i =
  Diameter.of_graph ~exact_limit (subgraph_in scratch sc i)

let part_dilation ?exact_limit sc i =
  dilation_in ?exact_limit (scratch (Shortcut.graph sc)) sc i

let dilation ?exact_limit sc =
  let scratch = scratch (Shortcut.graph sc) in
  let best = ref 0 in
  for i = 0 to Shortcut.k sc - 1 do
    if Shortcut.is_covered sc i then begin
      let d = dilation_in ?exact_limit scratch sc i in
      if d > !best then best := d
    end
  done;
  !best

let part_blocks sc i =
  let host = Shortcut.graph sc in
  let partition = Shortcut.partition sc in
  let members = Partition.members partition i in
  (* Union-find over the involved vertices, joined by H_i edges only. *)
  let uf = Union_find.create (Graph.n host) in
  let involved = Hashtbl.create (2 * Array.length members) in
  Array.iter (fun v -> Hashtbl.replace involved v ()) members;
  Array.iter
    (fun e ->
      let u, v = Graph.edge_endpoints host e in
      Hashtbl.replace involved u ();
      Hashtbl.replace involved v ();
      ignore (Union_find.union uf u v))
    (Shortcut.edges_array sc i);
  let roots = Hashtbl.create 16 in
  Hashtbl.iter (fun v () -> Hashtbl.replace roots (Union_find.find uf v) ()) involved;
  Hashtbl.length roots

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
  for i = 0 to k - 1 do
    if Shortcut.is_covered sc i then begin
      incr covered;
      per_part_dilation.(i) <- dilation_in ?exact_limit scratch sc i;
      per_part_blocks.(i) <- part_blocks sc i
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
