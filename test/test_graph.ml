(* Tests for Lcs_graph: core graph type, builders, generators, traversal,
   trees, partitions, minors, and the Lemma 3.2 lower-bound topology. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

(* Handy generator of connected random graphs: a random tree plus extra
   random edges, so every instance is connected. *)
let random_connected_graph seed ~n ~extra =
  let rng = Rng.create seed in
  let b = Builder.create ~n in
  for v = 1 to n - 1 do
    Builder.add_edge b (Rng.int rng v) v
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 20 * extra do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Builder.mem_edge b u v) then begin
      Builder.add_edge b u v;
      incr added
    end
  done;
  Builder.graph b

(* --- Graph ------------------------------------------------------------ *)

let graph_create_basic () =
  let g = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  check Alcotest.int "n" 4 (Graph.n g);
  check Alcotest.int "m" 4 (Graph.m g);
  check Alcotest.int "degree" 2 (Graph.degree g 1);
  check Alcotest.int "max degree" 2 (Graph.max_degree g);
  check (Alcotest.pair Alcotest.int Alcotest.int) "endpoints canonical" (0, 3)
    (Graph.edge_endpoints g 3)

let graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~n:2 [ (1, 1) ]))

let graph_rejects_duplicate () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.create: duplicate edge")
    (fun () -> ignore (Graph.create ~n:3 [ (0, 1); (1, 0) ]))

let graph_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.create: endpoint out of range") (fun () ->
      ignore (Graph.create ~n:2 [ (0, 2) ]))

let graph_find_edge () =
  let g = Graph.create ~n:3 [ (0, 1); (1, 2) ] in
  check (Alcotest.option Alcotest.int) "found" (Some 1) (Graph.find_edge g 2 1);
  check (Alcotest.option Alcotest.int) "absent" None (Graph.find_edge g 0 2);
  check Alcotest.int "other endpoint" 2 (Graph.other_endpoint g ~edge:1 1)

let graph_subgraph () =
  let g = Generators.cycle 6 in
  let h, old_v, old_e =
    Graph.subgraph g ~vertex_keep:(fun v -> v < 4) ~edge_keep:(fun _ -> true)
  in
  check Alcotest.int "n" 4 (Graph.n h);
  (* edges inside {0,1,2,3}: (0,1),(1,2),(2,3) *)
  check Alcotest.int "m" 3 (Graph.m h);
  check Alcotest.int "vertex map" 2 old_v.(2);
  check Alcotest.bool "edge ids map into host" true
    (Array.for_all (fun e -> e >= 0 && e < Graph.m g) old_e)

let builder_dedupes () =
  let b = Builder.create ~n:3 in
  Builder.add_edge b 0 1;
  Builder.add_edge b 1 0;
  Builder.add_edge b 1 2;
  check Alcotest.int "count" 2 (Builder.edge_count b);
  check Alcotest.int "m" 2 (Graph.m (Builder.graph b))

(* --- Generators ------------------------------------------------------- *)

let generator_sizes () =
  check Alcotest.int "path m" 9 (Graph.m (Generators.path 10));
  check Alcotest.int "cycle m" 10 (Graph.m (Generators.cycle 10));
  check Alcotest.int "complete m" 45 (Graph.m (Generators.complete 10));
  check Alcotest.int "star m" 9 (Graph.m (Generators.star 10));
  (* wheel: rim cycle (n-1 edges) + spokes (n-1) *)
  check Alcotest.int "wheel m" 18 (Graph.m (Generators.wheel 10))

let generator_grid_m () =
  let rows = 7 and cols = 5 in
  let g = Generators.grid ~rows ~cols in
  check Alcotest.int "grid m formula"
    ((rows * (cols - 1)) + (cols * (rows - 1)))
    (Graph.m g);
  check Alcotest.bool "connected" true (Components.is_connected g);
  check Alcotest.int "diameter" (rows + cols - 2) (Diameter.exact g)

let generator_torus () =
  let g = Generators.torus ~rows:4 ~cols:6 in
  check Alcotest.int "torus m" (2 * 4 * 6) (Graph.m g);
  check Alcotest.bool "4-regular" true
    (Array.for_all (fun v -> Graph.degree g v = 4) (Graph.vertices g))

let generator_wheel_diameter () =
  let g = Generators.wheel 50 in
  check Alcotest.int "diameter 2" 2 (Diameter.exact g)

let generator_binary_tree () =
  let g = Generators.binary_tree ~depth:4 in
  check Alcotest.int "n" 31 (Graph.n g);
  check Alcotest.int "m" 30 (Graph.m g);
  check Alcotest.int "diameter" 8 (Diameter.exact g)

let generator_k_tree () =
  let rng = Rng.create 3 in
  let k = 4 and n = 60 in
  let g = Generators.k_tree rng ~k ~n in
  check Alcotest.int "n" n (Graph.n g);
  check Alcotest.int "m" ((k * (k + 1) / 2) + ((n - k - 1) * k)) (Graph.m g);
  check Alcotest.bool "connected" true (Components.is_connected g)

let generator_path_power () =
  let n = 25 and k = 4 in
  let g = Generators.path_power ~n ~k in
  (* m = sum over i of min(k, n-1-i) = k*n - k(k+1)/2 for n > k. *)
  check Alcotest.int "m" ((k * n) - (k * (k + 1) / 2)) (Graph.m g);
  check Alcotest.int "diameter" 6 (Diameter.exact g);
  check Alcotest.bool "k-clique neighborhoods" true (Graph.mem_edge g 0 4);
  check Alcotest.bool "no longer jumps" false (Graph.mem_edge g 0 5);
  (* Treewidth <= k: the natural elimination order gives cliques of size
     <= k; minor density must respect delta <= k. *)
  check Alcotest.bool "density <= k" true (Graph.density g <= float_of_int k)

let generator_er () =
  let rng = Rng.create 9 in
  let g = Generators.erdos_renyi rng ~n:200 ~p:0.05 in
  let expected = 0.05 *. float_of_int (200 * 199 / 2) in
  let m = float_of_int (Graph.m g) in
  check Alcotest.bool "edge count near expectation" true
    (Float.abs (m -. expected) < 4. *. sqrt expected);
  let dense = Generators.erdos_renyi rng ~n:20 ~p:1.0 in
  check Alcotest.int "p=1 complete" 190 (Graph.m dense)

let generator_lollipop () =
  let g = Generators.lollipop ~clique:5 ~tail:10 in
  check Alcotest.int "n" 15 (Graph.n g);
  check Alcotest.int "m" (10 + 10) (Graph.m g);
  check Alcotest.bool "connected" true (Components.is_connected g)

let generator_caterpillar () =
  let g = Generators.caterpillar ~spine:5 ~legs:3 in
  check Alcotest.int "n" 20 (Graph.n g);
  check Alcotest.int "m" 19 (Graph.m g);
  check Alcotest.bool "is a tree" true (Components.is_connected g)

let generator_clique_of_grids () =
  let blocks = 5 and side = 4 in
  let g = Generators.clique_of_grids ~blocks ~side in
  check Alcotest.int "n" (blocks * side * side) (Graph.n g);
  check Alcotest.int "m"
    ((blocks * 2 * side * (side - 1)) + (blocks * (blocks - 1) / 2))
    (Graph.m g);
  check Alcotest.bool "connected" true (Components.is_connected g);
  let parts = Generators.block_partition ~blocks ~side g in
  check Alcotest.int "k" blocks (Partition.k parts)

(* --- Bfs / Components / Diameter -------------------------------------- *)

let bfs_grid_distances () =
  let cols = 6 in
  let g = Generators.grid ~rows:5 ~cols in
  let dist = Bfs.distances g ~src:0 in
  Array.iteri
    (fun v d -> check Alcotest.int "manhattan" ((v / cols) + (v mod cols)) d)
    dist

let bfs_filtered () =
  let g = Generators.path 10 in
  let dist = Bfs.distances_filtered g ~src:0 ~allow:(fun v -> v <> 5) in
  check Alcotest.int "reachable" 4 dist.(4);
  check Alcotest.int "blocked" (-1) dist.(6)

let bfs_tree_depths_match =
  QCheck.Test.make ~name:"BFS tree depth = BFS distance" ~count:30
    QCheck.(pair (int_bound 1000) (int_range 2 80))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let tree = Bfs.tree g ~root:0 in
      let dist = Bfs.distances g ~src:0 in
      Array.for_all (fun v -> Rooted_tree.depth tree v = dist.(v)) (Graph.vertices g))

let bfs_multi_source () =
  let g = Generators.path 10 in
  let dist, owner = Bfs.multi_source g ~sources:[| 0; 9 |] in
  check Alcotest.int "near left" 0 owner.(2);
  check Alcotest.int "near right" 1 owner.(8);
  check Alcotest.int "distance" 3 dist.(3)

let components_counts () =
  let g = Graph.create ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  let _labels, count = Components.labels g in
  check Alcotest.int "components" 3 count;
  check Alcotest.bool "connected set" true
    (Components.is_vertex_set_connected g [ 2; 3; 4 ]);
  check Alcotest.bool "disconnected set" false
    (Components.is_vertex_set_connected g [ 0; 2 ]);
  check Alcotest.bool "empty set" false (Components.is_vertex_set_connected g []);
  let first label = Components.first_disconnected g ~label in
  let some = Alcotest.(option int) in
  check some "all classes connected" None (first [| 1; 1; 0; 0; 0; -1 |]);
  (* Class 2 is caught splitting first, at vertex 2; class 0 only at 5. *)
  check some "smallest failing class" (Some 0) (first [| 2; 0; 2; 1; 1; 0 |]);
  check some "unused labels are not reported" None (first [| 3; 3; -1; -1; -1; -1 |])

let diameter_estimate_tree =
  QCheck.Test.make ~name:"double sweep exact on trees" ~count:30
    QCheck.(pair (int_bound 1000) (int_range 2 60))
    (fun (seed, n) ->
      let g = Generators.random_tree (Rng.create seed) ~n in
      let b = Diameter.estimate g in
      b.Diameter.lower = Diameter.exact g)

(* The all-pairs definition, one BFS per vertex: the reference the pruned
   [Diameter.exact] must reproduce. *)
let all_pairs_diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    best := max !best (Bfs.eccentricity g v)
  done;
  !best

let diameter_exact_is_all_pairs =
  QCheck.Test.make ~name:"pruned exact diameter = all-pairs definition" ~count:120
    QCheck.(triple (int_bound 100_000) (int_range 1 70) (int_bound 6))
    (fun (seed, n, shape) ->
      let rng = Rng.create seed in
      (* The shrinker may step below the generated range. *)
      let n = max 2 n in
      let g =
        match shape with
        | 0 -> Generators.random_tree rng ~n
        | 1 -> Generators.erdos_renyi_connected rng ~n ~p:(Float.min 1. (6. /. float_of_int n))
        | 2 -> Generators.grid ~rows:(1 + (n mod 7)) ~cols:(1 + (n / 7))
        | 3 -> Generators.k_tree rng ~k:(1 + (seed mod 4)) ~n:(max 6 n)
        | 4 -> Generators.caterpillar ~spine:(1 + (n mod 12)) ~legs:(n mod 4)
        | 5 -> Generators.lollipop ~clique:(2 + (n mod 6)) ~tail:(n / 4)
        | _ -> Generators.preferential_attachment rng ~n:(max 4 n) ~m0:2
      in
      let d = all_pairs_diameter g in
      (* With [~beat], only a diameter above [beat] must come out exact. *)
      let beat = (seed mod (d + 3)) - 1 in
      let r =
        Diameter.exact_csr ~beat (Diameter.scratch (Graph.n g)) ~n:(Graph.n g)
          ~offsets:(Intvec.to_array (Graph.csr_offsets g))
          ~neighbors:(Intvec.to_array (Graph.csr_neighbors g))
      in
      Diameter.exact g = d && if d > beat then r = d else r <= beat)

(* The same on the graphs dilation is measured on: every part subgraph
   G[P_i] + H_i of boosted shortcuts on grid and k-tree hosts. *)
let diameter_exact_on_part_subgraphs =
  QCheck.Test.make ~name:"pruned exact diameter = all-pairs on part subgraphs" ~count:20
    QCheck.(pair (int_bound 100_000) QCheck.bool)
    (fun (seed, grid) ->
      let rng = Rng.create seed in
      let g, parts =
        if grid then
          let g = Generators.grid ~rows:9 ~cols:9 in
          (g, Partition.voronoi g rng ~parts:(2 + (seed mod 7)))
        else
          let g = Generators.k_tree rng ~k:3 ~n:90 in
          (g, Partition.voronoi g rng ~parts:(2 + (seed mod 9)))
      in
      let sc = (Boost.full parts ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
      List.for_all
        (fun i ->
          let sub = Quality.part_subgraph sc i in
          Diameter.exact sub = all_pairs_diameter sub)
        (List.init (Shortcut.k sc) Fun.id))

let diameter_cycle () =
  let g = Generators.cycle 12 in
  check Alcotest.int "cycle diameter" 6 (Diameter.exact g);
  let b = Diameter.estimate g in
  check Alcotest.bool "bounds bracket" true
    (b.Diameter.lower <= 6 && 6 <= b.Diameter.upper)

(* --- Rooted_tree ------------------------------------------------------- *)

let tree_of_path () =
  let g = Generators.path 5 in
  let t = Bfs.tree g ~root:0 in
  check Alcotest.int "height" 4 (Rooted_tree.height t);
  check Alcotest.int "parent" 2 (Rooted_tree.parent t 3);
  check (Alcotest.list Alcotest.int) "path to root" [ 3; 2; 1; 0 ]
    (Rooted_tree.path_to_root t 3);
  check Alcotest.int "edge path length" 3
    (List.length (Rooted_tree.edge_path_to_root t 3));
  check Alcotest.bool "ancestor" true (Rooted_tree.is_ancestor t ~ancestor:1 4);
  check Alcotest.bool "self ancestor" true (Rooted_tree.is_ancestor t ~ancestor:2 2);
  check Alcotest.bool "not ancestor" false (Rooted_tree.is_ancestor t ~ancestor:3 1)

let tree_rejects_cycle () =
  Alcotest.check_raises "cycle" (Invalid_argument "Rooted_tree.create: cycle in parents")
    (fun () ->
      ignore
        (Rooted_tree.create ~root:0
           ~parent:[| -1; 2; 1 |]
           ~parent_edge:[| -1; 0; 1 |]))

let tree_bottom_up_order =
  QCheck.Test.make ~name:"bottom_up lists children before parents" ~count:30
    QCheck.(pair (int_bound 1000) (int_range 2 80))
    (fun (seed, n) ->
      let g = Generators.random_tree (Rng.create seed) ~n in
      let t = Bfs.tree g ~root:0 in
      let order = Rooted_tree.bottom_up t in
      let position = Array.make n 0 in
      Array.iteri (fun i v -> position.(v) <- i) order;
      Array.for_all
        (fun v ->
          let p = Rooted_tree.parent t v in
          p = -1 || position.(v) < position.(p))
        (Graph.vertices g))

let tree_children_consistent () =
  let g = Generators.star 6 in
  let t = Bfs.tree g ~root:0 in
  let kids = Rooted_tree.children t in
  check Alcotest.int "center has all children" 5 (Array.length kids.(0));
  check Alcotest.int "leaf childless" 0 (Array.length kids.(3))

(* --- Union_find -------------------------------------------------------- *)

let tree_edges_and_top_down () =
  let g = Generators.binary_tree ~depth:3 in
  let t = Bfs.tree g ~root:0 in
  check Alcotest.int "n-1 tree edges" 14 (List.length (Rooted_tree.tree_edges t));
  let order = Rooted_tree.top_down t in
  check Alcotest.int "root first" 0 order.(0);
  let depths_monotone = ref true in
  for i = 1 to Array.length order - 1 do
    if Rooted_tree.depth t order.(i) < Rooted_tree.depth t order.(i - 1) then
      depths_monotone := false
  done;
  check Alcotest.bool "top-down depths monotone" true !depths_monotone

let graph_fold_adj () =
  let g = Generators.star 5 in
  let degree_sum = Graph.fold_adj g 0 (fun acc _w _e -> acc + 1) 0 in
  check Alcotest.int "fold over center" 4 degree_sum;
  check Alcotest.bool "mem edge" true (Graph.mem_edge g 0 3);
  check Alcotest.bool "non edge" false (Graph.mem_edge g 1 2)

let union_find_basics () =
  let uf = Union_find.create 6 in
  check Alcotest.int "initial count" 6 (Union_find.count uf);
  check Alcotest.bool "union" true (Union_find.union uf 0 1);
  check Alcotest.bool "redundant union" false (Union_find.union uf 1 0);
  check Alcotest.bool "same" true (Union_find.same uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  check Alcotest.int "count" 3 (Union_find.count uf);
  check Alcotest.int "size" 4 (Union_find.size uf 2)

(* --- Partition --------------------------------------------------------- *)

let partition_grid_rows () =
  let rows = 4 and cols = 6 in
  let g = Generators.grid ~rows ~cols in
  let p = Partition.grid_rows g ~rows ~cols in
  check Alcotest.int "k" rows (Partition.k p);
  check Alcotest.int "sizes" cols (Partition.size p 0);
  check Alcotest.int "internal diameter" (cols - 1) (Partition.internal_diameter p 2)

let partition_rejects_disconnected () =
  let g = Generators.path 4 in
  Alcotest.check_raises "disconnected part"
    (Invalid_argument "Partition: part 0 is disconnected") (fun () ->
      ignore (Partition.of_parts g [ [ 0; 3 ] ]))

let partition_rejects_empty_part () =
  let g = Generators.path 4 in
  Alcotest.check_raises "label gap"
    (Invalid_argument "Partition: part 1 is empty") (fun () ->
      ignore (Partition.of_assignment g [| 0; 0; 2; 2 |]));
  Alcotest.check_raises "a lower disconnected part is named first"
    (Invalid_argument "Partition: part 0 is disconnected") (fun () ->
      ignore (Partition.of_assignment g [| 0; -1; 0; 2 |]))

(* Validation is one O(n + m) pass: the singleton partition of a 100x100
   grid (k = n parts) must not pay a graph-sized BFS per part. *)
let partition_singletons_allocation () =
  let g = Generators.grid ~rows:100 ~cols:100 in
  let budget = 32 * (Graph.n g + Graph.m g) in
  let before = Gc.allocated_bytes () in
  let p = Partition.singletons g in
  let bytes = Gc.allocated_bytes () -. before in
  let words = int_of_float (bytes /. float_of_int (Sys.word_size / 8)) in
  check Alcotest.int "k" (Graph.n g) (Partition.k p);
  if words > budget then
    Alcotest.failf "singletons allocated %d words, over 32·(n + m) = %d" words budget

let partition_rejects_overlap () =
  let g = Generators.path 4 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Partition.of_parts: overlapping parts") (fun () ->
      ignore (Partition.of_parts g [ [ 0; 1 ]; [ 1; 2 ] ]))

let partition_voronoi_covers =
  QCheck.Test.make ~name:"voronoi cells partition the graph" ~count:30
    QCheck.(triple (int_bound 1000) (int_range 4 80) (int_range 1 8))
    (fun (seed, n, k) ->
      let k = min k n in
      let g = random_connected_graph seed ~n ~extra:n in
      let p = Partition.voronoi g (Rng.create (seed + 1)) ~parts:k in
      Partition.k p = k
      && Array.for_all (fun v -> Partition.part_of p v >= 0) (Graph.vertices g))

let partition_random_blobs =
  QCheck.Test.make ~name:"random blobs cover V with bounded connected parts" ~count:25
    QCheck.(triple (int_bound 1000) (int_range 4 80) (int_range 1 12))
    (fun (seed, n, target) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let p = Partition.random_blobs g (Rng.create (seed + 5)) ~target_size:target in
      Array.for_all (fun v -> Partition.part_of p v >= 0) (Graph.vertices g)
      && List.for_all
           (fun i -> Partition.size p i <= target)
           (List.init (Partition.k p) (fun i -> i)))

let partition_whole_and_singletons () =
  let g = Generators.cycle 5 in
  check Alcotest.int "whole" 1 (Partition.k (Partition.whole g));
  check Alcotest.int "singletons" 5 (Partition.k (Partition.singletons g))

(* --- Minor ------------------------------------------------------------- *)

let minor_contract_grid_rows () =
  (* Contracting each row of a 3x4 grid yields a path of 3 super-nodes. *)
  let g = Generators.grid ~rows:3 ~cols:4 in
  let assignment = Array.init 12 (fun v -> v / 4) in
  let h = Minor.contract g ~assignment in
  check Alcotest.int "n" 3 (Graph.n h);
  check Alcotest.int "m (dedup)" 2 (Graph.m h)

let minor_contract_deletes () =
  let g = Generators.path 5 in
  let assignment = [| 0; 0; -1; 1; 1 |] in
  let h = Minor.contract g ~assignment in
  check Alcotest.int "n" 2 (Graph.n h);
  check Alcotest.int "m" 0 (Graph.m h)

let minor_contract_rejects_disconnected_branch () =
  let g = Generators.path 5 in
  Alcotest.check_raises "disconnected branch set"
    (Invalid_argument "Minor: branch set 0 is empty or disconnected") (fun () ->
      ignore (Minor.contract g ~assignment:[| 0; -1; 0; -1; -1 |]))

let minor_verify_good_and_bad () =
  let g = Generators.cycle 6 in
  let good =
    { Minor.branch_sets = [| [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] |];
      minor_edges = [ (0, 1); (1, 2); (2, 0) ] }
  in
  (match Minor.verify g good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid minor: %s" e);
  let overlapping =
    { Minor.branch_sets = [| [ 0; 1 ]; [ 1; 2 ] |]; minor_edges = [] }
  in
  check Alcotest.bool "overlap rejected" true
    (match Minor.verify g overlapping with Error _ -> true | Ok () -> false);
  let phantom_edge =
    { Minor.branch_sets = [| [ 0 ]; [ 3 ] |]; minor_edges = [ (0, 1) ] }
  in
  check Alcotest.bool "phantom edge rejected" true
    (match Minor.verify g phantom_edge with Error _ -> true | Ok () -> false)

let minor_of_components () =
  let g = Generators.path 6 in
  (* Cut edge 2 (between 2 and 3): two components. *)
  let assignment = Minor.of_components g ~keep_edge:(fun e -> e <> 2) in
  check Alcotest.bool "same side" true (assignment.(0) = assignment.(2));
  check Alcotest.bool "different sides" true (assignment.(0) <> assignment.(3))

(* --- Validation: one pass against the per-set loop ----------------------- *)

(* A random graph on [n] vertices, often disconnected, with a labelling
   that leaves some vertices unassigned (-1) and some indices unused. The
   labels are uniform, or the union-find roots of a random edge subset
   (components, with gaps), or those components numbered gap-free with a
   few vertices then dropped — the one shape that is often accepted. *)
let random_labelling seed ~n =
  let rng = Rng.create seed in
  let p = Rng.choose rng [| 0.1; 0.25; 0.5 |] in
  let b = Builder.create ~n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng p then Builder.add_edge b u v
    done
  done;
  let g = Builder.graph b in
  let roots () =
    let keep = Array.init (Graph.m g) (fun _ -> Rng.bernoulli rng 0.7) in
    Minor.of_components g ~keep_edge:(fun e -> keep.(e))
  in
  let label =
    match Rng.int rng 3 with
    | 0 -> Array.init n (fun _ -> Rng.int rng 6 - 1)
    | 1 -> roots ()
    | _ ->
        let index = Hashtbl.create 16 in
        Array.map
          (fun r ->
            let i =
              match Hashtbl.find_opt index r with
              | Some i -> i
              | None ->
                  let i = Hashtbl.length index in
                  Hashtbl.add index r i;
                  i
            in
            if Rng.bernoulli rng 0.1 then -1 else i)
          (roots ())
  in
  (g, label)

let class_members label i =
  List.filter (fun v -> label.(v) = i) (List.init (Array.length label) Fun.id)

(* The sets named by a labelling, one per index up to the largest; with
   [~compact] only the used indices, renumbered in increasing order. *)
let labelled_sets ~compact label =
  let used = List.sort_uniq compare (List.filter (fun l -> l >= 0) (Array.to_list label)) in
  if compact then Array.of_list (List.map (class_members label) used)
  else
    let k = Array.fold_left (fun acc l -> max acc (l + 1)) 0 label in
    Array.init k (class_members label)

let lowest sets p =
  let rec go i = if i = Array.length sets then None else if p sets.(i) then Some i else go (i + 1) in
  go 0

let disconnected g vs = vs <> [] && not (Components.is_vertex_set_connected g vs)

(* The per-set loop [Partition.of_assignment] and [Minor.contract] ran: in
   index order, each set checked for emptiness, then for connectivity. *)
let oracle_loop g sets ~empty ~split =
  match lowest sets (fun vs -> vs = [] || disconnected g vs) with
  | Some i when sets.(i) = [] -> Error (Printf.sprintf empty i)
  | Some i -> Error (Printf.sprintf split i)
  | None -> Ok ()

(* [Minor.verify] checks every set for emptiness before any for
   connectivity. *)
let oracle_verify g sets =
  match lowest sets (fun vs -> vs = []) with
  | Some i -> Error (Printf.sprintf "branch set %d is empty" i)
  | None -> (
      match lowest sets (disconnected g) with
      | Some i -> Error (Printf.sprintf "branch set %d is disconnected" i)
      | None -> Ok ())

let raised f = match f () with _ -> Ok () | exception Invalid_argument msg -> Error msg

let validation_matches_per_set_loop =
  QCheck.Test.make ~name:"one-pass validation = per-set BFS loop" ~count:400
    QCheck.(pair (int_bound 100_000) (int_range 0 14))
    (fun (seed, n) ->
      let g, label = random_labelling seed ~n:(max 0 n) in
      let agree what got want =
        got = want
        || QCheck.Test.fail_reportf "%s on labels [%s]: got %s, oracle %s" what
             (String.concat "; " (Array.to_list (Array.map string_of_int label)))
             (match got with Ok () -> "Ok" | Error m -> m)
             (match want with Ok () -> "Ok" | Error m -> m)
      in
      let raw = labelled_sets ~compact:false label
      and compact = labelled_sets ~compact:true label in
      let verify sets = Minor.verify g { Minor.branch_sets = sets; minor_edges = [] } in
      agree "Partition.of_assignment"
        (raised (fun () -> Partition.of_assignment g label))
        (oracle_loop g raw ~empty:"Partition: part %d is empty"
           ~split:"Partition: part %d is disconnected")
      && agree "Minor.contract"
           (raised (fun () -> Minor.contract g ~assignment:label))
           (oracle_loop g compact ~empty:"Minor: branch set %d is empty or disconnected"
              ~split:"Minor: branch set %d is empty or disconnected")
      && agree "Minor.verify (raw indices)" (verify raw) (oracle_verify g raw)
      && agree "Minor.verify (compacted)" (verify compact) (oracle_verify g compact))

(* --- Weights ----------------------------------------------------------- *)

let weights_distinct () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let w = Weights.random_distinct (Rng.create 5) g in
  let seen = Hashtbl.create 64 in
  let distinct = ref true in
  for e = 0 to Graph.m g - 1 do
    let x = Weights.get w e in
    if Hashtbl.mem seen x then distinct := false;
    Hashtbl.replace seen x ()
  done;
  check Alcotest.bool "distinct" true !distinct

let weights_positive () =
  let g = Generators.path 3 in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Weights.create: weights must be positive") (fun () ->
      ignore (Weights.create g (fun _ -> 0)))

(* --- Dfs ----------------------------------------------------------------- *)

let dfs_bridges_path_and_cycle () =
  let p = Generators.path 6 in
  check (Alcotest.list Alcotest.int) "path: all edges bridges" [ 0; 1; 2; 3; 4 ]
    (Dfs.bridges p);
  check (Alcotest.list Alcotest.int) "cycle: none" [] (Dfs.bridges (Generators.cycle 6));
  check Alcotest.bool "cycle 2-edge-connected" true
    (Dfs.is_two_edge_connected (Generators.cycle 6));
  check Alcotest.bool "path not" false (Dfs.is_two_edge_connected p)

let dfs_bridge_between_triangles () =
  let g =
    Graph.create ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ]
  in
  check (Alcotest.list Alcotest.int) "the joining edge" [ 6 ] (Dfs.bridges g);
  check (Alcotest.list Alcotest.int) "articulations" [ 2; 3 ] (Dfs.articulation_points g);
  let _labels, count = Dfs.two_edge_components g in
  check Alcotest.int "two 2ec components" 2 count

let dfs_star_articulation () =
  let g = Generators.star 6 in
  check (Alcotest.list Alcotest.int) "center" [ 0 ] (Dfs.articulation_points g)

let dfs_preorder () =
  let g = Generators.path 4 in
  let order = Dfs.preorder g ~root:0 in
  check Alcotest.int "root first" 0 order.(0);
  check Alcotest.int "walks the path" 3 order.(3)

(* Brute-force bridge definition: removing the edge disconnects its
   component. *)
let dfs_bridges_match_bruteforce =
  QCheck.Test.make ~name:"bridges = brute-force removal test" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 3 30))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let base = Components.count g in
      let brute = ref [] in
      for e = 0 to Graph.m g - 1 do
        let h, _, _ =
          Graph.subgraph g ~vertex_keep:(fun _ -> true) ~edge_keep:(fun e' -> e' <> e)
        in
        if Components.count h > base then brute := e :: !brute
      done;
      Dfs.bridges g = List.rev !brute)

(* --- Graph_io ------------------------------------------------------------- *)

let graph_io_roundtrip =
  QCheck.Test.make ~name:"edge-list round-trips" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 2 40))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let g' = Graph_io.of_edge_list (Graph_io.to_edge_list g) in
      Graph.n g' = Graph.n g && Graph.edges g' = Graph.edges g)

let graph_io_dot () =
  let g = Generators.cycle 4 in
  let p = Partition.of_parts g [ [ 0; 1 ]; [ 2; 3 ] ] in
  let dot = Graph_io.to_dot ~partition:p g in
  check Alcotest.bool "mentions edges" true
    (String.length dot > 0
    && String.split_on_char '\n' dot |> List.exists (fun l -> l = "  0 -- 1;"));
  check Alcotest.bool "mentions parts" true
    (String.split_on_char '\n' dot
    |> List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "  0 "))

(* Full structural identity: counts, canonical endpoints, and every
   adjacency row (order included — rows are sorted by neighbor). *)
let graphs_identical g1 g2 =
  Graph.n g1 = Graph.n g2
  && Graph.m g1 = Graph.m g2
  && Graph.edges g1 = Graph.edges g2
  && List.for_all
       (fun v -> Graph.adj_list g1 v = Graph.adj_list g2 v)
       (List.init (Graph.n g1) Fun.id)

let with_temp_bin f =
  let path = Filename.temp_file "lcs_test_graph" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let graph_io_binary_roundtrip =
  QCheck.Test.make ~name:"binary round-trips (mmap and stream)" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 2 40))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      with_temp_bin (fun path ->
          Graph_io.write_binary path g;
          let mmapped = Graph_io.read_binary ~validate:true path in
          let streamed = Graph_io.read_binary ~mmap:false ~validate:true path in
          graphs_identical g mmapped && graphs_identical g streamed))

(* The mmap'd graph must be indistinguishable from the heap-loaded one on
   every accessor, not just the counts the round-trip property covers. *)
let graph_io_mmap_matches_heap () =
  let g = random_connected_graph 42 ~n:60 ~extra:80 in
  with_temp_bin (fun path ->
      Graph_io.write_binary path g;
      let m = Graph_io.read_binary ~mmap:true path in
      let h = Graph_io.read_binary ~mmap:false path in
      check Alcotest.int "n" (Graph.n h) (Graph.n m);
      check Alcotest.int "m" (Graph.m h) (Graph.m m);
      check Alcotest.int "max degree" (Graph.max_degree h) (Graph.max_degree m);
      for v = 0 to Graph.n h - 1 do
        check Alcotest.int "degree" (Graph.degree h v) (Graph.degree m v);
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "adj" (Graph.adj_list h v) (Graph.adj_list m v);
        let rh = Graph.ports h v and rm = Graph.ports m v in
        check Alcotest.int "row length" (Graph.Row.length rh) (Graph.Row.length rm);
        for p = 0 to Graph.Row.length rh - 1 do
          check
            (Alcotest.pair Alcotest.int Alcotest.int)
            "row pair" (Graph.Row.pair rh p) (Graph.Row.pair rm p)
        done
      done;
      Array.iteri
        (fun e (u, v) ->
          check
            (Alcotest.pair Alcotest.int Alcotest.int)
            "endpoints" (u, v) (Graph.edge_endpoints m e);
          check (Alcotest.option Alcotest.int) "find_edge" (Some e)
            (Graph.find_edge m u v);
          check (Alcotest.option Alcotest.int) "find_edge flipped" (Some e)
            (Graph.find_edge m v u))
        (Graph.edges h))

(* Every word of an lcs-graph-bin/1 file fits in 62 bits, but both reads
   keep only 63 bits of a word: a validating read must refuse a word with
   bit 62 or 63 set, naming it, on the mapped and the decoding path. *)
let graph_io_wide_word_refused () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  (* header, 17 row offsets, 48 neighbor ids: the first edge id *)
  let word = 3 + 17 + 48 in
  List.iter
    (fun bit ->
      with_temp_bin (fun path ->
          Graph_io.write_binary path g;
          let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
          let b = Bytes.create 8 in
          ignore (Unix.lseek fd (8 * word) Unix.SEEK_SET);
          ignore (Unix.read fd b 0 8);
          Bytes.set_int64_le b 0
            (Int64.logor (Bytes.get_int64_le b 0) (Int64.shift_left 1L bit));
          ignore (Unix.lseek fd (8 * word) Unix.SEEK_SET);
          ignore (Unix.write fd b 0 8);
          Unix.close fd;
          List.iter
            (fun mmap ->
              let refused =
                match Graph_io.read_binary ~mmap ~validate:true path with
                | _ -> "accepted"
                | exception Invalid_argument msg -> msg
              in
              check Alcotest.string
                (Printf.sprintf "bit %d, mmap=%b" bit mmap)
                (Printf.sprintf
                   "Graph_io.read_binary: %s: word %d has bit 62 or 63 set (values fit in 62 bits)"
                   path word)
                refused)
            [ true; false ]))
    [ 62; 63 ]

(* Streaming a family through its Stream emitter and building it eagerly
   from the same seed must give the same graph — the emitters are the
   eager constructors' substrate, and the RNG draw order is part of the
   contract. *)
let generators_stream_matches_eager () =
  let collect emit =
    let acc = ref [] in
    emit (fun u v -> acc := (u, v) :: !acc);
    List.rev !acc
  in
  let g1 = Graph.create ~n:35 (collect (Generators.Stream.grid ~rows:5 ~cols:7)) in
  let g2 = Generators.grid ~rows:5 ~cols:7 in
  check Alcotest.bool "grid" true (graphs_identical g1 g2);
  let t1 =
    Graph.create ~n:50 (collect (Generators.Stream.random_tree (Rng.create 3) ~n:50))
  in
  let t2 = Generators.random_tree (Rng.create 3) ~n:50 in
  check Alcotest.bool "random tree" true (graphs_identical t1 t2);
  let p1 =
    Graph.create ~n:200
      (collect
         (Generators.Stream.preferential_attachment (Rng.create 5) ~n:200 ~m0:3))
  in
  let p2 = Generators.preferential_attachment (Rng.create 5) ~n:200 ~m0:3 in
  check Alcotest.bool "preferential attachment" true (graphs_identical p1 p2);
  check Alcotest.int "pa edge count" ((3 * 4 / 2) + ((200 - 4) * 3)) (Graph.m p2)

(* Differential check of the CSR subgraph path against a naive edge-list
   reimplementation of the same contract (kept vertices in ascending
   order, kept edges in ascending edge-id order). *)
let graph_subgraph_differential =
  QCheck.Test.make ~name:"subgraph = naive edge-list filter" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 3 40))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:n in
      let vertex_keep v = v mod 3 <> 0 in
      let edge_keep e = e mod 2 = 0 in
      let h, old_v, old_e = Graph.subgraph g ~vertex_keep ~edge_keep in
      let new_of_old = Array.make n (-1) in
      let kept = ref [] in
      for v = n - 1 downto 0 do
        if vertex_keep v then kept := v :: !kept
      done;
      List.iteri (fun i v -> new_of_old.(v) <- i) !kept;
      let naive_edges = ref [] and naive_old_e = ref [] in
      Array.iteri
        (fun e (u, v) ->
          if edge_keep e && vertex_keep u && vertex_keep v then begin
            naive_edges := (new_of_old.(u), new_of_old.(v)) :: !naive_edges;
            naive_old_e := e :: !naive_old_e
          end)
        (Graph.edges g);
      let naive = Graph.create ~n:(List.length !kept) (List.rev !naive_edges) in
      graphs_identical h naive
      && Array.to_list old_v = !kept
      && Array.to_list old_e = List.rev !naive_old_e)

let graph_io_rejects_garbage () =
  Alcotest.check_raises "bad header"
    (Invalid_argument "Graph_io.of_edge_list: line 1: expected an integer")
    (fun () -> ignore (Graph_io.of_edge_list "hello world\n"));
  Alcotest.check_raises "bad edge line"
    (Invalid_argument "Graph_io.of_edge_list: line 3: expected an integer")
    (fun () -> ignore (Graph_io.of_edge_list "3 2\n0 1\n1 zebra\n"));
  Alcotest.check_raises "truncated"
    (Invalid_argument "Graph_io.of_edge_list: edge count: header declares 2, found 1")
    (fun () -> ignore (Graph_io.of_edge_list "3 2\n0 1\n"))

(* --- Lower_bound_graph -------------------------------------------------- *)

let lower_bound_structure () =
  let t = Lower_bound_graph.create ~delta':6 ~d':28 in
  (* delta = 4, k = ⌊26/12⌋ = 2, D = 8, rows = row_length = 25, top = 7 *)
  check Alcotest.int "delta" 4 t.Lower_bound_graph.delta;
  check Alcotest.int "k" 2 t.Lower_bound_graph.k;
  check Alcotest.int "D" 8 t.Lower_bound_graph.d;
  check Alcotest.int "rows" 25 t.Lower_bound_graph.rows;
  check Alcotest.int "n" (7 + (25 * 25)) (Graph.n t.Lower_bound_graph.graph);
  check Alcotest.bool "connected" true (Components.is_connected t.Lower_bound_graph.graph);
  check Alcotest.int "parts are the rows" 25 (Partition.k t.Lower_bound_graph.parts)

let lower_bound_diameter_and_density () =
  let t = Lower_bound_graph.create ~delta':5 ~d':20 in
  let g = t.Lower_bound_graph.graph in
  check Alcotest.bool "diameter within D'" true (Diameter.exact g <= t.Lower_bound_graph.d');
  (* The whole graph is a minor of itself: its own density must respect the
     promise density < delta'. *)
  check Alcotest.bool "density below delta'" true
    (Graph.density g < float_of_int t.Lower_bound_graph.delta');
  check Alcotest.bool "quality bound positive" true
    (t.Lower_bound_graph.quality_lower_bound > 0.)

let lower_bound_rejects_params () =
  Alcotest.check_raises "delta too small"
    (Invalid_argument "Lower_bound_graph.create: need delta' >= 5") (fun () ->
      ignore (Lower_bound_graph.create ~delta':4 ~d':20));
  Alcotest.check_raises "d' too small"
    (Invalid_argument "Lower_bound_graph.create: need d' >= 3*(delta'-2)+2") (fun () ->
      ignore (Lower_bound_graph.create ~delta':6 ~d':13))

let lower_bound_row_vertex () =
  let t = Lower_bound_graph.create ~delta':5 ~d':12 in
  (* delta = 3: constraint 3*3+2 = 11 <= 12 holds. *)
  let v = Lower_bound_graph.row_vertex t ~row:0 ~col:0 in
  check Alcotest.int "first row vertex follows top path" (Array.length t.Lower_bound_graph.top_path) v;
  check Alcotest.bool "sketch mentions dims" true
    (String.length (Lower_bound_graph.ascii_sketch t) > 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      bfs_tree_depths_match;
      diameter_estimate_tree;
      diameter_exact_is_all_pairs;
      diameter_exact_on_part_subgraphs;
      tree_bottom_up_order;
      partition_voronoi_covers;
      partition_random_blobs;
      validation_matches_per_set_loop;
      dfs_bridges_match_bruteforce;
      graph_io_roundtrip;
      graph_io_binary_roundtrip;
      graph_subgraph_differential;
    ]

let suite =
  [
    case "graph: create" `Quick graph_create_basic;
    case "graph: rejects self-loop" `Quick graph_rejects_self_loop;
    case "graph: rejects duplicate" `Quick graph_rejects_duplicate;
    case "graph: rejects out-of-range" `Quick graph_rejects_out_of_range;
    case "graph: find edge" `Quick graph_find_edge;
    case "graph: subgraph" `Quick graph_subgraph;
    case "builder: dedupes" `Quick builder_dedupes;
    case "generators: sizes" `Quick generator_sizes;
    case "generators: grid formula" `Quick generator_grid_m;
    case "generators: torus" `Quick generator_torus;
    case "generators: wheel diameter" `Quick generator_wheel_diameter;
    case "generators: binary tree" `Quick generator_binary_tree;
    case "generators: k-tree" `Quick generator_k_tree;
    case "generators: path power" `Quick generator_path_power;
    case "generators: erdos-renyi" `Quick generator_er;
    case "generators: lollipop" `Quick generator_lollipop;
    case "generators: caterpillar" `Quick generator_caterpillar;
    case "generators: clique of grids" `Quick generator_clique_of_grids;
    case "bfs: grid distances" `Quick bfs_grid_distances;
    case "bfs: filtered" `Quick bfs_filtered;
    case "bfs: multi source" `Quick bfs_multi_source;
    case "components: counts" `Quick components_counts;
    case "diameter: cycle" `Quick diameter_cycle;
    case "tree: of path" `Quick tree_of_path;
    case "tree: rejects cycle" `Quick tree_rejects_cycle;
    case "tree: children" `Quick tree_children_consistent;
    case "tree: edges/top-down" `Quick tree_edges_and_top_down;
    case "graph: fold adj" `Quick graph_fold_adj;
    case "union find: basics" `Quick union_find_basics;
    case "partition: grid rows" `Quick partition_grid_rows;
    case "partition: rejects disconnected" `Quick partition_rejects_disconnected;
    case "partition: rejects overlap" `Quick partition_rejects_overlap;
    case "partition: rejects empty part" `Quick partition_rejects_empty_part;
    case "partition: singletons allocate O(n + m)" `Quick partition_singletons_allocation;
    case "partition: whole/singletons" `Quick partition_whole_and_singletons;
    case "minor: contract grid rows" `Quick minor_contract_grid_rows;
    case "minor: contract deletes" `Quick minor_contract_deletes;
    case "minor: rejects disconnected branch" `Quick minor_contract_rejects_disconnected_branch;
    case "minor: verify" `Quick minor_verify_good_and_bad;
    case "minor: of components" `Quick minor_of_components;
    case "weights: distinct" `Quick weights_distinct;
    case "weights: positive" `Quick weights_positive;
    case "dfs: path/cycle bridges" `Quick dfs_bridges_path_and_cycle;
    case "dfs: bridge between triangles" `Quick dfs_bridge_between_triangles;
    case "dfs: star articulation" `Quick dfs_star_articulation;
    case "dfs: preorder" `Quick dfs_preorder;
    case "graph io: dot" `Quick graph_io_dot;
    case "graph io: rejects garbage" `Quick graph_io_rejects_garbage;
    case "graph io: mmap = heap accessors" `Quick graph_io_mmap_matches_heap;
    case "graph io: words over 62 bits refused" `Quick graph_io_wide_word_refused;
    case "generators: stream = eager" `Quick generators_stream_matches_eager;
    case "lower bound: structure" `Quick lower_bound_structure;
    case "lower bound: diameter/density" `Quick lower_bound_diameter_and_density;
    case "lower bound: rejects params" `Quick lower_bound_rejects_params;
    case "lower bound: row vertex" `Quick lower_bound_row_vertex;
  ]
  @ props
