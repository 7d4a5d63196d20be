(* End-to-end integration tests tying the layers together, including the
   Lemma 3.2 lower-bound inequality. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

(* Lemma 3.2: on the lower-bound topology, even our (near-optimal)
   construction cannot beat the proven quality floor — and Theorem 3.1
   keeps it within O(delta * D) of that floor. *)
let lower_bound_inequality () =
  List.iter
    (fun (delta', d') ->
      let lb = Lower_bound_graph.create ~delta' ~d' in
      let g = lb.Lower_bound_graph.graph in
      let tree = Bfs.tree g ~root:0 in
      let b = Boost.full lb.Lower_bound_graph.parts ~tree in
      let r = Quality.measure b.Boost.shortcut in
      let floor = lb.Lower_bound_graph.quality_lower_bound in
      check Alcotest.bool
        (Printf.sprintf "quality floor holds (delta'=%d d'=%d)" delta' d')
        true
        (float_of_int r.Quality.quality >= floor);
      (* Upper-bound sanity: congestion stays within the boosted threshold
         and dilation within Observation 2.6. *)
      check Alcotest.bool "congestion within boost bound" true
        (r.Quality.congestion <= b.Boost.threshold * b.Boost.iterations);
      let d = Rooted_tree.height tree in
      check Alcotest.bool "dilation within Obs 2.6" true
        (r.Quality.dilation <= r.Quality.max_block_number * ((2 * d) + 1)))
    [ (5, 16); (5, 30); (6, 28) ]

(* The full distributed pipeline: BFS tree, detection wave, selection, and
   a real part-wise aggregation over the resulting shortcut. *)
let distributed_pipeline_end_to_end () =
  let rows = 7 and cols = 7 in
  let g = Generators.grid ~rows ~cols in
  let partition = Partition.grid_rows g ~rows ~cols in
  let outcome = Distributed.construct ~seed:5 partition ~root:0 in
  let sc = outcome.Distributed.result.Construct.shortcut in
  (* Cover the unselected parts by unioning with a boost of the remainder:
     simplest full-coverage route for the aggregation test. *)
  let full =
    if Shortcut.is_partial sc then
      let tree = outcome.Distributed.tree in
      (Boost.full partition ~tree).Boost.shortcut
    else sc
  in
  let values = Array.init (Graph.n g) (fun v -> (v * 131) mod 997) in
  let out = Sim_aggregate.minimum (Rng.create 11) full ~values in
  check Alcotest.bool "PA over distributed shortcut correct" true
    (out.Sim_aggregate.minima = Aggregate.reference_minima full ~values)

(* MST on the lower-bound topology: an adversarial-but-structured instance
   exercising shortcut construction on parts that need the top path. *)
let mst_on_lower_bound_graph () =
  let lb = Lower_bound_graph.create ~delta':5 ~d':12 in
  let g = lb.Lower_bound_graph.graph in
  let w = Weights.random_distinct (Rng.create 9) g in
  let result = Mst.boruvka ~seed:4 w in
  check (Alcotest.list Alcotest.int) "matches Kruskal" (Kruskal.mst w) result.Mst.edges

(* Failure injection: corrupting a shortcut by dropping its edges must not
   corrupt answers — the aggregation falls back to intra-part flooding and
   stays correct (only slower). *)
let failure_injection_dropped_shortcut_edges () =
  let n = 64 in
  let g = Generators.wheel n in
  let partition = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
  let tree = Bfs.tree g ~root:0 in
  let b = Boost.full partition ~tree in
  (* Drop every shortcut edge. *)
  let sabotaged = Shortcut.create partition (Array.make 1 []) in
  let values = Array.init n (fun v -> (v * 7) mod 101) in
  let good = Sim_aggregate.minimum (Rng.create 3) b.Boost.shortcut ~values in
  let degraded = Sim_aggregate.minimum (Rng.create 3) sabotaged ~values in
  check Alcotest.bool "same minima" true
    (good.Sim_aggregate.minima = degraded.Sim_aggregate.minima);
  check Alcotest.bool "degraded is slower" true
    (degraded.Sim_aggregate.completion_round >= good.Sim_aggregate.completion_round)

(* Corollary 1.4 regime: a graph with a known dense K_r minor; accepted
   delta from the doubling search must be Omega(r) *and* O(r), i.e. the
   construction neither under- nor over-shoots the minor density. *)
let delta_tracks_minor_density () =
  let blocks = 8 and side = 5 in
  let g = Generators.clique_of_grids ~blocks ~side in
  let partition = Generators.block_partition ~blocks ~side g in
  let tree = Bfs.tree g ~root:0 in
  let _result, delta = Construct.auto partition ~tree in
  (* delta(G) >= (blocks-1)/2 = 3.5; doubling accepts somewhere <= 2x. *)
  check Alcotest.bool "delta bounded" true (delta <= 16);
  (* The certified lower bound from contracting blocks: *)
  let lb = Minor_density.partition_lower g partition in
  check (Alcotest.float 1e-9) "density lower bound" 3.5 lb

(* Full pipeline across graph families: construct (auto delta), boost,
   min-PA, sum-PA, and the deterministic distributed wave's equality with
   the centralized O — one assertion battery per family. *)
let pipeline_on_family name g partition =
  let tree = Bfs.tree g ~root:0 in
  let b = Boost.full partition ~tree in
  check Alcotest.bool (name ^ ": full coverage") false
    (Shortcut.is_partial b.Boost.shortcut);
  let rng = Rng.create 23 in
  let values = Array.init (Graph.n g) (fun _ -> Rng.int rng 100_000) in
  let mins = Sim_aggregate.minimum (Rng.create 5) b.Boost.shortcut ~values in
  check Alcotest.bool (name ^ ": min PA") true
    (mins.Sim_aggregate.minima = Aggregate.reference_minima b.Boost.shortcut ~values);
  let sums = Sim_aggregate.sum (Rng.create 5) b.Boost.shortcut ~values in
  check Alcotest.bool (name ^ ": sum PA") true
    (sums.Sim_aggregate.minima = Aggregate.reference_sums b.Boost.shortcut ~values);
  let threshold = max 2 (Rooted_tree.height tree) in
  let tree_d, height, _ = Sync_bfs.run g ~root:0 in
  let info = Tree_info.of_tree g tree_d in
  ignore height;
  let over_dist, _ =
    Distributed.detection_wave ~variant:Distributed.Deterministic ~threshold partition
      info
  in
  let central = Construct.run partition ~tree:tree_d ~threshold ~block_budget:8 in
  let same = ref true in
  for e = 0 to Graph.m g - 1 do
    if Bitset.mem over_dist e <> Bitset.mem central.Construct.overcongested e then
      same := false
  done;
  check Alcotest.bool (name ^ ": deterministic wave = centralized") true !same

let pipeline_torus () =
  let g = Generators.torus ~rows:8 ~cols:8 in
  pipeline_on_family "torus" g (Partition.voronoi g (Rng.create 2) ~parts:12)

let pipeline_path_power () =
  let g = Generators.path_power ~n:200 ~k:5 in
  pipeline_on_family "path^5" g
    (Partition.random_blobs g (Rng.create 3) ~target_size:12)

let pipeline_k_tree () =
  let g = Generators.k_tree (Rng.create 4) ~k:6 ~n:300 in
  pipeline_on_family "6-tree" g (Partition.voronoi g (Rng.create 5) ~parts:20)

(* Scale smoke: the construction's near-linear sweep on a 10k-vertex grid,
   with the congestion invariant intact. *)
let large_grid_scales () =
  let side = 100 in
  let g = Generators.grid ~rows:side ~cols:side in
  let partition = Partition.grid_rows g ~rows:side ~cols:side in
  let tree = Bfs.tree g ~root:0 in
  let result, delta = Construct.auto partition ~tree in
  check Alcotest.bool "succeeds" true (Construct.succeeded result);
  check Alcotest.bool "delta small on planar" true (delta <= 4);
  let load = Quality.edge_load result.Construct.shortcut in
  check Alcotest.bool "congestion within threshold" true
    (Array.for_all (fun l -> l <= result.Construct.threshold) load)

let suite =
  [
    case "Lemma 3.2 inequality" `Slow lower_bound_inequality;
    case "scale: 100x100 grid" `Slow large_grid_scales;
    case "pipeline: torus" `Quick pipeline_torus;
    case "pipeline: path power" `Quick pipeline_path_power;
    case "pipeline: k-tree" `Quick pipeline_k_tree;
    case "distributed pipeline end-to-end" `Quick distributed_pipeline_end_to_end;
    case "MST on lower-bound graph" `Slow mst_on_lower_bound_graph;
    case "failure injection: dropped shortcut edges" `Quick
      failure_injection_dropped_shortcut_edges;
    case "delta tracks minor density" `Quick delta_tracks_minor_density;
  ]
