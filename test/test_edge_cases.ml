(* Degenerate inputs every layer must survive: single-vertex graphs,
   two-vertex protocols, empty (k = 0) part collections. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let single_vertex_pipeline () =
  let g = Graph.create ~n:1 [] in
  let p = Partition.whole g in
  let tree = Bfs.tree g ~root:0 in
  let result, delta = Construct.auto p ~tree in
  check Alcotest.int "delta" 1 delta;
  check Alcotest.int "covered" 1 result.Construct.selected_count;
  let b = Boost.full p ~tree in
  check Alcotest.int "quality 0" 0 (Quality.measure b.Boost.shortcut).Quality.quality;
  let out = Sim_aggregate.minimum (Rng.create 1) b.Boost.shortcut ~values:[| 42 |] in
  check Alcotest.int "PA instant" 0 out.Sim_aggregate.completion_round;
  check Alcotest.int "PA value" 42 out.Sim_aggregate.minima.(0);
  let s = Sim_aggregate.sum (Rng.create 1) b.Boost.shortcut ~values:[| 42 |] in
  check Alcotest.int "sum value" 42 s.Sim_aggregate.minima.(0)

let single_vertex_protocols () =
  let g = Graph.create ~n:1 [] in
  let _tree, height, _stats = Sync_bfs.run g ~root:0 in
  check Alcotest.int "bfs height" 0 height;
  check Alcotest.int "leader" 0 (fst (Leader_election.run g));
  let w = Weights.uniform g 1 in
  check (Alcotest.list Alcotest.int) "mst empty" [] (Mst.boruvka w).Mst.edges

let empty_part_collection () =
  let g = Generators.path 3 in
  let p = Partition.of_assignment g [| -1; -1; -1 |] in
  check Alcotest.int "k = 0" 0 (Partition.k p);
  let sc = Shortcut.empty p in
  check Alcotest.int "quality 0" 0 (Quality.measure sc).Quality.quality;
  let out = Sim_aggregate.minimum (Rng.create 1) sc ~values:[| 1; 2; 3 |] in
  check Alcotest.int "PA instant" 0 out.Sim_aggregate.completion_round;
  let result = Construct.run p ~tree:(Bfs.tree g ~root:0) ~threshold:2 ~block_budget:1 in
  check Alcotest.bool "vacuously succeeds" true (Construct.succeeded result)

let two_vertex_everything () =
  let g = Generators.path 2 in
  let _tree, height, _ = Sync_bfs.run g ~root:1 in
  check Alcotest.int "bfs height" 1 height;
  check Alcotest.int "leader" 1 (fst (Leader_election.run g));
  check Alcotest.int "stoer-wagner" 1 (Stoer_wagner.min_cut g);
  check Alcotest.int "karger" 1 (Karger.min_cut (Rng.create 1) g);
  let w = Weights.uniform g 5 in
  check Alcotest.int "mst" 1 (List.length (Mst.boruvka w).Mst.edges);
  let r = Sssp.bellman_ford w ~src:0 in
  check Alcotest.int "bf dist" 5 r.Sssp.distances.(1)

let weights_and_minor_degenerates () =
  let g = Graph.create ~n:2 [ (0, 1) ] in
  (* Contracting everything to one vertex: a single-node minor. *)
  let h = Minor.contract g ~assignment:[| 0; 0 |] in
  check Alcotest.int "one node" 1 (Graph.n h);
  check Alcotest.int "no edges" 0 (Graph.m h);
  (* Deleting everything yields the empty minor. *)
  let e = Minor.contract g ~assignment:[| -1; -1 |] in
  check Alcotest.int "empty" 0 (Graph.n e)

let suite =
  [
    case "single vertex: shortcut pipeline" `Quick single_vertex_pipeline;
    case "single vertex: protocols" `Quick single_vertex_protocols;
    case "empty part collection" `Quick empty_part_collection;
    case "two vertices: everything" `Quick two_vertex_everything;
    case "degenerate minors" `Quick weights_and_minor_degenerates;
  ]
