(* The Section 2 motivating example: a wheel graph has diameter 2, but its
   rim — a single connected part — has diameter n-2. Aggregating over the
   rim without help costs Theta(n) rounds; a shortcut through the hub makes
   it O(1).

   Run with:  dune exec examples/wheel_aggregation.exe *)

open Core

let run n =
  let g = Generators.wheel n in
  let rim = List.init (n - 1) (fun i -> i + 1) in
  let partition = Partition.of_parts g [ rim ] in
  let values = Array.init n (fun v -> (v * 7919) mod 104729) in

  (* Without shortcuts: the rim floods along itself. *)
  let bare = Sim_aggregate.minimum (Rng.create 1) (Shortcut.empty partition) ~values in

  (* With Theorem 3.1 shortcuts: the construction hands the rim the hub's
     spokes, collapsing its diameter to 2. *)
  let tree = Bfs.tree g ~root:0 in
  let boosted = Boost.full partition ~tree in
  let fast = Sim_aggregate.minimum (Rng.create 1) boosted.Boost.shortcut ~values in
  let r = Quality.measure boosted.Boost.shortcut in

  assert (bare.Sim_aggregate.minima = fast.Sim_aggregate.minima);
  Printf.printf
    "n=%5d  graph diameter 2, rim diameter %4d | bare PA %4d rounds, shortcut PA %2d rounds (c=%d, d=%d)\n"
    n (Partition.internal_diameter partition 0) bare.Sim_aggregate.completion_round
    fast.Sim_aggregate.completion_round r.Quality.congestion r.Quality.dilation

let () =
  print_endline "Part-wise aggregation on the wheel (Definition 2.1's cautionary tale):";
  List.iter run [ 64; 128; 256; 512; 1024; 2048 ]
