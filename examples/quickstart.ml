(* Quickstart: build a graph, pick parts, construct a Theorem 3.1 shortcut,
   measure its quality, and run a part-wise aggregation through it.

   Run with:  dune exec examples/quickstart.exe *)

open Core

let () =
  (* 1. A 32x32 planar grid: minor density < 3, diameter 62. *)
  let side = 32 in
  let g = Generators.grid ~rows:side ~cols:side in
  Format.printf "graph: %a, diameter %d@." Graph.pp g (Diameter.of_graph g);

  (* 2. Parts: one per grid row — long thin paths, the classic hard case
     for part-wise aggregation. *)
  let partition = Partition.grid_rows g ~rows:side ~cols:side in
  Printf.printf "parts: %d rows, internal diameter %d\n" (Partition.k partition)
    (Partition.internal_diameter partition 0);

  (* 3. A BFS tree and the Theorem 3.1 construction, with delta found by
     doubling search. *)
  let tree = Bfs.tree g ~root:0 in
  let result, delta = Construct.auto partition ~tree in
  Printf.printf "accepted delta = %d (threshold 8*delta*D = %d)\n" delta
    result.Construct.threshold;

  (* 4. Boost the partial shortcut to a full one (Observation 2.7) and
     measure congestion / dilation / block number. *)
  let boosted = Boost.full partition ~tree in
  let report = Quality.measure boosted.Boost.shortcut in
  Format.printf "full shortcut: %a@." Quality.pp_report report;

  (* 5. Use it: every row learns the minimum of its values, under real
     per-edge bandwidth contention. *)
  let rng = Rng.create 1 in
  let values = Array.init (Graph.n g) (fun _ -> Rng.int rng 1_000_000) in
  let out = Sim_aggregate.minimum (Rng.create 2) boosted.Boost.shortcut ~values in
  let ok =
    out.Sim_aggregate.minima = Aggregate.reference_minima boosted.Boost.shortcut ~values
  in
  Printf.printf "part-wise minimum: %d rounds, %d messages, correct = %b\n"
    out.Sim_aggregate.completion_round out.Sim_aggregate.messages ok;

  (* The schedule bound the measurement sits under. *)
  let bound =
    Aggregate.bound ~congestion:report.Quality.congestion
      ~dilation:(max 1 report.Quality.dilation) ~n:(Graph.n g)
  in
  Printf.printf "schedule bound c + d*log2(n) = %d (measured %d)\n" bound
    out.Sim_aggregate.completion_round;
  (* Grid rows have internal diameter D/2, so bare intra-part flooding is
     already Theta(D) here — the dramatic gaps appear when parts are much
     deeper than the graph (see wheel_aggregation.exe and
     lower_bound_tour.exe). *)
  let bare = Sim_aggregate.minimum (Rng.create 2) (Shortcut.empty partition) ~values in
  Printf.printf "without shortcuts: %d rounds (rows are shallow; see the wheel example)\n"
    bare.Sim_aggregate.completion_round
