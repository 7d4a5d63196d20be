open Core

let e14 ?(seed = 14) () =
  let table =
    Table.create ~title:"Scheduling-policy ablation for shared-edge port queues"
      [
        ("instance", Table.Left); ("policy", Table.Left); ("c", Table.Right);
        ("d", Table.Right); ("rounds", Table.Right); ("msgs", Table.Right);
      ]
  in
  let run name partition tree =
    let sc = (Boost.full partition ~tree).Boost.shortcut in
    let r = Quality.measure sc in
    let host = Partition.graph partition in
    let values =
      let rng = Rng.create (seed + Graph.n host) in
      Array.init (Graph.n host) (fun _ -> Rng.int rng 1_000_000)
    in
    List.iter
      (fun policy ->
        let out =
          Sim_aggregate.minimum ~policy (Rng.create (seed + 3)) sc ~values
        in
        assert (out.Sim_aggregate.minima = Aggregate.reference_minima sc ~values);
        Table.add_row table
          [
            name;
            Schedule.to_string policy;
            string_of_int r.Quality.congestion;
            string_of_int r.Quality.dilation;
            string_of_int out.Sim_aggregate.completion_round;
            string_of_int out.Sim_aggregate.messages;
          ])
      [ Schedule.Random_delay; Schedule.Fifo; Schedule.Static_order ]
  in
  let g = Generators.grid ~rows:24 ~cols:24 in
  run "grid 24 voro n/4"
    (Partition.voronoi g (Rng.create (seed + 1)) ~parts:(Graph.n g / 4))
    (Bfs.tree g ~root:0);
  let lb = Lower_bound_graph.create ~delta':6 ~d':28 in
  run "fig3.2 (6,28) rows" lb.Lower_bound_graph.parts
    (Bfs.tree lb.Lower_bound_graph.graph ~root:0);
  {
    Exp_types.id = "E14";
    title = "random delays vs FIFO vs static order under contention";
    table;
    notes =
      [
        "All policies deliver correct aggregates. At the moderate \
         contention of these instances FIFO keeps up with random delays \
         and static order is slowest on the grid; random delays are kept \
         as the default because they make the O(c + d log n) completion \
         bound provable in the worst case \
         (adversarial arrival patterns can starve FIFO/static queues).";
      ];
  }

let e15 ?(seed = 15) () =
  let table =
    Table.create
      ~title:"Threshold ablation: congestion cap c swept from 2 to 8D"
      [
        ("c", Table.Right); ("budget", Table.Right); ("covered", Table.Right);
        ("k", Table.Right); ("|O|", Table.Right); ("cong", Table.Right);
        ("blk", Table.Right); ("dil", Table.Right); (">= half", Table.Left);
      ]
  in
  let side = 24 in
  let g = Generators.grid ~rows:side ~cols:side in
  let partition = Partition.voronoi g (Rng.create (seed + 1)) ~parts:(Graph.n g / 3) in
  let tree = Bfs.tree g ~root:0 in
  let d = max 1 (Rooted_tree.height tree) in
  List.iter
    (fun threshold ->
      let block_budget = threshold / d in
      let result = Construct.run partition ~tree ~threshold ~block_budget in
      let r = Quality.measure result.Construct.shortcut in
      Table.add_row table
        [
          string_of_int threshold;
          string_of_int block_budget;
          string_of_int result.Construct.selected_count;
          string_of_int (Partition.k partition);
          string_of_int result.Construct.overcongested_count;
          string_of_int r.Quality.congestion;
          string_of_int r.Quality.max_block_number;
          string_of_int r.Quality.dilation;
          (if Construct.succeeded result then "yes" else "no");
        ])
    [ 2; 4; 8; d / 2; d; 2 * d; 4 * d; 8 * d ];
  {
    Exp_types.id = "E15";
    title = "the paper's 8delta constant: where coverage reaches the half guarantee";
    table;
    notes =
      [
        Printf.sprintf
          "grid %dx%d, Voronoi k = n/3 parts, D = %d, block budget = c/D; \
           Theorem 3.1 guarantees '>= half' once c >= 8*delta(G)*D (here \
           delta < 3); tiny caps trade coverage away for much lighter \
           shortcuts — the knob the 8-delta constant sets." side side d;
      ];
  }

let e16 ?(seed = 16) () =
  let table =
    Table.create ~title:"Aggregation engines: min flooding vs tree convergecast (sum)"
      [
        ("instance", Table.Left); ("engine", Table.Left); ("rounds", Table.Right);
        ("msgs", Table.Right); ("correct", Table.Left);
      ]
  in
  let run name partition tree =
    let sc = (Boost.full partition ~tree).Boost.shortcut in
    let host = Partition.graph partition in
    let values =
      let rng = Rng.create (seed + Graph.n host) in
      Array.init (Graph.n host) (fun _ -> Rng.int rng 10_000)
    in
    let flood = Sim_aggregate.minimum (Rng.create (seed + 2)) sc ~values in
    let min_ok = flood.Sim_aggregate.minima = Aggregate.reference_minima sc ~values in
    Table.add_row table
      [
        name; "min-flood";
        string_of_int flood.Sim_aggregate.completion_round;
        string_of_int flood.Sim_aggregate.messages;
        (if min_ok then "yes" else "NO");
      ];
    let sums = Sim_aggregate.sum (Rng.create (seed + 2)) sc ~values in
    let sum_ok = sums.Sim_aggregate.minima = Aggregate.reference_sums sc ~values in
    Table.add_row table
      [
        name; "tree-sum";
        string_of_int sums.Sim_aggregate.completion_round;
        string_of_int sums.Sim_aggregate.messages;
        (if sum_ok then "yes" else "NO");
      ]
  in
  List.iter
    (fun side ->
      let g = Generators.grid ~rows:side ~cols:side in
      run
        (Printf.sprintf "grid %d rows" side)
        (Partition.grid_rows g ~rows:side ~cols:side)
        (Bfs.tree g ~root:0))
    [ 16; 24 ];
  let w = Generators.wheel 512 in
  run "wheel 512 rim"
    (Partition.of_parts w [ List.init 511 (fun i -> i + 1) ])
    (Bfs.tree w ~root:0);
  let lb = Lower_bound_graph.create ~delta':6 ~d':28 in
  run "fig3.2 (6,28)" lb.Lower_bound_graph.parts
    (Bfs.tree lb.Lower_bound_graph.graph ~root:0);
  {
    Exp_types.id = "E16";
    title = "Definition 2.1's two faces: idempotent flood vs exactly-once tree sum";
    table;
    notes =
      [
        "The tree engine sends exactly 2(|S_i|-1) messages per part \
         (convergecast + broadcast); the flood engine re-sends on every \
         improvement but needs no tree. Both run under the same per-edge \
         capacity and random-delay schedule.";
      ];
  }
