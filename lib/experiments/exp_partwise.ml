open Core

let fmt = Table.fmt_float

let random_values rng n = Array.init n (fun _ -> Rng.int rng 1_000_000)

let e7 ?(seed = 7) () =
  let table =
    Table.create ~title:"Part-wise aggregation: rounds vs the schedule bound"
      [
        ("instance", Table.Left); ("n", Table.Right); ("provider", Table.Left);
        ("c", Table.Right); ("d", Table.Right); ("bound", Table.Right);
        ("rounds", Table.Right); ("r/bound", Table.Right); ("msgs", Table.Right);
      ]
  in
  let run name g partition tree =
    let n = Graph.n g in
    let values = random_values (Rng.create (seed + n)) n in
    let providers =
      [
        ("thm31", (Boost.full partition ~tree).Boost.shortcut);
        ("baseline", (Baseline.bfs_tree partition ~tree).Baseline.shortcut);
        ("none", Shortcut.empty partition);
      ]
    in
    List.iter
      (fun (provider, sc) ->
        let r = Quality.measure sc in
        let dil = if r.Quality.dilation = 0 then 1 else r.Quality.dilation in
        let bound = Aggregate.bound ~congestion:r.Quality.congestion ~dilation:dil ~n in
        let out = Sim_aggregate.minimum (Rng.create (seed + (2 * n))) sc ~values in
        assert (out.Sim_aggregate.minima = Aggregate.reference_minima sc ~values);
        Table.add_row table
          [
            name;
            string_of_int n;
            provider;
            string_of_int r.Quality.congestion;
            string_of_int r.Quality.dilation;
            string_of_int bound;
            string_of_int out.Sim_aggregate.completion_round;
            fmt
              (float_of_int out.Sim_aggregate.completion_round
              /. float_of_int (max 1 bound));
            string_of_int out.Sim_aggregate.messages;
          ])
      providers
  in
  List.iter
    (fun side ->
      let g = Generators.grid ~rows:side ~cols:side in
      run
        (Printf.sprintf "grid %d rows" side)
        g
        (Partition.grid_rows g ~rows:side ~cols:side)
        (Bfs.tree g ~root:0))
    [ 16; 24; 32 ];
  List.iter
    (fun (delta', d') ->
      let lb = Lower_bound_graph.create ~delta' ~d' in
      let g = lb.Lower_bound_graph.graph in
      run
        (Printf.sprintf "fig3.2 (%d,%d)" delta' d')
        g lb.Lower_bound_graph.parts (Bfs.tree g ~root:0))
    [ (6, 28); (7, 45) ];
  {
    Exp_types.id = "E7";
    title = "PA completes in O(c + d log n) rounds given a (c,d)-shortcut";
    table;
    notes =
      [
        "bound = c + d*ceil(log2 n), the random-delays schedule bound; \
         r/bound staying O(1) is the claim.";
        "Grid rows have internal diameter sqrt(n) = D/2, so shortcuts \
         cannot beat the bare flood there; the parts that need shortcuts \
         are those with internal diameter >> D — the fig3.2 rows here \
         (length (delta-1)D vs diameter <= D') and the wheel rims of E10.";
      ];
  }

let e10 ?(seed = 10) () =
  let table =
    Table.create ~title:"Wheel graphs: rim part (diameter n-2) in a diameter-2 network"
      [
        ("n", Table.Right); ("bare rounds", Table.Right);
        ("thm31 rounds", Table.Right); ("speedup", Table.Right);
        ("thm31 c", Table.Right); ("thm31 d", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let g = Generators.wheel n in
      let partition = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
      let tree = Bfs.tree g ~root:0 in
      let values = random_values (Rng.create (seed + n)) n in
      let bare =
        Sim_aggregate.minimum (Rng.create seed) (Shortcut.empty partition) ~values
      in
      let sc = (Boost.full partition ~tree).Boost.shortcut in
      let fast = Sim_aggregate.minimum (Rng.create seed) sc ~values in
      assert (bare.Sim_aggregate.minima = fast.Sim_aggregate.minima);
      let bare = bare.Sim_aggregate.completion_round
      and fast = fast.Sim_aggregate.completion_round in
      let r = Quality.measure sc in
      Table.add_row table
        [
          string_of_int n;
          string_of_int bare;
          string_of_int fast;
          fmt (float_of_int bare /. float_of_int (max 1 fast));
          string_of_int r.Quality.congestion;
          string_of_int r.Quality.dilation;
        ])
    [ 64; 128; 256; 512; 1024 ];
  {
    Exp_types.id = "E10";
    title = "Section 2 motivation: shortcuts turn Theta(n) aggregation into O(1)";
    table;
    notes =
      [ "The speedup column grows linearly with n: exactly the wheel story." ];
  }
