open Core

let fmt = Table.fmt_float

(* Weights whose unique MST is the boustrophedon (snake) Hamiltonian path,
   with snake-edge weights following the ruler sequence: edge i of the
   snake gets level ν₂(i+1), so phase p of Borůvka merges exactly the
   2^p-segments — mid-run fragments are long snake paths whose internal
   diameter doubles every phase, approaching n. This is the adversarial
   fragment shape that makes shortcut-less MST pay Θ(n) total and that
   Corollary 1.6's shortcuts absorb. *)
let snake_weights g ~side =
  let n = side * side in
  let id r c = (r * side) + c in
  let snake_vertex i =
    let r = i / side and j = i mod side in
    if r mod 2 = 0 then id r j else id r (side - 1 - j)
  in
  let level i =
    let rec nu x acc = if x land 1 = 1 then acc else nu (x lsr 1) (acc + 1) in
    nu (i + 1) 0
  in
  let snake_edge = Hashtbl.create (2 * n) in
  for i = 0 to n - 2 do
    match Graph.find_edge g (snake_vertex i) (snake_vertex (i + 1)) with
    | Some e -> Hashtbl.replace snake_edge e ((level i * n) + i + 1)
    | None -> invalid_arg "snake_weights: grid mismatch"
  done;
  let ceiling = (32 * n) + n in
  Weights.create g (fun e ->
      match Hashtbl.find_opt snake_edge e with Some w -> w | None -> ceiling + e)

(* The wheel counterpart: ruler weights along the rim path make Borůvka's
   fragments doubling rim arcs — paths with no chords, so their *induced*
   diameter really is their length, inside a diameter-2 graph. Spokes stay
   expensive until the end. This is the cleanest realization of the
   adversarial fragments Corollary 1.6 is about. *)
let wheel_ruler_weights g n =
  let level i =
    let rec nu x acc = if x land 1 = 1 then acc else nu (x lsr 1) (acc + 1) in
    nu (i + 1) 0
  in
  let rim_edge = Hashtbl.create (2 * n) in
  for i = 1 to n - 2 do
    match Graph.find_edge g i (i + 1) with
    | Some e -> Hashtbl.replace rim_edge e ((level (i - 1) * n) + i)
    | None -> invalid_arg "wheel_ruler_weights"
  done;
  Weights.create g (fun e ->
      match Hashtbl.find_opt rim_edge e with Some w -> w | None -> (33 * n) + e)

let e8 ?(seed = 8) () =
  let table =
    Table.create ~title:"Distributed MST (Boruvka over PA) on weighted grids"
      [
        ("weights", Table.Left); ("n", Table.Right); ("D", Table.Right);
        ("mode", Table.Left); ("phases", Table.Right); ("pa rounds", Table.Right);
        ("maxcong", Table.Right); ("= Kruskal", Table.Left);
        ("D+sqrt(n)", Table.Right);
      ]
  in
  let run name w ~d =
    let g = Weights.graph w in
    let n = Graph.n g in
    let reference = Kruskal.mst w in
    List.iter
      (fun (mode_name, mode) ->
        let result = Mst.boruvka ~seed:(seed + (3 * n)) ~mode w in
        Table.add_row table
          [
            name;
            string_of_int n;
            string_of_int d;
            mode_name;
            string_of_int result.Mst.accounting.Boruvka_engine.phases;
            string_of_int result.Mst.accounting.Boruvka_engine.pa_rounds;
            string_of_int result.Mst.accounting.Boruvka_engine.max_congestion;
            (if result.Mst.edges = reference then "yes" else "NO");
            string_of_int (d + int_of_float (Float.ceil (sqrt (float_of_int n))));
          ])
      [
        ("thm31", Boruvka_engine.Thm31);
        ("baseline", Boruvka_engine.Bfs_baseline);
        ("induced", Boruvka_engine.Induced_only);
      ]
  in
  List.iter
    (fun side ->
      let g = Generators.grid ~rows:side ~cols:side in
      run "random"
        (Weights.random_distinct (Rng.create (seed + side)) g)
        ~d:(2 * (side - 1)))
    [ 8; 12; 16; 24 ];
  List.iter
    (fun side ->
      let g = Generators.grid ~rows:side ~cols:side in
      run "snake" (snake_weights g ~side) ~d:(2 * (side - 1)))
    [ 12; 16; 24 ];
  List.iter
    (fun n ->
      let g = Generators.wheel n in
      run "wheel-ruler" (wheel_ruler_weights g n) ~d:2)
    [ 128; 256; 512 ];
  {
    Exp_types.id = "E8";
    title = "Corollary 1.6: MST in Õ(δD) PA rounds; baseline pays Θ(D+√n)-per-phase";
    table;
    notes =
      [
        "pa rounds = completion rounds of the simulated aggregations \
         (Sim_aggregate) summed over all Boruvka phases (two aggregations \
         per phase: MWOE minimum + fragment-id broadcast); the same at any \
         domain count.";
        "'snake' (grid) and 'wheel-ruler' weights follow the ruler \
         sequence, so fragments double in length each phase. On grids the \
         induced subgraph of a snake segment is a solid block, so even \
         there fragments stay shallow; on the wheel the doubling rim arcs \
         are chord-free paths — internal diameter up to n/2 inside a \
         diameter-2 graph — and the induced-only mode pays Θ(n) total \
         while Theorem 3.1 shortcuts stay polylogarithmic. That contrast \
         is Corollary 1.6.";
        "Every row is verified edge-for-edge against Kruskal (distinct \
         weights make the MST unique).";
      ];
  }

let e9 ?(seed = 9) () =
  let table =
    Table.create ~title:"Min-cut estimation by edge sampling + PA connectivity"
      [
        ("instance", Table.Left); ("n", Table.Right); ("exact", Table.Right);
        ("estimate", Table.Right); ("mindeg", Table.Right);
        ("p*", Table.Right); ("calls", Table.Right); ("pa rounds", Table.Right);
      ]
  in
  let instances =
    [
      ("cycle 48", Generators.cycle 48);
      ("grid 8x8", Generators.grid ~rows:8 ~cols:8);
      ("torus 6x6", Generators.torus ~rows:6 ~cols:6);
      ("lollipop 12+20", Generators.lollipop ~clique:12 ~tail:20);
    ]
  in
  List.iter
    (fun (name, g) ->
      let exact = Stoer_wagner.min_cut g in
      let est = Mincut.estimate ~seed ~trials:4 g in
      Table.add_row table
        [
          name;
          string_of_int (Graph.n g);
          string_of_int exact;
          fmt est.Mincut.lambda;
          string_of_int est.Mincut.min_degree;
          fmt est.Mincut.p_star;
          string_of_int est.Mincut.connectivity_calls;
          string_of_int est.Mincut.pa_rounds;
        ])
    instances;
  {
    Exp_types.id = "E9";
    title = "Corollary 1.7 regime: constant-factor min-cut via Õ(1) PA-connectivity calls";
    table;
    notes =
      [
        "estimate inverts C(1-p*)^λ = 1/2 with C = 2n^1.5 (Karger's \
         near-min-cut counting bound); accuracy is constant-factor, \
         exactness for small cuts follows from λ <= min degree <= 2δ \
         (the paper's own reduction, Section 3.3).";
        "Exact reference: Stoer–Wagner.";
      ];
  }

let e18 ?(seed = 18) () =
  let table =
    Table.create ~title:"Distributed SSSP on the simulator"
      [
        ("instance", Table.Left); ("n", Table.Right); ("D", Table.Right);
        ("bfs rnd", Table.Right); ("bf conv", Table.Right);
        ("bf msgs", Table.Right); ("= Dijkstra", Table.Left);
      ]
  in
  let run name g =
    let d = Diameter.of_graph g in
    let _dist, bfs_stats = Sssp.bfs g ~src:0 in
    let w = Weights.random (Rng.create (seed + Graph.n g)) g ~max_weight:16 in
    let r = Sssp.bellman_ford w ~src:0 in
    let ok = r.Sssp.distances = Dijkstra.distances w ~src:0 in
    Table.add_row table
      [
        name;
        string_of_int (Graph.n g);
        string_of_int d;
        string_of_int bfs_stats.Simulator.rounds;
        string_of_int r.Sssp.convergence_round;
        string_of_int r.Sssp.messages;
        (if ok then "yes" else "NO");
      ]
  in
  run "grid 16x16" (Generators.grid ~rows:16 ~cols:16);
  run "grid 24x24" (Generators.grid ~rows:24 ~cols:24);
  run "torus 12x12" (Generators.torus ~rows:12 ~cols:12);
  run "wheel 256" (Generators.wheel 256);
  run "lollipop 16+64" (Generators.lollipop ~clique:16 ~tail:64);
  run "path^4 n=400" (Generators.path_power ~n:400 ~k:4);
  {
    Exp_types.id = "E18";
    title = "SSSP: exact BFS in O(D) rounds; Bellman-Ford converges in weighted-hop diameter";
    table;
    notes =
      [
        "bfs rnd = full distributed BFS protocol (join + child + height \
         convergecast + broadcast), a small multiple of D.";
        "bf conv = last round any tentative distance improved; the \
         protocol itself runs to its hop bound. DESIGN.md §4 records this \
         as the stand-in for the [HL18] (1+eps) machinery.";
      ];
  }
