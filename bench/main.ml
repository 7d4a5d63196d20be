(* Benchmark harness: one Bechamel micro-benchmark per experiment kernel
   (E1..E13), followed by the full experiment tables — so a single
   `dune exec bench/main.exe` regenerates every table and figure of the
   reproduction together with the kernels' timing.

   Each kernel is the hot inner piece of its experiment at a fixed,
   bench-friendly size; the sweeps live in lib/experiments. *)

open Core
open Bechamel
open Toolkit

(* --- pre-built inputs (construction work happens outside the timers) --- *)

let grid24 = Generators.grid ~rows:24 ~cols:24
let grid24_rows = Partition.grid_rows grid24 ~rows:24 ~cols:24
let grid24_tree = Bfs.tree grid24 ~root:0

let lbg = Lower_bound_graph.create ~delta':5 ~d':30
let lbg_tree = Bfs.tree lbg.Lower_bound_graph.graph ~root:0

let grid16 = Generators.grid ~rows:16 ~cols:16
let grid16_voro = Partition.voronoi grid16 (Rng.create 42) ~parts:32
let grid16_rows = Partition.grid_rows grid16 ~rows:16 ~cols:16
let grid16_tree = Bfs.tree grid16 ~root:0
let grid16_shortcut = (Boost.full grid16_rows ~tree:grid16_tree).Boost.shortcut
let grid16_values = Array.init (Graph.n grid16) (fun v -> (v * 131) mod 65_521)

let clique86 = Generators.clique_of_grids ~blocks:8 ~side:6
let clique86_parts = Generators.block_partition ~blocks:8 ~side:6 clique86
let clique86_tree = Bfs.tree clique86 ~root:0

let ktree = Generators.k_tree (Rng.create 7) ~k:8 ~n:600
let ktree_parts = Partition.voronoi ktree (Rng.create 8) ~parts:20
let ktree_tree = Bfs.tree ktree ~root:0

let grid12 = Generators.grid ~rows:12 ~cols:12
let grid12_rows = Partition.grid_rows grid12 ~rows:12 ~cols:12

let grid10 = Generators.grid ~rows:10 ~cols:10
let grid10_rows = Partition.grid_rows grid10 ~rows:10 ~cols:10
let grid10_tree = Bfs.tree grid10 ~root:0
let grid10_weights = Weights.random_distinct (Rng.create 5) grid10

let grid8 = Generators.grid ~rows:8 ~cols:8
let grid8_kept =
  let rng = Rng.create 11 in
  Array.init (Graph.m grid8) (fun _ -> Rng.bernoulli rng 0.7)

let wheel256 = Generators.wheel 256
let wheel256_parts =
  Partition.of_parts wheel256 [ List.init 255 (fun i -> i + 1) ]
let wheel256_tree = Bfs.tree wheel256 ~root:0
let wheel256_shortcut = (Boost.full wheel256_parts ~tree:wheel256_tree).Boost.shortcut
let wheel256_values = Array.init 256 (fun v -> (v * 37) mod 1009)

let grid16_failed =
  Construct.run ~record_blame:true grid16_rows ~tree:grid16_tree ~threshold:2
    ~block_budget:0

let grid32 = Generators.grid ~rows:32 ~cols:32
let grid32_rows = Partition.grid_rows grid32 ~rows:32 ~cols:32
let grid32_tree = Bfs.tree grid32 ~root:0

(* --- the kernels ------------------------------------------------------- *)

let tests =
  [
    Test.make ~name:"e1_thm31_grid" (Staged.stage (fun () ->
        ignore (Construct.auto grid24_rows ~tree:grid24_tree)));
    Test.make ~name:"e2_lower_bound" (Staged.stage (fun () ->
        ignore (Boost.full lbg.Lower_bound_graph.parts ~tree:lbg_tree)));
    Test.make ~name:"e3_boosting" (Staged.stage (fun () ->
        ignore (Boost.full grid16_voro ~tree:grid16_tree)));
    Test.make ~name:"e4_genus" (Staged.stage (fun () ->
        ignore (Construct.auto clique86_parts ~tree:clique86_tree)));
    Test.make ~name:"e5_treewidth" (Staged.stage (fun () ->
        ignore (Construct.auto ktree_parts ~tree:ktree_tree)));
    Test.make ~name:"e6_distributed" (Staged.stage (fun () ->
        ignore (Distributed.construct ~seed:3 grid12_rows ~root:0)));
    Test.make ~name:"e7_partwise" (Staged.stage (fun () ->
        ignore
          (Sim_aggregate.minimum (Rng.create 9) grid16_shortcut ~values:grid16_values)));
    Test.make ~name:"e8_mst" (Staged.stage (fun () ->
        ignore (Mst.boruvka ~seed:6 grid10_weights)));
    Test.make ~name:"e9_mincut_probe" (Staged.stage (fun () ->
        ignore
          (Connectivity.components ~seed:12 grid8 ~keep:(fun e -> grid8_kept.(e)))));
    Test.make ~name:"e10_wheel" (Staged.stage (fun () ->
        ignore
          (Sim_aggregate.minimum (Rng.create 10) wheel256_shortcut
             ~values:wheel256_values)));
    Test.make ~name:"e11_certificate" (Staged.stage (fun () ->
        ignore (Certificate.best_effort ~max_attempts:8 (Rng.create 13) grid16_failed)));
    Test.make ~name:"e12_trace" (Staged.stage (fun () ->
        ignore
          (Construct.run ~record_blame:true grid10_rows ~tree:grid10_tree
             ~threshold:3 ~block_budget:1)));
    Test.make ~name:"e13_baseline" (Staged.stage (fun () ->
        let b = Baseline.bfs_tree grid32_rows ~tree:grid32_tree in
        ignore (Quality.congestion b.Baseline.shortcut)));
    Test.make ~name:"e14_schedule" (Staged.stage (fun () ->
        ignore
          (Sim_aggregate.minimum ~policy:Schedule.Fifo (Rng.create 14) grid16_shortcut
             ~values:grid16_values)));
    Test.make ~name:"e15_threshold" (Staged.stage (fun () ->
        ignore (Construct.run grid16_rows ~tree:grid16_tree ~threshold:8 ~block_budget:0)));
    Test.make ~name:"e16_engines" (Staged.stage (fun () ->
        ignore (Sim_aggregate.sum (Rng.create 16) grid16_shortcut ~values:grid16_values)));
    Test.make ~name:"e17_sim_pa" (Staged.stage (fun () ->
        ignore
          (Sim_aggregate.minimum (Rng.create 17) grid16_shortcut ~values:grid16_values)));
    Test.make ~name:"e18_sssp" (Staged.stage (fun () ->
        ignore (Sssp.bellman_ford grid10_weights ~src:0)));
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"lcs" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"Experiment kernels (Bechamel, monotonic clock)"
      [ ("kernel", Table.Left); ("time/run", Table.Right); ("r^2", Table.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let time_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> Float.nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> Float.nan
      in
      rows := (name, time_ns, r2) :: !rows)
    results;
  let human ns =
    if Float.is_nan ns then "n/a"
    else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, ns, r2) ->
      Table.add_row table [ name; human ns; Printf.sprintf "%.3f" r2 ])
    (List.sort compare !rows);
  Table.print table;
  List.sort compare !rows

(* Machine-readable timings next to the ASCII table, so the kernels' perf
   trajectory can be tracked across commits by diffing JSON instead of
   re-reading tables. *)
let write_json path rows =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "lcs-bench-kernels/1");
        ("unit", Json.String "ns/run");
        ( "kernels",
          Json.Obj
            (List.map
               (fun (name, ns, r2) ->
                 ( name,
                   Json.Obj
                     [ ("time_ns", Json.Float ns); ("r_square", Json.Float r2) ] ))
               rows) );
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  (* main.exe [--no-tables] [PATH]: kernels always run and land in the
     JSON report (default BENCH_kernels.json at the repo root, where CI
     picks it up); --no-tables skips the experiment-table sweep, which
     dominates the wall time and has its own harness. *)
  let json_path = ref "BENCH_kernels.json" in
  let tables = ref true in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--no-tables" -> tables := false
        | path -> json_path := path)
    Sys.argv;
  let rows = benchmark () in
  write_json !json_path rows;
  if !tables then begin
    print_newline ();
    print_endline
      "=== experiment tables (one per paper claim; see EXPERIMENTS.md) ===";
    print_newline ();
    Lcs_experiments.Registry.run_all ~seed:1 ()
  end
