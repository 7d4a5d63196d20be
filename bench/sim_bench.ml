(* Simulator macro-benchmarks: whole protocol runs through the CONGEST
   core, reported as allocation (the quantity the CSR message plane
   exists to kill) plus wall time. Five workloads — graph-flood
   broadcast, synchronous BFS, part-wise aggregation under the enforced
   model, the Theorem 1.5 distributed construction and Borůvka MST —
   each on grid / k-tree / lower-bound topologies at two sizes.

   The broadcast workload additionally runs bit-identically on the
   retained reference core (Simulator_ref), and the report carries the
   minor-heap ratio between the two — the headline number CI asserts
   stays >= 3x.

   A domain-scaling section reruns the largest broadcast on the
   simulator at 1/2/4/8 domains, reporting wall-clock speedup
   and asserting the determinism contract (identical states and stats at
   every domain count). The speedup gate — >= 2x at 4 domains — runs
   only when the machine reports >= 4 cores and prints a skip message
   otherwise, so single-core containers stay green.

   Allocation words per run are deterministic for a fixed code path,
   which is what makes them CI-gateable where timings are not:

     sim_bench.exe [--quick] [--out PATH]

   --quick     small sizes only, one measured iteration (the CI mode)
   --out       where to write the lcs-bench-simulator/2 report
               (default BENCH_simulator.json)

   bench_diff.exe gates the report's minor-heap words against a baseline
   report; CI checks the broadcast ratio on the report itself. *)

open Core

(* --- workloads --------------------------------------------------------- *)

(* Graph flood: the root's token reaches every node; each node forwards on
   every port exactly once. 2m messages over eccentricity(root)+1 rounds —
   the densest per-round traffic the 1-word model allows. The state and
   the payload are immediate ints, so the measured loop is the simulator
   core alone. States: 0 = waiting, 1 = has the token, 2 = forwarded and
   halted. Every node stays due every round ([Simulator.always]) rather
   than sleeping until the token arrives, so the domain-scaling curve
   keeps measuring the same per-round work. *)
let flood_program ~root =
  {
    Simulator.init = (fun ctx -> if ctx.Simulator.node = root then 1 else 0);
    on_round =
      (fun ctx st mb ->
        let st = if st = 0 && Simulator.deliveries mb > 0 then 1 else st in
        if st = 1 then begin
          for p = 0 to Array.length ctx.Simulator.neighbors - 1 do
            Simulator.send mb p 1
          done;
          2
        end
        else st);
    is_halted = (fun st -> st = 2);
    wake = Simulator.always;
    msg_words = (fun _ -> 1);
  }

(* --- measurement ------------------------------------------------------- *)

type sample = { minor_words : float; promoted_words : float; seconds : float }

let measure ~iters f =
  ignore (f ());
  (* warm-up: buffers reach their high-water marks *)
  Gc.full_major ();
  (* Gc.minor_words () is the precise allocation counter; quick_stat's
     copy only advances at minor-collection boundaries. *)
  let mw0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  let t1 = Sys.time () in
  let s1 = Gc.quick_stat () in
  let mw1 = Gc.minor_words () in
  let per x0 x1 = (x1 -. x0) /. float_of_int iters in
  {
    minor_words = per mw0 mw1;
    promoted_words = per s0.Gc.promoted_words s1.Gc.promoted_words;
    seconds = per t0 t1;
  }

(* --- the benchmark matrix ---------------------------------------------- *)

(* [prepare] builds the inputs (outside any timer) and returns the run
   thunk; entries are prepared only when selected, so quick mode never
   pays for the large sizes. *)
type entry = { name : string; large : bool; prepare : unit -> unit -> unit }

(* Broadcast entries also expose the same program on the reference core. *)
type bcast = { bname : string; blarge : bool; bprepare : unit -> (unit -> unit) * (unit -> unit) }

let graph_families =
  [
    (* name, large?, graph builder *)
    ("grid16", false, fun () -> Generators.grid ~rows:16 ~cols:16);
    ("grid28", true, fun () -> Generators.grid ~rows:28 ~cols:28);
    ("ktree300", false, fun () -> Generators.k_tree (Rng.create 7) ~k:6 ~n:300);
    ("ktree700", true, fun () -> Generators.k_tree (Rng.create 7) ~k:6 ~n:700);
    ("lbg5_12", false, fun () -> (Lower_bound_graph.create ~delta':5 ~d':12).Lower_bound_graph.graph);
    ("lbg5_30", true, fun () -> (Lower_bound_graph.create ~delta':5 ~d':30).Lower_bound_graph.graph);
  ]

let broadcasts : bcast list =
  List.map
    (fun (name, large, build) ->
      {
        bname = name;
        blarge = large;
        bprepare =
          (fun () ->
            let g = build () in
            let program = flood_program ~root:0 in
            ( (fun () -> ignore (Simulator.run_outcome g program)),
              fun () -> ignore (Simulator_ref.run_outcome g program) ));
      })
    graph_families

let sync_bfs_entries =
  List.map
    (fun (name, large, build) ->
      {
        name = "sync_bfs/" ^ name;
        large;
        prepare =
          (fun () ->
            let g = build () in
            fun () -> ignore (Sync_bfs.run g ~root:0));
      })
    graph_families

(* Part-wise aggregation wants a full shortcut; each family carries its
   natural partition (grid rows, Voronoi cells, the lower-bound rows). *)
let partwise_entries =
  let make name large shortcut_builder =
    {
      name = "partwise/" ^ name;
      large;
      prepare =
        (fun () ->
          let sc = shortcut_builder () in
          let n = Graph.n (Shortcut.graph sc) in
          let values = Array.init n (fun v -> (v * 131) mod 65_521) in
          fun () -> ignore (Sim_aggregate.minimum (Rng.create 17) sc ~values));
    }
  in
  let boosted g parts =
    let tree = Bfs.tree g ~root:0 in
    (Boost.full parts ~tree).Boost.shortcut
  in
  [
    make "grid16" false (fun () ->
        let g = Generators.grid ~rows:16 ~cols:16 in
        boosted g (Partition.grid_rows g ~rows:16 ~cols:16));
    make "grid28" true (fun () ->
        let g = Generators.grid ~rows:28 ~cols:28 in
        boosted g (Partition.grid_rows g ~rows:28 ~cols:28));
    make "ktree300" false (fun () ->
        let g = Generators.k_tree (Rng.create 7) ~k:6 ~n:300 in
        boosted g (Partition.voronoi g (Rng.create 8) ~parts:10));
    make "ktree700" true (fun () ->
        let g = Generators.k_tree (Rng.create 7) ~k:6 ~n:700 in
        boosted g (Partition.voronoi g (Rng.create 8) ~parts:20));
    make "lbg5_12" false (fun () ->
        let lbg = Lower_bound_graph.create ~delta':5 ~d':12 in
        boosted lbg.Lower_bound_graph.graph lbg.Lower_bound_graph.parts);
    make "lbg5_30" true (fun () ->
        let lbg = Lower_bound_graph.create ~delta':5 ~d':30 in
        boosted lbg.Lower_bound_graph.graph lbg.Lower_bound_graph.parts);
  ]

(* Faulty-run overhead: the same flood under the canned light-loss
   adversary (5% drop, 2% duplication, 5% reorder) with the Reliable ARQ
   wrapped around it — what self-healing transport costs in allocation
   terms next to the clean broadcast rows. A fresh injector per run keeps
   the fault draws identical across iterations, so the row stays
   deterministic and baseline-gateable. *)
let faulty_entries =
  let light_loss =
    {
      Fault.empty with
      Fault.seed = 7;
      default =
        { Fault.reliable_edge with Fault.drop = 0.05; duplicate = 0.02; reorder = 0.05 };
    }
  in
  let make name large rows =
    {
      name = "faulty/" ^ name;
      large;
      prepare =
        (fun () ->
          let g = Generators.grid ~rows ~cols:rows in
          let program = Reliable.wrap (flood_program ~root:0) in
          fun () ->
            ignore
              (Simulator.run_outcome ~max_rounds:20_000
                 ~faults:(Fault.compile light_loss) g program));
    }
  in
  [ make "grid16" false 16; make "grid28" true 28 ]

(* Traced-run overhead: the same flood broadcast under each observability
   configuration, so the price of watching a run is a row in the gated
   allocation matrix rather than folklore. [untraced] is the in-section
   baseline; [profile] pays the dense Exact counters; [sketch] the
   bounded-memory Space-Saving/quantile pair; [stream] additionally
   writes every event as a line of lcs-trace-stream/1 JSON (to a fixed
   temp path, recreated and removed per run, so the measured allocation
   stays deterministic). *)
let traced_entries =
  let stream_path =
    Filename.concat (Filename.get_temp_dir_name ()) "lcs_sim_bench_trace.jsonl"
  in
  let make name large rows tracer_of =
    {
      name = "traced_overhead/" ^ name;
      large;
      prepare =
        (fun () ->
          let g = Generators.grid ~rows ~cols:rows in
          let program = flood_program ~root:0 in
          fun () ->
            let tracer, finish = tracer_of g in
            ignore (Simulator.run ?tracer g program);
            finish ());
    }
  in
  let untraced _g = (None, fun () -> ()) in
  let profiled mode g =
    let p = Trace.Profile.create ~mode ~edges:(Graph.m g) () in
    (Some (Trace.Profile.tracer p), fun () -> ignore (Trace.Profile.total_words p))
  in
  let streamed g =
    let sink = Trace.Stream.create stream_path in
    let p = Trace.Profile.create ~edges:(Graph.m g) () in
    ( Some (Trace.tee [ Trace.Profile.tracer p; Trace.Stream.tracer sink ]),
      fun () ->
        Trace.Stream.close sink;
        Sys.remove stream_path )
  in
  [
    make "untraced/grid16" false 16 untraced;
    make "profile/grid16" false 16 (profiled Trace.Profile.Exact);
    make "sketch/grid16" false 16 (profiled (Trace.Profile.Sketch 256));
    make "stream/grid16" false 16 streamed;
    make "untraced/grid28" true 28 untraced;
    make "profile/grid28" true 28 (profiled Trace.Profile.Exact);
    make "sketch/grid28" true 28 (profiled (Trace.Profile.Sketch 256));
    make "stream/grid28" true 28 streamed;
  ]

(* Parallel-profiler overhead on the sharded core: the flood broadcast
   through the simulator at 2 domains, with the Par_profile collector
   detached (off — the row the allocation gate protects: every
   instrumentation point must stay behind a [match ... with None -> ()]
   branch, so the off path allocates exactly what it did before the
   profiler existed) and attached (on — reported so the recording cost
   is a number, not folklore; a fresh collector per run keeps the row
   deterministic). [measure]'s Gc counters are per-domain in OCaml 5, so
   these rows account the main domain — shard 0's deliveries plus all
   crew orchestration, which is where the instrumentation branches live. *)
let par_obs_entries =
  let make name pp_of =
    {
      name = "par_obs/" ^ name;
      large = false;
      prepare =
        (fun () ->
          let g = Generators.grid ~rows:16 ~cols:16 in
          let program = flood_program ~root:0 in
          fun () ->
            ignore
              (Simulator.run ~domains:2 ?par_profile:(pp_of ()) g program));
    }
  in
  [
    make "off/grid16" (fun () -> None);
    make "on/grid16" (fun () -> Some (Par_profile.create ()));
  ]

(* The distributed construction is the heaviest simulator client (BFS +
   detection waves); sizes stay modest to keep full mode under a minute. *)
let distributed_entries =
  let make name large partition_builder =
    {
      name = "distributed/" ^ name;
      large;
      prepare =
        (fun () ->
          let parts = partition_builder () in
          fun () -> ignore (Distributed.construct ~seed:3 parts ~root:0));
    }
  in
  [
    make "grid8" false (fun () ->
        let g = Generators.grid ~rows:8 ~cols:8 in
        Partition.grid_rows g ~rows:8 ~cols:8);
    make "grid12" true (fun () ->
        let g = Generators.grid ~rows:12 ~cols:12 in
        Partition.grid_rows g ~rows:12 ~cols:12);
    make "ktree120" false (fun () ->
        let g = Generators.k_tree (Rng.create 7) ~k:4 ~n:120 in
        Partition.voronoi g (Rng.create 8) ~parts:8);
    make "ktree240" true (fun () ->
        let g = Generators.k_tree (Rng.create 7) ~k:4 ~n:240 in
        Partition.voronoi g (Rng.create 8) ~parts:12);
    make "lbg5_12" false (fun () ->
        (Lower_bound_graph.create ~delta':5 ~d':12).Lower_bound_graph.parts);
    make "lbg5_30" true (fun () ->
        (Lower_bound_graph.create ~delta':5 ~d':30).Lower_bound_graph.parts);
  ]

(* Borůvka MST (Cor 1.6) at one domain: every phase builds a shortcut and
   runs two part-wise aggregations over it, so the row is the whole
   per-run set-up — route tables, dilation measurements, simulator hosts —
   plus the aggregations' messages. Distinct weights fix the phase
   sequence. *)
let mst_entries =
  List.map
    (fun (name, large, build) ->
      {
        name = "mst/" ^ name;
        large;
        prepare =
          (fun () ->
            let weights = Weights.random_distinct (Rng.create 11) (build ()) in
            fun () -> ignore (Mst.boruvka ~domains:1 weights));
      })
    graph_families

(* --- domain scaling ----------------------------------------------------- *)

(* Wall-clock timing for the scaling curve. [Sys.time] sums CPU seconds
   across all running domains, which would erase any parallel win by
   construction, so this is the one section of the bench on the Unix
   clock — and therefore the one section whose numbers are reported but
   never baseline-gated. *)
let wall ~iters f =
  ignore (f ());
  (* warm-up: buffers and shard scratch reach their high-water marks *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) /. float_of_int iters

let scaling_counts = [ 1; 2; 4; 8 ]

(* One curve per workload: rerun at each domain count, hold every
   observable against the 1-domain run (the determinism gate — asserted
   on any machine, since oversubscribed domains must still produce the
   bit-identical answer), then time. Returns the report fragment and the
   4-domain speedup. *)
(* One extra profiled run per domain count feeds the per-domain rows:
   busy/barrier seconds, message counts and the round-level imbalance the
   wall-clock speedup column can't explain on its own. The profiled run
   is separate from the timed ones, so the curve's timings stay those of
   the detached (zero-allocation) path. *)
let curve name run =
  let reference = run ?par_profile:None 1 in
  let run ?par_profile d = run ?par_profile d in
  List.iter
    (fun d ->
      if run d <> reference then begin
        Printf.eprintf
          "DETERMINISM FAILURE: %s at %d domains differs from the \
           1-domain result\n"
          name d;
        exit 1
      end)
    (List.tl scaling_counts);
  let iters = 3 in
  let serial = wall ~iters (fun () -> run 1) in
  let rows =
    List.map
      (fun d ->
        let s = if d = 1 then serial else wall ~iters (fun () -> run d) in
        let speedup = serial /. Float.max 1e-9 s in
        let pp = Par_profile.create () in
        ignore (run ~par_profile:pp d);
        let dec = Par_profile.decomposition pp in
        let sum f = Array.fold_left (fun acc t -> acc + f t) 0 (Par_profile.totals pp) in
        Printf.printf
          "scaling/%-16s %d domains  %8.2f ms  speedup %5.2fx  imbalance \
           %4.2f  barrier %5.1f%%  messages %d  activations %d\n%!"
          name d (s *. 1e3) speedup
          (Par_profile.imbalance pp)
          (100.
          *. dec.Par_profile.d_barrier_s
          /. Float.max 1e-9 dec.Par_profile.d_wall_s)
          (sum (fun t -> t.Par_profile.messages))
          (sum (fun t -> t.Par_profile.activations));
        (d, s, speedup, pp))
      scaling_counts
  in
  let json =
    Json.Obj
      (List.map
         (fun (d, s, speedup, pp) ->
           let dec = Par_profile.decomposition pp in
           let totals = Par_profile.totals pp in
           ( string_of_int d,
             Json.Obj
               [
                 ("seconds_per_run", Json.Float s);
                 ("speedup", Json.Float speedup);
                 ("imbalance", Json.Float (Par_profile.imbalance pp));
                 ( "decomposition",
                   Json.Obj
                     [
                       ("wall_s", Json.Float dec.Par_profile.d_wall_s);
                       ("parallel_s", Json.Float dec.Par_profile.d_parallel_s);
                       ("imbalance_s", Json.Float dec.Par_profile.d_imbalance_s);
                       ("barrier_s", Json.Float dec.Par_profile.d_barrier_s);
                       ("serial_s", Json.Float dec.Par_profile.d_serial_s);
                       ("other_s", Json.Float dec.Par_profile.d_other_s);
                     ] );
                 ( "per_domain",
                   Json.List
                     (Array.to_list
                        (Array.mapi
                           (fun shard (t : Par_profile.totals) ->
                             Json.Obj
                               [
                                 ("domain", Json.Int shard);
                                 ( "busy_s",
                                   Json.Float (t.Par_profile.step_s
                                               +. t.Par_profile.deliver_s) );
                                 ("barrier_s", Json.Float t.Par_profile.barrier_s);
                                 ("messages", Json.Int t.Par_profile.messages);
                                 ("activations", Json.Int t.Par_profile.activations);
                                 ("words", Json.Int t.Par_profile.words);
                               ])
                           totals)) );
               ] ))
         rows)
  in
  let _, _, speedup4, _ = List.find (fun (d, _, _, _) -> d = 4) rows in
  ((name, json), speedup4)

(* The scaling workloads are deliberately larger than the allocation
   matrix — per-round shard work has to dominate the barrier for a
   multicore machine to have something to chew on. Both run untraced and
   fault-free, the sharded core's fully-parallel fast path, in both
   modes: the quick (CI) mode's gate needs them.

   - broadcast/grid120: a 120x120 grid flood, ~240 rounds of up to ~14k
     node activations each — the gated curve.
   - partwise/grid28: part-wise minimum aggregation over a boosted
     grid-row shortcut, the heaviest per-activation protocol in the
     matrix — reported, not gated (its per-round work is spread over
     fewer, busier nodes).

   Returns the report fragment and a gate thunk, run by the caller only
   after the report is on disk so a gate failure still leaves the
   artifact inspectable. The speedup gate — >= 2x at 4 domains on the
   broadcast — needs real cores and skips, loudly, below four. *)
let run_scaling () =
  let bcast_run =
    let g = Generators.grid ~rows:120 ~cols:120 in
    let program = flood_program ~root:0 in
    fun ?par_profile d -> Simulator.run ?par_profile ~domains:d g program
  in
  let pa_run =
    let g = Generators.grid ~rows:28 ~cols:28 in
    let tree = Bfs.tree g ~root:0 in
    let sc =
      (Boost.full (Partition.grid_rows g ~rows:28 ~cols:28) ~tree).Boost.shortcut
    in
    let values = Array.init (Graph.n g) (fun v -> (v * 131) mod 65_521) in
    (* A fresh rng per run: [setup] consumes it for the delay draws, and
       identical delays across domain counts are part of the contract. *)
    fun ?par_profile d ->
      Sim_aggregate.minimum ?par_profile ~domains:d (Rng.create 17) sc ~values
  in
  let bcast_curve, bcast_speedup4 = curve "broadcast/grid120" bcast_run in
  let pa_curve, _ = curve "partwise/grid28" pa_run in
  let cores = Domain.recommended_domain_count () in
  let json =
    Json.Obj
      [
        ("recommended_domains", Json.Int cores);
        ("determinism", Json.String "identical");
        ("curves", Json.Obj [ bcast_curve; pa_curve ]);
      ]
  in
  let gate () =
    if cores < 4 then
      Printf.printf
        "scaling gate: SKIPPED (machine reports %d core%s; the 4-domain \
         speedup gate needs >= 4)\n%!"
        cores
        (if cores = 1 then "" else "s")
    else if bcast_speedup4 < 2.0 then begin
      Printf.eprintf
        "FAIL: 4-domain broadcast speedup %.2fx is below the 2x target\n"
        bcast_speedup4;
      exit 1
    end
    else
      Printf.printf "scaling gate: %.2fx at 4 domains (>= 2x) ok\n%!"
        bcast_speedup4
  in
  (json, gate)

(* --- report ------------------------------------------------------------ *)

let schema = "lcs-bench-simulator/2"

let sample_json s =
  Json.Obj
    [
      ("minor_words", Json.Float s.minor_words);
      ("promoted_words", Json.Float s.promoted_words);
      ("seconds_per_run", Json.Float s.seconds);
    ]

let run_suite ~quick ~iters =
  let selected l = List.filter (fun e -> (not quick) || not e.large) l in
  let bench_rows = ref [] in
  let ratio_rows = ref [] in
  let agg_csr = ref 0. in
  let agg_ref = ref 0. in
  List.iter
    (fun b ->
      if (not quick) || not b.blarge then begin
        let csr, ref_ = b.bprepare () in
        let s_csr = measure ~iters csr in
        let s_ref = measure ~iters ref_ in
        let ratio = s_ref.minor_words /. Float.max 1. s_csr.minor_words in
        agg_csr := !agg_csr +. s_csr.minor_words;
        agg_ref := !agg_ref +. s_ref.minor_words;
        Printf.printf "broadcast/%-10s  csr %10.0f w  ref %10.0f w  ratio %5.2fx\n%!"
          b.bname s_csr.minor_words s_ref.minor_words ratio;
        bench_rows := ("broadcast/" ^ b.bname, sample_json s_csr) :: !bench_rows;
        ratio_rows :=
          ( b.bname,
            Json.Obj
              [
                ("csr_minor_words", Json.Float s_csr.minor_words);
                ("ref_minor_words", Json.Float s_ref.minor_words);
                ("ratio", Json.Float ratio);
              ] )
          :: !ratio_rows
      end)
    broadcasts;
  let aggregate = !agg_ref /. Float.max 1. !agg_csr in
  Printf.printf "broadcast aggregate ratio (ref/csr minor words): %.2fx\n%!" aggregate;
  ratio_rows :=
    ( "aggregate",
      Json.Obj
        [
          ("csr_minor_words", Json.Float !agg_csr);
          ("ref_minor_words", Json.Float !agg_ref);
          ("ratio", Json.Float aggregate);
        ] )
    :: !ratio_rows;
  List.iter
    (fun e ->
      let f = e.prepare () in
      let s = measure ~iters f in
      Printf.printf "%-20s  %12.0f w  %8.2f ms\n%!" e.name s.minor_words
        (s.seconds *. 1e3);
      bench_rows := (e.name, sample_json s) :: !bench_rows)
    (selected
       (sync_bfs_entries @ partwise_entries @ faulty_entries @ traced_entries
      @ par_obs_entries @ distributed_entries @ mst_entries));
  Json.Obj
    [
      ("schema", Json.String schema);
      ("mode", Json.String (if quick then "quick" else "full"));
      ("unit", Json.String "words/run");
      ("benchmarks", Json.Obj (List.rev !bench_rows));
      ("broadcast_vs_ref", Json.Obj (List.rev !ratio_rows));
    ]

(* --- entry point ------------------------------------------------------- *)

let () =
  let quick = ref false in
  let out = ref "BENCH_simulator.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: sim_bench [--quick] [--out PATH]\n";
        Printf.eprintf "unknown argument: %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let iters = if !quick then 1 else 3 in
  let doc = run_suite ~quick:!quick ~iters in
  let scaling_json, scaling_gate = run_scaling () in
  let doc =
    match doc with
    | Json.Obj fields -> Json.Obj (fields @ [ ("domain_scaling", scaling_json) ])
    | other -> other
  in
  let oc = open_out !out in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  (* The gate runs only after the report is on disk. *)
  scaling_gate ()
