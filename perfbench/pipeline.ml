(* Pipeline benchmark: every pass runs the paper's pipeline end to end
   through public entry points only,

     Graph_io.read_binary -> Sync_bfs.run -> Boost.full (Thm 3.1
     Construct.auto + Obs 2.7) -> Sim_aggregate.minimum ->
     Distributed.construct (Thm 1.5) -> Mst.boruvka

   and then checks every answer against a centralized reference, outside
   the timed interval. Each layer is timed by a span this file opens
   around the public call: wall seconds, user+sys CPU seconds of the whole
   process (so work on other domains is not hidden) and minor-heap words
   of the calling domain. Nothing inside the library is instrumented.

     pipeline.exe --workload NAME --seed N --seconds S --trace 0|1
                  [--quick] [--dir DIR]

   A fixed reference kernel (below) runs between passes, and the
   end-to-end times are reported as pass time over reference time, which
   stays steady while the shared host's speed drifts; raw seconds are
   per-layer metrics.

   --trace 0 prints the end-to-end metrics, measured on plain passes.
   --trace 1 cycles three kinds of pass and prints the per-layer metrics:
   plain passes (layer spans only), traced passes (a [?tracer] counting
   live nodes per round on BFS, PA and the distributed construction) and
   profiled passes ([?obs] on PA for its pa.setup / pa.run spans, and a
   [?par_profile] collector on sharded workloads). --quick swaps in tiny
   hosts and runs one pass of each kind, for the self-check.

   Standard output ends with two lines: a [{"perfbench": ...}] object with
   the run's facts (machine, reference kernel, deterministic counts),
   then the result object. perfbench/run.py builds and drives this. *)

open Core

(* --- workloads --------------------------------------------------------- *)

type workload = {
  name : string;
  domains : int;
  host : quick:bool -> Graph.t * Partition.t;
}

let grid_rows side =
  let g = Generators.grid ~rows:side ~cols:side in
  (g, Partition.grid_rows g ~rows:side ~cols:side)

let workloads =
  [
    {
      name = "grid-sparse";
      domains = 1;
      host = (fun ~quick -> grid_rows (if quick then 8 else 32));
    };
    {
      name = "ktree-dense";
      domains = 1;
      host =
        (fun ~quick ->
          let rng = Rng.create 6 in
          let n, parts = if quick then (200, 8) else (3000, 60) in
          let g = Generators.k_tree rng ~k:6 ~n in
          (g, Partition.voronoi g rng ~parts));
    };
    {
      name = "grid-sharded";
      domains = 2;
      host = (fun ~quick -> grid_rows (if quick then 6 else 24));
    };
  ]

(* --- measurement ------------------------------------------------------- *)

type sample = { wall : float; cpu : float; alloc : float }

let zero = { wall = 0.; cpu = 0.; alloc = 0. }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let measure f =
  let w0 = Unix.gettimeofday () and c0 = cpu_now () and a0 = Gc.minor_words () in
  let r = f () in
  let a1 = Gc.minor_words () in
  let s = { wall = Unix.gettimeofday () -. w0; cpu = cpu_now () -. c0; alloc = a1 -. a0 } in
  (r, s)

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- reference kernel ---------------------------------------------------- *)

(* A fixed pure-OCaml loop that calls no library code, timed between
   passes on the workload's domain count. Like a pass, it allocates
   short-lived blocks and writes at random into memory well beyond the
   caches (16 MB per domain, outside the OCaml heap so [peak_heap_mb] does
   not see it); with several domains they meet at a Mutex/Condition
   barrier after every chunk, as the sharded simulator's crew does every
   phase. So the machine's contention, which moves pass times by a factor
   of two on a shared host, slows it as it slows a pass. Its time tells a
   slower machine from slower code, and a pass's time divided by it is
   the steady end-to-end figure. *)

let ref_words = 1 lsl 21
let ref_steps = 1_000_000
let ref_chunks = 400

type barrier = {
  lock : Mutex.t;
  cond : Condition.t;
  parties : int;
  mutable waiting : int;
  mutable generation : int;
}

let await b =
  Mutex.lock b.lock;
  let g = b.generation in
  b.waiting <- b.waiting + 1;
  if b.waiting = b.parties then begin
    b.waiting <- 0;
    b.generation <- g + 1;
    Condition.broadcast b.cond
  end
  else
    while b.generation = g do
      Condition.wait b.cond b.lock
    done;
  Mutex.unlock b.lock

let reference_memory ~domains =
  Array.init domains (fun _ ->
      let a = Bigarray.(Array1.create int c_layout ref_words) in
      Bigarray.Array1.fill a 0;
      a)

let reference_kernel memory =
  let domains = Array.length memory in
  let steps = ref_steps / (domains * ref_chunks) in
  let b =
    { lock = Mutex.create (); cond = Condition.create (); parties = domains; waiting = 0; generation = 0 }
  in
  let work k () =
    let a = memory.(k) and x = ref (88172645463325252 + k) and live = ref [] in
    for _ = 1 to ref_chunks do
      for i = 1 to steps do
        x := !x lxor (!x lsl 13);
        x := !x lxor (!x lsr 7);
        x := !x lxor (!x lsl 17);
        let j = !x land (ref_words - 1) in
        a.{j} <- a.{j} + i;
        live := j :: !live;
        if i land 1023 = 0 then live := []
      done;
      if domains > 1 then await b
    done;
    ignore (Sys.opaque_identity !live)
  in
  let others = Array.init (domains - 1) (fun k -> Domain.spawn (work (k + 1))) in
  work 0 ();
  Array.iter Domain.join others

(* --- inputs ------------------------------------------------------------ *)

(* What a pass starts from: the host on disk, plus the part assignment,
   per-node values and per-edge weights, and the BFS root.

   Each workload is one fixed instance (host, values, weights), and a
   label seed relabels its vertices. Fresh weights per seed would not do:
   on the 6-tree, Borůvka's phase count jumps between 4 and 5 with the
   weights, doubling MST messages, and fresh values move PA messages by a
   third. A relabeling keeps the work but changes node ids, port orders
   and the tie-breaks that follow from them, which still moves a grid
   pass's time by 10% from one labeling to another. So a run draws
   [labelings] labelings from its seed and cycles its passes through
   them: runs with different seeds then differ in the mix, not in one
   draw. *)
let labelings = 8

type inputs = {
  path : string;
  root : int;
  assignment : int array;
  values : int array;
  weight_of : int array;
}

let make_inputs w ~quick ~label_seed ~path =
  let g, part = w.host ~quick in
  let n = Graph.n g in
  let rng = Rng.create 7 in
  let values = Array.init n (fun _ -> Rng.int rng 1_000_000_000) in
  let weights = Weights.random_distinct rng g in
  let label = Rng.permutation (Rng.create label_seed) n in
  let relabeled =
    Graph.create ~n (Array.to_list (Array.map (fun (u, v) -> (label.(u), label.(v))) (Graph.edges g)))
  in
  Graph_io.write_binary path relabeled;
  let by_label f =
    let a = Array.make n 0 in
    Array.iteri (fun v l -> a.(l) <- f v) label;
    a
  in
  {
    path;
    root = label.(0);
    assignment = by_label (Partition.part_of part);
    values = by_label (fun v -> values.(v));
    weight_of = Array.init (Graph.m g) (Weights.get weights);
  }

(* --- one pass ---------------------------------------------------------- *)

let layers = [| "load"; "bfs"; "boost"; "pa"; "distributed"; "mst"; "verify" |]

type kind = Plain | Traced | Profiled

type pass = {
  kind : kind;
  labeling : int;
  ok : bool;
  total : sample;  (** load through mst; verification excluded *)
  reference : sample;  (** mean of the reference runs just before and after *)
  layer : sample array;  (** indexed like [layers] *)
  counts : (string * int) list;
  pa_setup_s : float;
  pa_run_s : float;
  par : (float * float * float) option;  (** busy, barrier, imbalance *)
}

let span_seconds obs name =
  List.fold_left
    (fun acc (s : Obs.span) -> if s.Obs.name = name then acc +. s.Obs.dur_s else acc)
    0. (Obs.spans obs)

let par_figures pp =
  let busy, barrier =
    Array.fold_left
      (fun (b, w) (t : Par_profile.totals) ->
        (b +. t.Par_profile.step_s +. t.Par_profile.deliver_s, w +. t.Par_profile.barrier_s))
      (0., 0.) (Par_profile.totals pp)
  in
  (busy, barrier, Par_profile.imbalance pp)

(* The protocols' own random choices use fixed seeds: the benchmark's seed
   only draws the inputs, so that seeds differ in what the pipeline is
   given, not in how it runs. *)
let run_pass w inputs kind ~labeling =
  let domains = w.domains in
  (* Live-node rounds of BFS, PA and the distributed construction. *)
  let live = Array.make 3 0 in
  let tracer i =
    if kind <> Traced then None
    else
      Some
        (function
        | Trace.Round_start { live = l; _ } -> live.(i) <- live.(i) + l
        | _ -> ())
  in
  let obs = if kind = Profiled then Some (Obs.create ()) else None in
  let par_profile =
    if kind = Profiled && domains > 1 then Some (Par_profile.create ()) else None
  in
  let layer = Array.make (Array.length layers) zero in
  let timed i f =
    let r, s = measure f in
    layer.(i) <- s;
    r
  in
  let (weights, bfs, boost, pa, dist, mst), total =
    measure (fun () ->
        let g, part, weights =
          timed 0 (fun () ->
              let g = Graph_io.read_binary inputs.path in
              ( g,
                Partition.of_assignment g inputs.assignment,
                Weights.create g (fun e -> inputs.weight_of.(e)) ))
        in
        let tree, _, bfs =
          timed 1 (fun () -> Sync_bfs.run ~domains ?tracer:(tracer 0) ?par_profile g ~root:inputs.root)
        in
        let boost = timed 2 (fun () -> Boost.full part ~tree) in
        let pa =
          timed 3 (fun () ->
              Sim_aggregate.minimum ~domains ?obs ?tracer:(tracer 1) ?par_profile (Rng.create 1)
                boost.Boost.shortcut ~values:inputs.values)
        in
        let dist =
          timed 4 (fun () ->
              Distributed.construct ~domains ?tracer:(tracer 2) ?par_profile part ~root:inputs.root)
        in
        let mst = timed 5 (fun () -> Mst.boruvka ~domains ?par_profile weights) in
        (weights, bfs, boost, pa, dist, mst))
  in
  let ok =
    timed 6 (fun () ->
        pa.Sim_aggregate.minima
        = Aggregate.reference_minima boost.Boost.shortcut ~values:inputs.values
        && mst.Mst.edges = Kruskal.mst weights
        && Construct.succeeded dist.Distributed.result)
  in
  let dist_bfs = dist.Distributed.bfs_stats and acc = mst.Mst.accounting in
  let counts =
    [
      ("bfs.rounds", bfs.Simulator.rounds);
      ("bfs.messages", bfs.Simulator.messages);
      ("boost.iterations", boost.Boost.iterations);
      ("boost.congestion", Quality.congestion boost.Boost.shortcut);
      ("pa.rounds", pa.Sim_aggregate.rounds);
      ("pa.messages", pa.Sim_aggregate.messages);
      ("pa.completion_round", pa.Sim_aggregate.completion_round);
      ("distributed.rounds", dist_bfs.Simulator.rounds + dist.Distributed.wave_rounds);
      ("distributed.messages", dist_bfs.Simulator.messages + dist.Distributed.wave_messages);
      ("mst.phases", acc.Boruvka_engine.phases);
      ("mst.rounds", acc.Boruvka_engine.pa_rounds);
      ("mst.messages", acc.Boruvka_engine.pa_messages);
    ]
    @ (match kind with
      | Traced ->
          [
            ("bfs.live_node_rounds", live.(0));
            ("pa.live_node_rounds", live.(1));
            ("distributed.live_node_rounds", live.(2));
          ]
      (* Minor words repeat only when one domain runs everything. *)
      | Plain when domains = 1 -> [ ("alloc_words", int_of_float total.alloc) ]
      | Plain | Profiled -> [])
  in
  let pa_setup_s, pa_run_s =
    match obs with
    | Some o -> (span_seconds o "pa.setup", span_seconds o "pa.run")
    | None -> (0., 0.)
  in
  {
    kind;
    labeling;
    ok;
    total;
    reference = zero (* the caller times the reference runs around the pass *);
    layer;
    counts;
    pa_setup_s;
    pa_run_s;
    par = Option.map par_figures par_profile;
  }

(* --- the run ----------------------------------------------------------- *)

let json_num x = Json.Float x

(* Counts that must repeat exactly: every pass of one kind and labeling
   against the first pass of that kind and labeling. Returns the first
   passes' counts and the names that drifted. *)
let check_counts passes =
  List.fold_left
    (fun (firsts, drift) p ->
      match List.assoc_opt (p.kind, p.labeling) firsts with
      | None -> (((p.kind, p.labeling), p.counts) :: firsts, drift)
      | Some c ->
          let moved =
            List.filter_map
              (fun (k, v) -> if List.assoc_opt k c = Some v then None else Some k)
              p.counts
          in
          (firsts, List.sort_uniq compare (moved @ drift)))
    ([], []) passes

(* Each count's mean over the run's labelings. Every labeling is run, so
   the means repeat exactly for a seed. *)
let count_means firsts =
  let value = Hashtbl.create 64 and sums = Hashtbl.create 32 in
  List.iter (fun ((_, l), cs) -> List.iter (fun (k, v) -> Hashtbl.replace value (k, l) v) cs) firsts;
  Hashtbl.iter
    (fun (k, _) v ->
      let s, n = Option.value (Hashtbl.find_opt sums k) ~default:(0, 0) in
      Hashtbl.replace sums k (s + v, n + 1))
    value;
  List.sort compare
    (Hashtbl.fold (fun k (s, n) acc -> (k, float_of_int s /. float_of_int n) :: acc) sums [])

(* Mean over labelings of the median over each labeling's passes. *)
let labeling_mean f passes =
  let ls = List.sort_uniq compare (List.map (fun p -> p.labeling) passes) in
  List.fold_left
    (fun acc l -> acc +. median (List.filter_map (fun p -> if p.labeling = l then Some (f p) else None) passes))
    0. ls
  /. float_of_int (List.length ls)

let end_to_end ~plain ~setup_s ~peak_words =
  [
    ( "pipeline_rel",
      json_num (median (List.map (fun p -> p.total.wall /. p.reference.wall) plain)),
      "ratio" );
    ("cpu_rel", json_num (median (List.map (fun p -> p.total.cpu /. p.reference.cpu) plain)), "ratio");
    ( "alloc_mwords",
      json_num (labeling_mean (fun p -> p.total.alloc /. 1e6) plain),
      "Mwords" );
    ( "peak_heap_mb",
      json_num (float_of_int (peak_words * (Sys.word_size / 8)) /. 1e6),
      "MB" );
    ("setup_s", json_num setup_s, "s");
  ]

let per_layer ~plain ~traced ~profiled ~counts ~calibration_s =
  let med f ps = median (List.map f ps) in
  let count k = Option.value (List.assoc_opt k counts) ~default:0. in
  let ratio a b = if b = 0. then 0. else a /. b in
  let layer_rows =
    List.concat
      (List.mapi
         (fun i name ->
           [
             (name ^ ".wall_s", med (fun p -> p.layer.(i).wall) plain, "s");
             (name ^ ".cpu_s", med (fun p -> p.layer.(i).cpu) plain, "s");
             (name ^ ".alloc_words", med (fun p -> p.layer.(i).alloc) plain, "words");
           ])
         (Array.to_list layers))
  in
  let sim_rows =
    List.concat_map
      (fun name ->
        let msgs = count (name ^ ".messages") and live = count (name ^ ".live_node_rounds") in
        [
          (name ^ ".rounds", count (name ^ ".rounds"), "rounds");
          (name ^ ".messages", msgs, "count");
          (name ^ ".live_node_rounds", live, "count");
          (name ^ ".msgs_per_live_node_round", ratio msgs live, "ratio");
        ])
      [ "bfs"; "pa"; "distributed" ]
  in
  (* Only sharded workloads run a collector. *)
  let par_rows =
    match List.filter_map (fun p -> p.par) profiled with
    | [] -> []
    | ps ->
        [
          ("par.busy_s", med (fun (b, _, _) -> b) ps, "s");
          ("par.barrier_s", med (fun (_, w, _) -> w) ps, "s");
          ("par.imbalance", med (fun (_, _, i) -> i) ps, "ratio");
        ]
  in
  List.map
    (fun (k, v, u) -> (k, json_num v, u))
    ([
       ("pipeline_s", med (fun p -> p.total.wall) plain, "s");
       ("cpu_s", med (fun p -> p.total.cpu) plain, "s");
     ]
    @ layer_rows @ sim_rows @ par_rows
    @ [
        ("pa.completion_round", count "pa.completion_round", "rounds");
        ("pa.useful_round_ratio", ratio (count "pa.completion_round") (count "pa.rounds"), "ratio");
        ("pa.setup_s", med (fun p -> p.pa_setup_s) profiled, "s");
        ("pa.run_s", med (fun p -> p.pa_run_s) profiled, "s");
        ("boost.iterations", count "boost.iterations", "count");
        ("boost.congestion", count "boost.congestion", "count");
        ("mst.phases", count "mst.phases", "count");
        ("mst.rounds", count "mst.rounds", "rounds");
        ("mst.messages", count "mst.messages", "count");
        ( "trace.overhead",
          ratio (med (fun p -> p.total.wall) traced) (med (fun p -> p.total.wall) plain),
          "ratio" );
        ("calibration_s", calibration_s, "s");
      ])

let usage () =
  prerr_endline
    "usage: pipeline.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--dir DIR]\n\
    \       pipeline.exe --list";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let quick = ref false and dir = ref "." in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--dir" :: v :: rest -> dir := v; parse rest
    | [ "--list" ] ->
        List.iter (fun w -> print_endline w.name) workloads;
        exit 0
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let seed = !seed and quick = !quick in
  let memory = reference_memory ~domains:w.domains in
  (* A set-up precedes every pass and is timed on its own, so set-up is
     sampled across the whole run like the passes are. Each writes a
     fresh file: a pass's graph maps its file, which must not be
     rewritten while the mapping lives. *)
  let setups = ref [] and attempted = ref 0 and failed = ref 0 in
  let reference () = snd (measure (fun () -> reference_kernel memory)) in
  let before = ref (reference ()) in
  let labelings = if quick then 1 else labelings in
  let run kind ~labeling =
    (* Every pass starts from a collected heap, so its peak does not
       depend on how much garbage earlier passes left. *)
    Gc.full_major ();
    let path = Filename.concat !dir (Printf.sprintf "%s-%d-%d.bin" w.name seed !attempted) in
    incr attempted;
    let label_seed = (seed * labelings) + labeling in
    let inputs, s = measure (fun () -> make_inputs w ~quick ~label_seed ~path) in
    setups := s.wall :: !setups;
    let pass = try Ok (run_pass w inputs kind ~labeling) with e -> Error (Printexc.to_string e) in
    Sys.remove path;
    (* A short reference run is itself noisy: averaging the runs on either
       side of the pass takes a third off the spread of the ratio. *)
    let after = reference () in
    let mean a b = (a +. b) /. 2. in
    let reference = { zero with wall = mean !before.wall after.wall; cpu = mean !before.cpu after.cpu } in
    before := after;
    let pass = Result.map (fun p -> { p with reference }) pass in
    match pass with
    | Ok p when p.ok -> Some p
    | Ok _ ->
        incr failed;
        Printf.eprintf "%s: pass failed verification\n%!" w.name;
        None
    | Error e ->
        incr failed;
        Printf.eprintf "%s: pass raised %s\n%!" w.name e;
        None
  in
  let kinds = if !trace = 1 then [ Plain; Traced; Profiled ] else [ Plain ] in
  (* One untimed pass first, so lazy set-up and cold caches stay out of
     the figures. *)
  if not quick then begin
    ignore (run Plain ~labeling:0);
    setups := []
  end;
  let t0 = Unix.gettimeofday () in
  let passes = ref [] and peak_words = ref 0 in
  (* Every labeling gets at least one pass of each kind, even if that
     takes longer than --seconds. The heap's peak is read once each has
     had its pass: the heap only grows, so a later reading would depend
     on how many passes the machine's speed allowed. *)
  let rec loop cycle =
    List.iter
      (fun k -> Option.iter (fun p -> passes := p :: !passes) (run k ~labeling:(cycle mod labelings)))
      kinds;
    if cycle + 1 = labelings then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
    if cycle + 1 < labelings || ((not quick) && Unix.gettimeofday () -. t0 < !seconds) then
      loop (cycle + 1)
  in
  loop 0;
  let setup_s = median !setups in
  let passes = List.rev !passes in
  let calibration_s = median (List.map (fun p -> p.reference.wall) passes) in
  let of_kind k = List.filter (fun p -> p.kind = k) passes in
  let firsts, drift = check_counts passes in
  let counts = count_means firsts in
  List.iter (fun k -> Printf.eprintf "%s: count %s drifted between passes\n%!" w.name k) drift;
  let metrics =
    if !trace = 0 then end_to_end ~plain:(of_kind Plain) ~setup_s ~peak_words:!peak_words
    else
      per_layer ~plain:(of_kind Plain) ~traced:(of_kind Traced) ~profiled:(of_kind Profiled)
        ~counts ~calibration_s
  in
  let recommended = Domain.recommended_domain_count () in
  let facts =
    Json.Obj
      [
        ( "perfbench",
          Json.Obj
            [
              ("workload", Json.String w.name);
              ("seed", Json.Int seed);
              ("quick", Json.Bool quick);
              ("trace", Json.Int !trace);
              ("domains", Json.Int w.domains);
              ("recommended_domains", Json.Int recommended);
              ("oversubscribed", Json.Bool (w.domains > recommended));
              ("ocaml", Json.String Sys.ocaml_version);
              ("calibration_s", Json.Float calibration_s);
              ("passes", Json.Int (List.length passes));
              ("setup_samples_s", Json.List (List.rev_map (fun x -> Json.Float x) !setups));
              ( "plain_pass_wall_s",
                Json.List (List.map (fun p -> Json.Float p.total.wall) (of_kind Plain)) );
              ( "plain_pass_reference_s",
                Json.List (List.map (fun p -> Json.Float p.reference.wall) (of_kind Plain)) );
              ("labelings", Json.Int labelings);
              ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) counts));
              ("count_drift", Json.List (List.map (fun k -> Json.String k) drift));
            ] );
      ]
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (!failed = 0 && drift = [] && passes <> []));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (k, v, u) -> (k, Json.Obj [ ("value", v); ("unit", Json.String u) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string ~minify:true facts);
  print_endline (Json.to_string ~minify:true result)
