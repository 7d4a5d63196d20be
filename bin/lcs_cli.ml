(* Command-line interface to the library: generate graph families, build
   shortcuts, run part-wise aggregation and MST, and inspect the Fig 3.2
   lower-bound topology.

   Graph family syntax (for --graph):
     grid:S        S x S planar grid
     torus:S       S x S torus
     wheel:N       wheel on N vertices
     ktree:K,N     random k-tree
     clique:B,S    B grid blocks of side S, pairwise connected
     er:N,P        connected Erdos-Renyi G(N, P)
     lbg:D',DD     Lemma 3.2 lower-bound graph (delta'=D', D'=DD)

   Partition syntax (for --parts):
     rows          grid rows (grid/torus/lbg only)
     voronoi:K     K-cell BFS Voronoi
     whole         a single part
     singletons    every vertex alone *)

open Core
open Cmdliner

type family =
  | Grid of int
  | Torus of int
  | Wheel of int
  | Ktree of int * int
  | Clique of int * int
  | Er of int * float
  | Lbg of int * int

let parse_family s =
  match String.split_on_char ':' s with
  | [ "grid"; v ] -> Ok (Grid (int_of_string v))
  | [ "torus"; v ] -> Ok (Torus (int_of_string v))
  | [ "wheel"; v ] -> Ok (Wheel (int_of_string v))
  | [ "ktree"; kv ] -> (
      match String.split_on_char ',' kv with
      | [ k; n ] -> Ok (Ktree (int_of_string k, int_of_string n))
      | _ -> Error "ktree:K,N")
  | [ "clique"; kv ] -> (
      match String.split_on_char ',' kv with
      | [ b; s ] -> Ok (Clique (int_of_string b, int_of_string s))
      | _ -> Error "clique:B,S")
  | [ "er"; kv ] -> (
      match String.split_on_char ',' kv with
      | [ n; p ] -> Ok (Er (int_of_string n, float_of_string p))
      | _ -> Error "er:N,P")
  | [ "lbg"; kv ] -> (
      match String.split_on_char ',' kv with
      | [ d; dd ] -> Ok (Lbg (int_of_string d, int_of_string dd))
      | _ -> Error "lbg:DELTA',D'")
  | _ -> Error "unknown family"

let family_to_string = function
  | Grid s -> Printf.sprintf "grid:%d" s
  | Torus s -> Printf.sprintf "torus:%d" s
  | Wheel n -> Printf.sprintf "wheel:%d" n
  | Ktree (k, n) -> Printf.sprintf "ktree:%d,%d" k n
  | Clique (b, s) -> Printf.sprintf "clique:%d,%d" b s
  | Er (n, p) -> Printf.sprintf "er:%d,%g" n p
  | Lbg (d, dd) -> Printf.sprintf "lbg:%d,%d" d dd

(* A spec can parse and still lie outside its family's range (grid:0,
   ktree:4,3, lbg:3,6), and a graph file can be malformed; the library
   rejects both with Invalid_argument or Failure. That is malformed input
   (exit 2), reported with the option or file it came from. *)
let or_bad what build =
  match build () with
  | v -> v
  | exception (Invalid_argument msg | Failure msg) ->
      Printf.eprintf "lcs: bad %s: %s\n" what msg;
      exit 2

let family_graph seed family =
  let rng = Rng.create seed in
  match family with
  | Grid s -> (Generators.grid ~rows:s ~cols:s, `Grid s)
  | Torus s -> (Generators.torus ~rows:s ~cols:s, `Grid s)
  | Wheel n -> (Generators.wheel n, `Wheel)
  | Ktree (k, n) -> (Generators.k_tree rng ~k ~n, `Other)
  | Clique (b, s) -> (Generators.clique_of_grids ~blocks:b ~side:s, `Clique (b, s))
  | Er (n, p) -> (Generators.erdos_renyi_connected rng ~n ~p, `Other)
  | Lbg (d, dd) ->
      let lb = Lower_bound_graph.create ~delta':d ~d':dd in
      (lb.Lower_bound_graph.graph, `Lbg lb)

let build_family seed family =
  or_bad ("--graph " ^ family_to_string family) (fun () -> family_graph seed family)

type parts = Rows | Voronoi of int | Whole | Singletons

let parse_parts s =
  match String.split_on_char ':' s with
  | [ "rows" ] -> Ok Rows
  | [ "whole" ] -> Ok Whole
  | [ "singletons" ] -> Ok Singletons
  | [ "voronoi"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Ok (Voronoi k)
      | _ -> Error (Printf.sprintf "voronoi:K needs a positive cell count, got %S" k))
  | _ -> Error (Printf.sprintf "unknown partition %S (rows | voronoi:K | whole | singletons)" s)

let parts_to_string = function
  | Rows -> "rows"
  | Voronoi k -> Printf.sprintf "voronoi:%d" k
  | Whole -> "whole"
  | Singletons -> "singletons"

(* Whether a well-formed spec fits the graph depends on the graph's shape,
   so a misfit is a malformed input (exit 2), not a usage error. *)
let build_partition seed g shape spec =
  let misfit msg =
    Printf.eprintf "lcs: bad --parts %s: %s\n" (parts_to_string spec) msg;
    exit 2
  in
  match (spec, shape) with
  | Rows, `Grid s -> Partition.grid_rows g ~rows:s ~cols:s
  | Rows, `Lbg lb -> lb.Lower_bound_graph.parts
  | Rows, _ -> misfit "rows needs a grid, torus or lbg graph"
  | Whole, _ -> Partition.whole g
  | Singletons, _ -> Partition.singletons g
  | Voronoi k, _ ->
      if k > Graph.n g then
        misfit (Printf.sprintf "more cells than the graph's %d nodes" (Graph.n g))
      else Partition.voronoi g (Rng.create (seed + 1)) ~parts:k

(* Spec parsers raise on non-numeric fields ([int_of_string]); every
   converter turns that into a usage error naming the option. *)
let conv_of ~docv parse print =
  let parser s =
    match parse s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
    | exception Failure _ -> Error (`Msg (Printf.sprintf "malformed %s %S" docv s))
  in
  Arg.conv ~docv (parser, print)

let family_conv =
  conv_of ~docv:"FAMILY" parse_family (fun ppf f ->
      Format.pp_print_string ppf (family_to_string f))

let parts_conv =
  conv_of ~docv:"PARTS" parse_parts (fun ppf p ->
      Format.pp_print_string ppf (parts_to_string p))

(* Every --domains shares this: a shard count below 1 is a usage error,
   never a run. *)
let positive_int =
  conv_of ~docv:"N"
    (fun s ->
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (Printf.sprintf "expected a positive integer, got %S" s))
    Format.pp_print_int

(* A period where 0 means "never": a negative one is a usage error. *)
let nonneg_int =
  conv_of ~docv:"N"
    (fun s ->
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (Printf.sprintf "expected a non-negative integer, got %S" s))
    Format.pp_print_int

(* Exit code 2 is reserved for malformed inputs (bad fault plan, bad
   policy spec, a partition the graph cannot carry, a family parameter
   out of range, a corrupt graph file) so scripts can tell "fix your
   file" from "the run went wrong" (1); a malformed option value is
   cmdliner's usage error (124). JSON syntax errors carry Util.Json's
   line/column. *)
let load_plan_or_die fpath =
  match Fault.load_plan fpath with
  | Ok plan -> plan
  | Error msg ->
      Printf.eprintf "lcs: bad fault plan %s: %s\n" fpath msg;
      exit 2

(* --retry / --policy: both produce an optional Supervisor.policy; a bare
   --retry means the default escalation ladder. *)
let policy_term =
  let retry_arg =
    Arg.(value & flag
         & info [ "retry" ]
             ~doc:"drive the run through the resilience supervisor's default \
                   escalation ladder (retry re-seeded, escalate to the \
                   reliable transport, grow the round budget, degrade to the \
                   sequential baseline); equivalent to --policy with no \
                   overrides")
  in
  let policy_arg =
    Arg.(value & opt (some string) None
         & info [ "policy" ] ~docv:"SPEC"
             ~doc:"override the escalation ladder: comma-separated key=value \
                   pairs among attempts=N, seed=N, reseed=BOOL, \
                   reliable-from=N, backoff=N, cap=N, fallback=BOOL \
                   (implies --retry)")
  in
  let combine retry policy =
    match policy with
    | None -> if retry then Some Supervisor.default_policy else None
    | Some spec -> (
        match Supervisor.policy_of_string spec with
        | Ok p -> Some p
        | Error msg ->
            Printf.eprintf "lcs: bad --policy: %s\n" msg;
            exit 2)
  in
  Term.(const combine $ retry_arg $ policy_arg)

let print_trail (sup : _ Supervisor.run) =
  List.iter
    (fun { Supervisor.knobs = k; status } ->
      Printf.printf "  resilience: attempt %d (%s, seed=%d, budget x%d) -> %s\n"
        k.Supervisor.attempt
        (if k.Supervisor.reliable then "reliable" else "raw")
        k.Supervisor.seed k.Supervisor.budget_factor
        (match status with
        | Supervisor.Accepted -> "accepted"
        | Supervisor.Rejected d ->
            Printf.sprintf "rejected (crashed=%d dead_links=%d affected=%d%s)"
              (List.length d.Outcome.crashed)
              (List.length d.Outcome.unresponsive)
              (List.length d.Outcome.affected)
              (if d.Outcome.out_of_rounds then ", out of rounds" else "")
        | Supervisor.Raised e -> "raised: " ^ e))
    sup.Supervisor.trail;
  match sup.Supervisor.source with
  | Supervisor.Sequential ->
      print_endline
        "  resilience: exhausted the ladder — sequential fallback, \
         degradation recorded"
  | Supervisor.Attempt _ -> ()

let graph_arg =
  let doc = "Graph family (see syntax above)." in
  Arg.(required & opt (some family_conv) None & info [ "graph"; "g" ] ~docv:"FAMILY" ~doc)

let parts_arg =
  let doc = "Partition spec: rows | voronoi:K | whole | singletons." in
  Arg.(value & opt parts_conv (Voronoi 8) & info [ "parts"; "p" ] ~docv:"PARTS" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc =
    "Shard the enforced-simulator runs across $(docv) OCaml domains; one \
     domain runs a single shard on the calling domain, and so does every \
     traced or fault-injected run (--trace, --spans, --faults, or bcast's \
     --profile-out), whatever $(docv). Every observable — results, \
     stats, traces — is identical at any value; see README \"Running in \
     parallel\" for when sharding actually helps."
  in
  Arg.(value & opt positive_int 1 & info [ "domains" ] ~docv:"N" ~doc)

let sketch_arg =
  let doc =
    "Collect the congestion profile with the bounded-memory Space-Saving \
     sketch tracking $(docv) edge counters instead of the exact per-edge \
     table; the profile JSON then carries per-entry overcount bounds and \
     the sketch's own accounting. Auto-selected (budget 4096) above 10^6 \
     edges when omitted."
  in
  Arg.(value & opt (some int) None & info [ "sketch" ] ~docv:"BUDGET" ~doc)

let mode_of_sketch = Option.map (fun b -> Trace.Profile.Sketch b)

let par_profile_arg =
  let doc =
    "Profile the simulator's execution per domain and write the \
     lcs-par-profile/1 JSON report (per-domain step/deliver/barrier-wait \
     times, cross-shard traffic matrix, round-by-round imbalance ratio, \
     speedup-loss decomposition) to $(docv); at --domains 1 it is the \
     single-shard baseline timeline. Attaching the profiler never changes \
     any observable; it composes with --spans, whose Perfetto export then \
     carries the run's domain track (--spans traces the run, so it has one \
     shard)."
  in
  Arg.(value & opt (some string) None
       & info [ "par-profile" ] ~docv:"PATH" ~doc)

(* --- the run layer: shortcut, pa and mst -------------------------------- *)

(* Options every protocol run takes. --trace and --spans observe a
   different run in each command, so each command documents them. *)
type run_opts = {
  trace : string option;
  spans : string option;
  policy : Supervisor.policy option;
  domains : int;
  par_profile : string option;
}

let run_opts ~trace_doc ~spans_doc =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc:trace_doc)
  in
  let spans =
    Arg.(value & opt (some string) None & info [ "spans" ] ~docv:"PATH" ~doc:spans_doc)
  in
  Term.(
    const (fun trace spans policy domains par_profile ->
        { trace; spans; policy; domains; par_profile })
    $ trace $ spans $ policy_term $ domains_arg $ par_profile_arg)

(* --faults PLAN and --fault-seed N, for the commands whose protocol can
   run under injected faults. The plan is loaded as the options are read,
   so a malformed one exits 2 before the run opens any output. *)
type faults = { plan_path : string; plan : Fault.plan; fault_seed : int }

let faults_term =
  let faults_arg =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"PLAN"
             ~doc:"run the command's protocol on the enforced simulator under \
                   the lcs-fault-plan/1 JSON file $(docv) and report a \
                   validated complete/degraded outcome; composes with \
                   --retry/--policy, --trace (fault events appear in the \
                   stream) and --spans")
  in
  let fault_seed_arg =
    Arg.(value & opt (some int) None
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"override the fault plan's seed (same plan + same seed = \
                   the identical fault sequence)")
  in
  let load path seed =
    Option.map
      (fun plan_path ->
        let plan = load_plan_or_die plan_path in
        { plan_path; plan; fault_seed = Option.value seed ~default:plan.Fault.seed })
      path
  in
  Term.(const load $ faults_arg $ fault_seed_arg)

(* What a command's body runs under: the collectors attached to the run
   (each [None] when its option is absent, so the simulator keeps its
   fast path) and the options the protocol itself takes. *)
type run = {
  obs : Obs.t option;
  tracer : Trace.tracer option;
  pp : Par_profile.t option;
  domains : int;
  policy : Supervisor.policy option;
}

(* What a body returns: its exit code and, read only when the run writes
   a JSON report, the command's report fields and the parenthesized
   summary of its "trace: wrote" line. *)
type ran = {
  code : int;
  fields : Trace.Profile.t -> (string * Json.t) list;
  summary : Trace.Recorder.t -> Trace.Profile.t -> string;
}

(* Run [body] observed as [opts] ask: a span collector under --trace or
   --spans; the in-memory recorder, or the line-delimited sink for a
   .jsonl --trace; a wall-clock collector under --par-profile. Then write
   the JSON report or finish the stream, the span tree, and the
   par-profile, in that order. [mode] selects the profile's accounting
   (--sketch). *)
let run_with ?mode opts ~command ~protocol ~seed g body =
  let meta = Report.run_meta ~command ~protocol ~seed g in
  let obs = if opts.trace <> None || opts.spans <> None then Some (Obs.create ()) else None in
  let sink =
    match opts.trace with
    | Some path when Report.is_stream path -> Some (Report.open_stream meta path)
    | _ -> None
  in
  let recorder, profile, tracer = Report.tracing ?mode ?sink g ~on:(obs <> None) in
  let pp = Option.map (fun _ -> Par_profile.create ()) opts.par_profile in
  let r = body { obs; tracer; pp; domains = opts.domains; policy = opts.policy } in
  (match (opts.trace, sink, recorder, profile) with
  | Some path, Some sink, _, Some profile -> Report.finish_stream path sink profile
  | Some path, None, Some recorder, Some profile ->
      Report.write_json path
        (Report.assemble meta ~extra:(r.fields profile) ~profile ~recorder obs)
        ~describe:(fun () ->
          Printf.printf "trace: wrote %s (%s)\n" path (r.summary recorder profile))
  | _ -> ());
  Report.write_spans ?recorder ?par:pp opts.spans obs;
  Option.iter (Report.write_par_profile opts.par_profile) pp;
  r.code

(* One attempt, or the --retry/--policy ladder of them with its trail
   printed. [attempt knobs ~off] runs one rung; [off], the rung's seed
   offset, shifts every seed of the run, so a retry is a genuinely
   different run of the same adversary model. Returns the outcome and,
   when a ladder ran, its "resilience" report field. *)
let supervise r ?accept ~fallback attempt =
  match r.policy with
  | None -> (attempt None ~off:0, [])
  | Some policy ->
      let sup =
        Supervisor.run ?obs:r.obs ~policy ?accept ~fallback (fun k ->
            attempt (Some k) ~off:(k.Supervisor.seed - policy.Supervisor.base_seed))
      in
      print_trail sup;
      (sup.Supervisor.outcome, [ ("resilience", Supervisor.to_json sup) ])

(* Report fields and trace summary shared by the runs under faults. *)
let outcome_fields f o =
  [
    ( "outcome",
      Json.String
        (match o with Outcome.Complete _ -> "complete" | Outcome.Degraded _ -> "degraded") );
    ( "degradation",
      match o with
      | Outcome.Complete _ -> Json.Null
      | Outcome.Degraded (_, d) -> Outcome.degradation_to_json d );
    ("fault_plan", Json.String f.plan_path);
  ]

let fault_summary recorder profile =
  Printf.sprintf "%d events, %d fault events" (Trace.Recorder.length recorder)
    (Trace.Profile.fault_events profile)

let part_traffic sc profile =
  ( "part_traffic",
    Quality.traffic_to_json (Quality.traffic sc ~edge_words:(Trace.Profile.edge_words profile)) )

(* The stats of a result no simulator produced (a sequential fallback). *)
let no_stats = { Simulator.rounds = 0; messages = 0; words = 0; max_edge_load = 0 }

(* --- info subcommand -------------------------------------------------- *)

let info_cmd =
  let run family seed =
    let g, shape = build_family seed family in
    Format.printf "%a@." Graph.pp g;
    Printf.printf "diameter: %d\n" (Diameter.of_graph g);
    Printf.printf "density (m/n): %.3f\n" (Graph.density g);
    Printf.printf "greedy minor-density lower bound: %.3f\n"
      (Minor_density.greedy_lower (Rng.create (seed + 2)) ~restarts:4 g);
    (match shape with
    | `Lbg lb -> print_string (Lower_bound_graph.ascii_sketch lb)
    | _ -> ());
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"print a family's basic statistics")
    Term.(const run $ graph_arg $ seed_arg)

(* --- shortcut subcommand ------------------------------------------------ *)

let shortcut_cmd =
  let body g partition ~full r =
    let tree = Bfs.tree g ~root:0 in
    if full then begin
      let b = Boost.full ?obs:r.obs partition ~tree in
      let q = Quality.measure b.Boost.shortcut in
      Printf.printf "full shortcut after %d boosting iterations (delta=%d):\n"
        b.Boost.iterations b.Boost.delta_used;
      Format.printf "  %a@." Quality.pp_report q
    end
    else begin
      let result, delta = Construct.auto ?obs:r.obs partition ~tree in
      let q = Quality.measure result.Construct.shortcut in
      Printf.printf
        "partial shortcut: delta=%d threshold=%d budget=%d covered=%d/%d\n" delta
        result.Construct.threshold result.Construct.block_budget
        result.Construct.selected_count (Partition.k partition);
      Format.printf "  %a@." Quality.pp_report q
    end;
    (* The traced (or par-profiled) run is the Theorem 1.5 pipeline on
       the enforced simulator — that is where shortcut construction has a
       genuine CONGEST event stream (BFS + detection waves). With only
       --par-profile the pipeline runs untraced, so the sharded fast path
       stays fully parallel. *)
    if r.obs = None && r.pp = None then
      { code = 0; fields = (fun _ -> []); summary = (fun _ _ -> "") }
    else begin
      let o =
        Distributed.construct ?obs:r.obs ~domains:r.domains ?tracer:r.tracer
          ?par_profile:r.pp partition ~root:0
      in
      Printf.printf
        "distributed pipeline: delta=%d guesses=%d bfs_rounds=%d wave_rounds=%d\n"
        o.Distributed.delta o.Distributed.guesses
        o.Distributed.bfs_stats.Simulator.rounds o.Distributed.wave_rounds;
      {
        code = 0;
        fields =
          (fun profile ->
            [
              ("parts", Json.Int (Partition.k partition));
              ("delta", Json.Int o.Distributed.delta);
              ("threshold", Json.Int o.Distributed.threshold);
              ("covered", Json.Int o.Distributed.result.Construct.selected_count);
              ("guesses", Json.Int o.Distributed.guesses);
              ("bfs_stats", Report.stats_json o.Distributed.bfs_stats);
              ("wave_rounds", Json.Int o.Distributed.wave_rounds);
              ("wave_messages", Json.Int o.Distributed.wave_messages);
              part_traffic o.Distributed.result.Construct.shortcut profile;
            ]);
        summary =
          (fun _ profile ->
            Printf.sprintf "%d words over %d edges in %d rounds"
              (Trace.Profile.total_words profile)
              (Trace.Profile.edges_used profile)
              (Trace.Profile.rounds profile));
      }
    end
  in
  let faulty g partition ~seed f r =
    (* Theorem 1.5 pipeline under injected faults, optionally supervised.
       The pipeline has no ARQ path, so the ladder's levers here are
       re-seeding (both the pipeline and the injector) and, on
       exhaustion, falling back to the centralized construction — the
       sequential baseline the distributed protocol reproduces. *)
    Printf.printf "fault plan: %s (injector seed %d)\n" f.plan_path f.fault_seed;
    let attempt _knobs ~off =
      Obs.span r.obs "distributed" (fun () ->
          Distributed.construct_outcome ~seed:(seed + off) ~domains:r.domains
            ?tracer:r.tracer ?par_profile:r.pp
            ~faults:(Fault.compile ~seed:(f.fault_seed + off) f.plan)
            partition ~root:0)
    in
    let fallback _d =
      let tree = Bfs.tree g ~root:0 in
      let result, delta = Construct.auto partition ~tree in
      let height = Rooted_tree.height tree in
      {
        Distributed.constructed =
          Some
            {
              Distributed.tree;
              height;
              delta;
              threshold = 8 * delta * height;
              result;
              bfs_stats = no_stats;
              wave_rounds = 0;
              wave_messages = 0;
              guesses = 0;
            };
        failed_stage = None;
        unjoined = [];
        pipeline_rounds = 0;
        validated = Some true;
      }
    in
    let o, resilience = supervise r ~fallback attempt in
    let rep = Outcome.value o in
    (match o with
    | Outcome.Complete _ ->
        Printf.printf "distributed pipeline under faults: COMPLETE\n"
    | Outcome.Degraded (_, d) ->
        Printf.printf
          "distributed pipeline under faults: DEGRADED — crashed=%d \
           unjoined=%d%s%s\n"
          (List.length d.Outcome.crashed)
          (List.length rep.Distributed.unjoined)
          (match rep.Distributed.failed_stage with
          | Some s -> Printf.sprintf " failed_stage=%s" s
          | None -> "")
          (if d.Outcome.out_of_rounds then " (round budget exhausted)" else ""));
    (match rep.Distributed.constructed with
    | Some c ->
        Printf.printf
          "  constructed: delta=%d threshold=%d covered=%d/%d \
           pipeline_rounds=%d validated=%s\n"
          c.Distributed.delta c.Distributed.threshold
          c.Distributed.result.Construct.selected_count (Partition.k partition)
          rep.Distributed.pipeline_rounds
          (match rep.Distributed.validated with
          | Some true -> "yes"
          | Some false -> "NO"
          | None -> "-")
    | None -> Printf.printf "  no shortcut constructed\n");
    {
      code = (if rep.Distributed.validated = Some false then 1 else 0);
      fields =
        (fun _ ->
          (("parts", Json.Int (Partition.k partition)) :: outcome_fields f o)
          @ (("pipeline_rounds", Json.Int rep.Distributed.pipeline_rounds) :: resilience));
      summary = fault_summary;
    }
  in
  let run family parts seed full faults opts =
    let g, shape = build_family seed family in
    let partition = build_partition seed g shape parts in
    let protocol, body =
      match faults with
      | Some f -> ("distributed.construct_outcome", faulty g partition ~seed f)
      | None -> ("distributed.construct", body g partition ~full)
    in
    run_with opts ~command:"shortcut" ~protocol ~seed g body
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"boost to a full shortcut (Obs 2.7)")
  in
  Cmd.v
    (Cmd.info "shortcut" ~doc:"construct a Theorem 3.1 shortcut and measure it")
    Term.(const run $ graph_arg $ parts_arg $ seed_arg $ full_arg $ faults_term
          $ run_opts
              ~trace_doc:"also run the distributed (Theorem 1.5) pipeline on the \
                          enforced simulator with tracing on and write the JSON \
                          run report (stats, per-edge congestion profile, \
                          per-part traffic, event stream, spans/metrics/ledger) \
                          to $(docv); a .jsonl suffix instead streams the events \
                          line by line (lcs-trace-stream/1)"
              ~spans_doc:"write the construction's span tree as Chrome \
                          trace-event JSON (Perfetto-loadable) to $(docv)")

(* --- pa subcommand -------------------------------------------------------- *)

let pa_cmd =
  let body partition sc values ~seed r =
    (* One shortcut aggregation, the run --trace, --spans and --par-profile
       observe: every transmission crosses the simulator's enforced 1-word
       bandwidth and lands in the event stream. With only --par-profile
       the run is untraced, so the sharded simulator keeps its fully
       parallel fast path. *)
    let out =
      Sim_aggregate.minimum ~domains:r.domains ?obs:r.obs ?tracer:r.tracer
        ?par_profile:r.pp (Rng.create (seed + 7)) sc ~values
    in
    let ok = out.Sim_aggregate.minima = Aggregate.reference_minima sc ~values in
    Printf.printf "part-wise min aggregation: %d rounds, %d messages, correct=%b\n"
      out.Sim_aggregate.completion_round out.Sim_aggregate.messages ok;
    let bare =
      Sim_aggregate.minimum ~domains:r.domains (Rng.create (seed + 7))
        (Shortcut.empty partition) ~values
    in
    Printf.printf "without shortcuts:          %d rounds, %d messages\n"
      bare.Sim_aggregate.completion_round bare.Sim_aggregate.messages;
    {
      code = 0;
      fields =
        (fun profile ->
          [
            ("parts", Json.Int (Shortcut.k sc));
            ("stats", Report.stats_json out.Sim_aggregate.stats);
            ("completion_round", Json.Int out.Sim_aggregate.completion_round);
            part_traffic sc profile;
          ]);
      summary =
        (fun recorder profile ->
          Printf.sprintf "%d events; %d words over %d edges in %d rounds"
            (Trace.Recorder.length recorder)
            (Trace.Profile.total_words profile)
            (Trace.Profile.edges_used profile)
            (Trace.Profile.rounds profile));
    }
  in
  let faulty sc values ~seed f r =
    (* Fault-injection mode: the enforced simulator run (the same protocol
       --trace exercises) under a compiled plan, classified and validated
       by Sim_aggregate.minimum_outcome instead of asserted correct. With
       --retry/--policy the run goes through the resilience supervisor:
       re-seeded attempts, raw -> reliable escalation, grown budgets, and
       finally the sequential surviving-minima fallback. *)
    Printf.printf "fault plan: %s (injector seed %d)\n" f.plan_path f.fault_seed;
    let prepared = Sim_aggregate.prepare sc in
    let last_counts = ref None in
    let attempt knobs ~off =
      let reliable = Option.map (fun k -> k.Supervisor.reliable) knobs
      and budget_factor = Option.map (fun k -> k.Supervisor.budget_factor) knobs in
      let injector = Fault.compile ~seed:(f.fault_seed + off) f.plan in
      let o =
        Sim_aggregate.minimum_outcome ~prepared ~domains:r.domains ?obs:r.obs
          ?tracer:r.tracer ?reliable ?budget_factor ?par_profile:r.pp ~faults:injector
          (Rng.create (seed + 7 + off))
          sc ~values
      in
      last_counts := Some (Fault.counts injector);
      o
    in
    let fallback (d : Outcome.degradation) =
      {
        Sim_aggregate.minima =
          Aggregate.surviving_minima sc ~values ~crashed:d.Outcome.crashed;
        diverged = [];
        completion_round = 0;
        ostats = no_stats;
        retransmissions = 0;
      }
    in
    let o, resilience = supervise r ~fallback attempt in
    let rep = Outcome.value o in
    let stats = rep.Sim_aggregate.ostats in
    (match o with
    | Outcome.Complete _ ->
        Printf.printf
          "part-wise min aggregation under faults: COMPLETE — every part \
           agrees on its minimum\n"
    | Outcome.Degraded (_, d) ->
        Printf.printf
          "part-wise min aggregation under faults: DEGRADED — crashed=%d \
           dead_links=%d diverged_parts=%d affected_nodes=%d%s\n"
          (List.length d.Outcome.crashed)
          (List.length d.Outcome.unresponsive)
          (List.length rep.Sim_aggregate.diverged)
          (List.length d.Outcome.affected)
          (if d.Outcome.out_of_rounds then " (round budget exhausted)" else ""));
    Printf.printf "  %d rounds, %d messages, %d retransmissions\n"
      stats.Simulator.rounds stats.Simulator.messages
      rep.Sim_aggregate.retransmissions;
    let counts =
      (* counts of the last attempt's injector: every attempt compiles a
         fresh stream, so stale counters never leak across retries *)
      match !last_counts with
      | Some c -> c
      | None ->
          { Fault.drops = 0; link_down_drops = 0; to_crashed = 0;
            duplicates = 0; delays = 0; crashes = 0 }
    in
    Printf.printf
      "  injected: drops=%d link_down=%d to_crashed=%d duplicates=%d \
       delays=%d crashes=%d\n"
      counts.Fault.drops counts.Fault.link_down_drops counts.Fault.to_crashed
      counts.Fault.duplicates counts.Fault.delays counts.Fault.crashes;
    {
      code = 0;
      fields =
        (fun profile ->
          (("parts", Json.Int (Shortcut.k sc)) :: outcome_fields f o)
          @ [
              ("fault_counts", Fault.counts_to_json counts);
              ("stats", Report.stats_json stats);
              ("completion_round", Json.Int rep.Sim_aggregate.completion_round);
              ("retransmissions", Json.Int rep.Sim_aggregate.retransmissions);
              part_traffic sc profile;
            ]
          @ resilience);
      summary = fault_summary;
    }
  in
  let run family parts seed faults sketch opts =
    let g, shape = build_family seed family in
    let partition = build_partition seed g shape parts in
    let tree = Bfs.tree g ~root:0 in
    let sc = (Boost.full partition ~tree).Boost.shortcut in
    let rng = Rng.create (seed + 5) in
    let values = Array.init (Graph.n g) (fun _ -> Rng.int rng 1_000_000) in
    let protocol, body =
      match faults with
      | Some f -> ("sim_aggregate.minimum_outcome", faulty sc values ~seed f)
      | None -> ("sim_aggregate.minimum", body partition sc values ~seed)
    in
    run_with ?mode:(mode_of_sketch sketch) opts ~command:"pa" ~protocol ~seed g body
  in
  Cmd.v
    (Cmd.info "pa" ~doc:"run part-wise aggregation with and without shortcuts")
    Term.(const run $ graph_arg $ parts_arg $ seed_arg $ faults_term $ sketch_arg
          $ run_opts
              ~trace_doc:"run the aggregation under the enforced simulator with \
                          tracing on and write the JSON run report (stats, \
                          per-edge congestion profile, per-part traffic, event \
                          stream, spans/metrics/ledger) to $(docv); a .jsonl \
                          suffix instead streams the events line by line \
                          (lcs-trace-stream/1, O(1) resident memory — see `lcs \
                          top' and `lcs analyze')"
              ~spans_doc:"write the enforced-simulator run's span tree as Chrome \
                          trace-event JSON (Perfetto-loadable) to $(docv)")

(* --- mst subcommand --------------------------------------------------------- *)

let mst_cmd =
  let run family seed mode opts =
    let g, _shape = build_family seed family in
    let w = Weights.random_distinct (Rng.create (seed + 3)) g in
    run_with opts ~command:"mst" ~protocol:"boruvka_engine.run" ~seed g (fun r ->
        let reference = Kruskal.mst w in
        (* MST has no fault-injection path, so the ladder's lever is
           re-seeding the engine; acceptance is correctness against
           Kruskal, and the sequential fallback IS Kruskal — recorded as
           such, never passed off as a distributed run. *)
        let attempt _knobs ~off =
          Outcome.Complete
            (Mst.boruvka ?obs:r.obs ?tracer:r.tracer ?par_profile:r.pp
               ~seed:(seed + 4 + off) ~mode ~domains:r.domains w)
        in
        let accept = function
          | Outcome.Complete res -> res.Mst.edges = reference
          | Outcome.Degraded _ -> false
        in
        let fallback _d =
          {
            Mst.edges = reference;
            weight = Weights.total w reference;
            accounting =
              {
                Boruvka_engine.phases = 0;
                pa_rounds = 0;
                pa_messages = 0;
                max_congestion = 0;
                final_fragments = 1;
              };
          }
        in
        let result = Outcome.value (fst (supervise r ~accept ~fallback attempt)) in
        let ok = result.Mst.edges = reference in
        let acc = result.Mst.accounting in
        Printf.printf
          "MST: weight=%d edges=%d phases=%d pa_rounds=%d correct_vs_kruskal=%b\n"
          result.Mst.weight
          (List.length result.Mst.edges)
          acc.Boruvka_engine.phases acc.Boruvka_engine.pa_rounds ok;
        {
          code = 0;
          fields =
            (fun _ ->
              [
                ("weight", Json.Int result.Mst.weight);
                ("edges", Json.Int (List.length result.Mst.edges));
                ("phases", Json.Int acc.Boruvka_engine.phases);
                ("pa_rounds", Json.Int acc.Boruvka_engine.pa_rounds);
                ("pa_messages", Json.Int acc.Boruvka_engine.pa_messages);
                ("max_congestion", Json.Int acc.Boruvka_engine.max_congestion);
                ("correct_vs_kruskal", Json.Bool ok);
              ]);
          summary =
            (fun recorder profile ->
              Printf.sprintf "%d events; %d words over %d edges"
                (Trace.Recorder.length recorder)
                (Trace.Profile.total_words profile)
                (Trace.Profile.edges_used profile));
        })
  in
  let mode_arg =
    Arg.(value
         & opt
             (enum
                [
                  ("thm31", Boruvka_engine.Thm31);
                  ("baseline", Boruvka_engine.Bfs_baseline);
                  ("induced", Boruvka_engine.Induced_only);
                ])
             Boruvka_engine.Thm31
         & info [ "mode" ] ~docv:"MODE" ~doc:"thm31 | baseline | induced")
  in
  Cmd.v
    (Cmd.info "mst" ~doc:"distributed Boruvka MST with measured PA rounds")
    Term.(const run $ graph_arg $ seed_arg $ mode_arg
          $ run_opts
              ~trace_doc:"trace every phase's simulated aggregation and write the \
                          JSON run report (accounting, per-edge congestion \
                          profile, event stream, spans/metrics/ledger) to \
                          $(docv); a .jsonl suffix instead streams the events \
                          line by line (lcs-trace-stream/1)"
              ~spans_doc:"write the run's span tree (mst → boruvka.phase → pa → \
                          pa.epoch) as Chrome trace-event JSON to $(docv)")

(* --- export subcommand -------------------------------------------------------- *)

let export_cmd =
  let run family parts seed format path =
    let g, shape = build_family seed family in
    let contents =
      match format with
      | `Edges -> Graph_io.to_edge_list g
      | `Dot ->
          let partition =
            match parts with
            | None -> None
            | Some spec -> Some (build_partition seed g shape spec)
          in
          Graph_io.to_dot ?partition g
      | `Shortcut_dot ->
          (* Render the boosted Theorem 3.1 shortcut: part colors plus the
             H_i edges drawn heavy, shaded by how many parts share them. *)
          let spec = Option.value parts ~default:(Voronoi 8) in
          let partition = build_partition seed g shape spec in
          let tree = Bfs.tree g ~root:0 in
          let sc = (Boost.full partition ~tree).Boost.shortcut in
          let load = Quality.edge_load sc in
          Graph_io.to_dot_with_edge_style ~partition g ~style_of_edge:(fun e ->
              if load.(e) = 0 then None
              else
                Some
                  (Printf.sprintf "color=red, penwidth=%d, label=\"%d\""
                     (min 5 (1 + load.(e)))
                     load.(e)))
    in
    (match path with
    | None -> print_string contents
    | Some p ->
        Graph_io.write_file p contents;
        Printf.printf "wrote %s (%d bytes)\n" p (String.length contents));
    0
  in
  let format_arg =
    Arg.(value
         & opt (enum [ ("edges", `Edges); ("dot", `Dot); ("shortcut-dot", `Shortcut_dot) ]) `Edges
         & info [ "format" ] ~docv:"FMT" ~doc:"edges | dot | shortcut-dot")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH" ~doc:"output file")
  in
  let parts_opt =
    Arg.(value & opt (some parts_conv) None
         & info [ "parts"; "p" ] ~docv:"PARTS" ~doc:"color parts in dot output")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"serialize a graph family (edge list or Graphviz dot)")
    Term.(const run $ graph_arg $ parts_opt $ seed_arg $ format_arg $ out_arg)

(* --- certificate subcommand ----------------------------------------------------- *)

let certificate_cmd =
  let run family parts seed threshold budget =
    let g, shape = build_family seed family in
    let partition = build_partition seed g shape parts in
    let tree = Bfs.tree g ~root:0 in
    let result =
      Construct.run ~record_blame:true partition ~tree ~threshold ~block_budget:budget
    in
    Printf.printf "run: threshold=%d budget=%d covered=%d/%d overcongested=%d\n"
      threshold budget result.Construct.selected_count (Partition.k partition)
      result.Construct.overcongested_count;
    if result.Construct.overcongested_count = 0 then begin
      print_endline "no overcongested edges: nothing to certify";
      0
    end
    else begin
      let cert = Certificate.best_effort ~max_attempts:512 (Rng.create (seed + 9)) result in
      Printf.printf
        "certificate: density %.3f (%d edge-nodes + %d part-nodes), verified=%b\n"
        cert.Certificate.density cert.Certificate.edge_nodes cert.Certificate.part_nodes
        (match Minor.verify g cert.Certificate.model with Ok () -> true | Error _ -> false);
      0
    end
  in
  let threshold_arg =
    Arg.(value & opt int 3 & info [ "threshold" ] ~docv:"C" ~doc:"congestion cap")
  in
  let budget_arg =
    Arg.(value & opt int 1 & info [ "budget" ] ~docv:"B" ~doc:"block budget")
  in
  Cmd.v
    (Cmd.info "certificate"
       ~doc:"force a failed run and extract a dense-minor certificate")
    Term.(const run $ graph_arg $ parts_arg $ seed_arg $ threshold_arg $ budget_arg)

(* --- analyze subcommand ------------------------------------------------------ *)

let analyze_cmd =
  let run_report_runs path =
    let contents =
      match open_in_bin path with
      | ic ->
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          close_in ic;
          s
      | exception Sys_error msg ->
          Printf.eprintf "lcs: cannot read %s: %s\n" path msg;
          exit 1
    in
    let doc =
      match Json.of_string contents with
      | Ok doc -> doc
      | Error msg ->
          Printf.eprintf "lcs: %s: invalid JSON: %s\n" path msg;
          exit 1
    in
    match Analyze.of_json doc with
    | Ok runs -> runs
    | Error msg ->
        Printf.eprintf "lcs: %s: %s\n" path msg;
        exit 1
  in
  (* A streamed (.jsonl) trace is read line by line; the causal DAG the
     analyzer builds still needs every event, but the file is never held
     in memory as one JSON document. *)
  let streamed_runs path =
    let events = ref [] in
    match
      Trace.Stream.fold path ~init:() ~f:(fun () line ->
          match line with
          | Trace.Stream.Event ev -> events := ev :: !events
          | Trace.Stream.Meta _ | Trace.Stream.Snapshot _
          | Trace.Stream.Truncated _ -> ())
    with
    | Ok () -> Analyze.of_events (List.rev !events)
    | Error msg ->
        Printf.eprintf "lcs: %s: %s\n" path msg;
        exit 1
  in
  let run path json_out flows_out =
    let runs =
      if Report.is_stream path then streamed_runs path
      else run_report_runs path
    in
    if runs = [] then Printf.printf "%s: no simulator runs in trace\n" path;
    List.iter (fun r -> print_string (Analyze.to_text r)) runs;
    (match json_out with
    | None -> ()
    | Some p ->
        Report.write_json p (Analyze.to_json runs) ~describe:(fun () ->
            Printf.printf "analysis: wrote %s (%d runs)\n" p (List.length runs)));
    (match flows_out with
    | None -> ()
    | Some p ->
        let evs = List.concat_map Analyze.flow_events runs in
        Report.write_json p
          (Json.Obj
             [
               ("traceEvents", Json.List evs);
               ("displayTimeUnit", Json.String "ms");
             ])
          ~describe:(fun () ->
            Printf.printf "flows: wrote %s (%d trace events)\n" p
              (List.length evs)));
    (* A fault-free run whose decomposition misses the round count would
       falsify the telescoping identity — treat it as a hard error. *)
    if
      List.exists
        (fun r -> (not r.Analyze.faulty) && not r.Analyze.exact)
        runs
    then begin
      Printf.eprintf
        "lcs: analyze: fault-free run decomposition does not sum to its \
         round count\n";
      1
    end
    else 0
  in
  let trace_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"run report written by pa/shortcut/mst --trace, a bare \
                   event array, or a streamed .jsonl trace \
                   (lcs-trace-stream/1)")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"PATH"
             ~doc:"also write the analysis as lcs-analyze/1 JSON to $(docv)")
  in
  let flows_arg =
    Arg.(value & opt (some string) None
         & info [ "flows" ] ~docv:"PATH"
             ~doc:"also write the critical path as Chrome trace-event JSON \
                   with flow arrows (Perfetto-loadable) to $(docv)")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"reconstruct the causal DAG of a recorded trace, print its \
             critical path and the transit/queueing decomposition of the \
             round count")
    Term.(const run $ trace_pos $ json_arg $ flows_arg)

(* --- chaos subcommand --------------------------------------------------------- *)

let chaos_cmd =
  let run graphs parts seed plan_paths nseeds intensities_s iters shrink reliable
      out =
    let intensities =
      String.split_on_char ',' intensities_s
      |> List.filter_map (fun s ->
             let s = String.trim s in
             if s = "" then None
             else
               match float_of_string_opt s with
               | Some x when x >= 0. -> Some x
               | _ ->
                   Printf.eprintf "lcs: bad --intensities entry %S\n" s;
                   exit 2)
    in
    let seeds = List.init (max 1 nseeds) (fun i -> seed + i) in
    let named_plans =
      List.map (fun p -> (Filename.basename p, load_plan_or_die p)) plan_paths
    in
    let campaigns =
      List.map
        (fun spec ->
          let family =
            match parse_family spec with
            | Ok f -> f
            | Error e | exception Failure e ->
                Printf.eprintf "lcs: bad --graph %s: %s\n" spec e;
                exit 2
          in
          let g, shape = build_family seed family in
          let partition = build_partition seed g shape parts in
          let subject =
            Chaos.pa_subject ~reliable
              ~name:(spec ^ if reliable then " reliable" else " raw")
              ~graph:g ~partition ()
          in
          let plans =
            (* E20's adversaries when no --plan is given: the two canned
               profiles plus a computed cut-severing partition plan (the
               plans/partition_heavy.json idea, adapted to this graph) *)
            if named_plans <> [] then named_plans
            else Lcs_experiments.Exp_chaos.default_plans g
          in
          Chaos.campaign ~intensities ~seeds ~search_iters:iters ~shrink ~plans
            ~subjects:[ subject ] ())
        graphs
    in
    let report =
      {
        Chaos.intensities;
        seeds;
        cases = List.concat_map (fun (c : Chaos.t) -> c.Chaos.cases) campaigns;
      }
    in
    List.iter
      (fun (case : Chaos.case) ->
        Printf.printf "%s / %s:\n" case.Chaos.subject case.Chaos.plan_name;
        List.iter
          (fun (pt : Chaos.sweep_point) ->
            Printf.printf "  x%-5g %s\n" pt.Chaos.intensity
              (String.concat " "
                 (List.map
                    (fun (s, v) ->
                      Printf.sprintf "seed%d=%s" s (Chaos.verdict_to_string v))
                    pt.Chaos.verdicts)))
          case.Chaos.sweep;
        (match case.Chaos.threshold with
        | None -> print_endline "  threshold: none found in swept range"
        | Some t -> Printf.printf "  threshold: x%.4f\n" t);
        match case.Chaos.shrunk with
        | None -> ()
        | Some s ->
            Printf.printf "  shrunk (%d probes): %s\n" s.Chaos.probes
              (Json.to_string ~minify:true (Fault.plan_to_json s.Chaos.minimal)))
      report.Chaos.cases;
    (match out with
    | None -> ()
    | Some path ->
        Report.write_json path (Chaos.to_json report) ~describe:(fun () ->
            Printf.printf "chaos: wrote %s (%d cases)\n" path
              (List.length report.Chaos.cases)));
    0
  in
  let graphs_arg =
    Arg.(value & opt_all string [ "grid:6" ]
         & info [ "graph"; "g" ] ~docv:"FAMILY"
             ~doc:"graph family to subject to the campaign (repeatable)")
  in
  let parts_arg =
    Arg.(value & opt parts_conv (Voronoi 6)
         & info [ "parts"; "p" ] ~docv:"PARTS"
             ~doc:"partition spec applied to every --graph")
  in
  let plan_arg =
    Arg.(value & opt_all string []
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"lcs-fault-plan/1 file to sweep (repeatable); default: \
                   built-in light_loss, crash_heavy and a computed \
                   cut-severing partition plan")
  in
  let seeds_arg =
    Arg.(value & opt int 2
         & info [ "seeds" ] ~docv:"N" ~doc:"run N seeds (base --seed upward) per cell")
  in
  let intensities_arg =
    Arg.(value & opt string "0.5,1,2,4"
         & info [ "intensities" ] ~docv:"CSV"
             ~doc:"comma-separated fault-intensity factors (Fault.scale)")
  in
  let iters_arg =
    Arg.(value & opt int 6
         & info [ "search-iters" ] ~docv:"N"
             ~doc:"bisection steps refining each failure threshold")
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"delta-debug each first failing cell to a minimal \
                   reproducing plan (deterministic: same inputs, \
                   byte-identical report)")
  in
  let reliable_arg =
    Arg.(value & flag
         & info [ "reliable" ]
             ~doc:"test the ARQ-wrapped transport instead of the raw one")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"PATH"
             ~doc:"write the lcs-chaos-report/1 JSON here")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"sweep fault intensity over graph families, bisect failure \
             thresholds, and shrink failing plans")
    Term.(const run $ graphs_arg $ parts_arg $ seed_arg $ plan_arg $ seeds_arg
          $ intensities_arg $ iters_arg $ shrink_arg $ reliable_arg $ out_arg)

(* --- experiment passthrough -------------------------------------------------- *)

let experiment_cmd =
  let run id seed =
    match Lcs_experiments.Registry.find id with
    | None ->
        Printf.eprintf "unknown experiment id %S\n" id;
        1
    | Some f ->
        Lcs_experiments.Exp_types.print (f ~seed ());
        0
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"experiment id")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"run one experiment table (E1–E20)")
    Term.(const run $ id_arg $ seed_arg)

(* --- graph subcommands (files, binary format, streaming generation) ---- *)

(* Families the graph subcommands can stream edge-by-edge (no edge list in
   memory) at sizes the --graph families cannot reach, plus every --graph
   family as a fallback. *)
type gen_family =
  | Ggrid of int * int
  | Gtree of int
  | Gpa of int * int
  | Gfamily of family

let parse_gen_family s =
  match String.split_on_char ':' s with
  | [ "grid"; v ] -> (
      match String.split_on_char ',' v with
      | [ r ] ->
          let r = int_of_string r in
          Ok (Ggrid (r, r))
      | [ r; c ] -> Ok (Ggrid (int_of_string r, int_of_string c))
      | _ -> Error "grid:R[,C]")
  | [ "tree"; n ] -> Ok (Gtree (int_of_string n))
  | [ "pa"; kv ] -> (
      match String.split_on_char ',' kv with
      | [ n; m0 ] -> Ok (Gpa (int_of_string n, int_of_string m0))
      | _ -> Error "pa:N,M0")
  | _ -> ( match parse_family s with Ok f -> Ok (Gfamily f) | Error e -> Error e)

let gen_family_to_string = function
  | Ggrid (r, c) when r = c -> Printf.sprintf "grid:%d" r
  | Ggrid (r, c) -> Printf.sprintf "grid:%d,%d" r c
  | Gtree n -> Printf.sprintf "tree:%d" n
  | Gpa (n, m0) -> Printf.sprintf "pa:%d,%d" n m0
  | Gfamily f -> family_to_string f

let gen_family_conv =
  conv_of ~docv:"FAMILY" parse_gen_family (fun ppf f ->
      Format.pp_print_string ppf (gen_family_to_string f))

(* [what] names where the spec came from in an error (default --family). *)
let build_gen_family ?(what = "--family") seed f =
  or_bad (what ^ " " ^ gen_family_to_string f) (fun () ->
      match f with
      | Ggrid (r, c) -> Generators.grid ~rows:r ~cols:c
      | Gtree n -> Generators.random_tree (Rng.create seed) ~n
      | Gpa (n, m0) -> Generators.preferential_attachment (Rng.create seed) ~n ~m0
      | Gfamily f -> fst (family_graph seed f))

(* File format by extension: .bin is lcs-graph-bin/1, anything else the
   text edge list. *)
let is_binary_path path = Filename.check_suffix path ".bin"

(* Graph files come from outside the program, so every one is validated
   in O(n + m) — a corrupt CSR is rejected here, not read out of bounds
   later. *)
let load_graph path =
  or_bad ("graph file " ^ path) (fun () ->
      if is_binary_path path then Graph_io.read_binary ~validate:true path
      else begin
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Graph_io.of_channel ic)
      end)

let save_graph path g =
  if is_binary_path path then Graph_io.write_binary path g
  else begin
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> Graph_io.to_channel oc g)
  end

let graph_out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"PATH"
        ~doc:"Output file; a .bin suffix selects the binary format, anything \
              else the text edge list.")

let graph_gen_cmd =
  let run family seed out =
    let g = build_gen_family seed family in
    save_graph out g;
    Printf.printf "wrote %s: n=%d m=%d\n" out (Graph.n g) (Graph.m g);
    0
  in
  let family_arg =
    Arg.(
      required
      & opt (some gen_family_conv) None
      & info [ "family"; "f" ] ~docv:"FAMILY"
          ~doc:"Streaming families grid:R[,C] | tree:N | pa:N,M0, or any \
                --graph family.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"generate a graph family into a file")
    Term.(const run $ family_arg $ seed_arg $ graph_out_arg)

let graph_convert_cmd =
  let run input out =
    let g = load_graph input in
    save_graph out g;
    Printf.printf "wrote %s: n=%d m=%d\n" out (Graph.n g) (Graph.m g);
    0
  in
  let input_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"IN" ~doc:"input graph file")
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"convert a graph file between text and binary formats")
    Term.(const run $ input_arg $ graph_out_arg)

let graph_info_cmd =
  let run path =
    let g = load_graph path in
    (* Binary files are mmapped, not read; loading validates the CSR in
       O(n + m), and the rest is an O(n) degree scan. *)
    Format.printf "%a@." Graph.pp g;
    Printf.printf "format: %s\n" (if is_binary_path path then "binary (lcs-graph-bin/1)" else "text");
    Printf.printf "bytes: %d\n" (Unix.stat path).Unix.st_size;
    Printf.printf "max degree: %d\n" (Graph.max_degree g);
    Printf.printf "density (m/n): %.3f\n" (Graph.density g);
    0
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PATH" ~doc:"graph file")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"print basic statistics of a graph file")
    Term.(const run $ path_arg)

let graph_cmd =
  Cmd.group
    (Cmd.info "graph" ~doc:"generate, convert and inspect graph files")
    [ graph_gen_cmd; graph_convert_cmd; graph_info_cmd ]

(* --- bcast subcommand (streaming flood broadcast) ----------------------- *)

(* Graph flood: the root's token reaches every node, each node forwards on
   every port exactly once — 2m messages in eccentricity(root)+1 rounds,
   the simulator's canonical full-graph workload (the macro-bench runs
   the same program, and like it keeps every node due every round).
   States: 0 waiting, 1 has the token, 2 halted. *)
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

let bcast_cmd =
  let run family seed trace every profile_out sketch domains =
    (* Snapshots are lines of the trace stream: without one they would
       silently go nowhere. *)
    if every > 0 && trace = None then begin
      prerr_endline
        "lcs: --every needs --trace: flight-recorder snapshots are lines of the trace stream";
      exit 2
    end;
    let g = build_gen_family seed family in
    let mode = mode_of_sketch sketch in
    let program = flood_program ~root:0 in
    let sink =
      match trace with
      | None -> None
      | Some path ->
          Some
            ( path,
              Report.open_stream
                (Report.run_meta ~command:"bcast" ~protocol:"flood.broadcast" ~seed g)
                path )
    in
    (* A plain flood pays for no collector: the profile rides only on a
       run whose stream or profile is written. It folds the event stream
       ahead of the stream's own lines, and the flight recorder folds it
       after them, so each snapshot line follows its round's end. *)
    let stats, profile =
      if trace = None && profile_out = None then (snd (Simulator.run ~domains g program), None)
      else
        let profile = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
        let stream = match sink with Some (_, s) -> [ Trace.Stream.tracer s ] | None -> [] in
        let flight =
          match sink with
          | Some (_, s) when every > 0 ->
              let bounds = Simulator.shard_bounds ~domains g in
              [ Trace.Flight.tracer ~every ~bounds profile (Trace.Stream.snapshot s) ]
          | _ -> []
        in
        let tracer = Trace.tee ((Trace.Profile.tracer profile :: stream) @ flight) in
        (snd (Simulator.run ~domains ~tracer g program), Some profile)
    in
    Printf.printf
      "broadcast: n=%d m=%d — %d rounds, %d messages, %d words, max edge \
       load %d\n"
      (Graph.n g) (Graph.m g) stats.Simulator.rounds stats.Simulator.messages
      stats.Simulator.words stats.Simulator.max_edge_load;
    (match profile with
    | None -> ()
    | Some profile -> (
        Option.iter (fun (path, s) -> Report.finish_stream path s profile) sink;
        match profile_out with
        | None -> ()
        | Some out ->
            Report.write_json out (Trace.Profile.to_json profile) ~describe:(fun () ->
                Printf.printf "profile: wrote %s (%d words over %d edges)\n" out
                  (Trace.Profile.total_words profile)
                  (Trace.Profile.edges_used profile))));
    0
  in
  let family_arg =
    Arg.(
      required
      & opt (some gen_family_conv) None
      & info [ "family"; "f" ] ~docv:"FAMILY"
          ~doc:"Streaming families grid:R[,C] | tree:N | pa:N,M0, or any \
                --graph family.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"PATH"
             ~doc:"stream the run's events to $(docv) as line-delimited \
                   lcs-trace-stream/1 JSON — resident memory stays O(1) \
                   however long the run")
  in
  let every_arg =
    Arg.(value & opt nonneg_int 0
         & info [ "every" ] ~docv:"N"
             ~doc:"with --trace, which it needs, also write a flight-recorder \
                   snapshot line (round, cumulative words, heavy hitters, \
                   halt count, queue depths per shard of --domains) every \
                   $(docv) rounds; the final snapshot is always written")
  in
  let profile_out_arg =
    Arg.(value & opt (some string) None
         & info [ "profile-out" ] ~docv:"PATH"
             ~doc:"write the run's congestion profile JSON to $(docv) — \
                   byte-comparable against `lcs top --profile' output \
                   rebuilt from the streamed trace")
  in
  Cmd.v
    (Cmd.info "bcast"
       ~doc:"flood-broadcast a token over a (possibly huge) graph family \
             on the enforced simulator, streaming its trace to disk")
    Term.(const run $ family_arg $ seed_arg $ trace_arg $ every_arg
          $ profile_out_arg $ sketch_arg $ domains_arg)

(* --- top subcommand (flight-recorder viewer) ---------------------------- *)

let top_cmd =
  let run path k profile_out =
    (* One pass over the streamed file: remember the header, tabulate the
       flight snapshots, and rebuild the congestion profile by replaying
       every event line into a collector sized by the header's edge count.
       Without that count the fold cannot bound edge ids, so a stream
       lacking it is refused rather than sized by the ids it carries. *)
    let header = ref [] in
    let snaps = ref [] in
    let profile = ref None in
    let exception No_edge_count in
    let result =
      try
        Trace.Stream.fold path ~init:0 ~f:(fun events line ->
            match line with
            | Trace.Stream.Meta m ->
                (match m with Json.Obj fields -> header := fields | _ -> ());
                (match Json.member "m" m with
                | Some (Json.Int edges) ->
                    if Option.is_none !profile then
                      profile := Some (Trace.Profile.create ~edges ())
                | _ -> raise No_edge_count);
                events
            | Trace.Stream.Event ev -> (
                match !profile with
                | Some p ->
                    Trace.Profile.tracer p ev;
                    events + 1
                | None -> raise No_edge_count)
            | Trace.Stream.Snapshot s ->
                snaps := s :: !snaps;
                events
            | Trace.Stream.Truncated _ -> events)
      with No_edge_count -> Error "stream header has no \"m\" (edge count) field"
    in
    match result with
    | Error msg ->
        Printf.eprintf "lcs: %s: %s\n" path msg;
        1
    | Ok events ->
        let field name =
          match List.assoc_opt name !header with
          | Some (Json.String s) -> s
          | Some (Json.Int i) -> string_of_int i
          | _ -> "?"
        in
        Printf.printf "%s: %s run (n=%s m=%s seed=%s), %d events\n" path
          (field "command") (field "n") (field "m") (field "seed") events;
        let snaps = List.rev !snaps in
        if snaps <> [] then begin
          Printf.printf "%8s %12s %12s %8s  %-18s %s\n" "round" "words"
            "messages" "halted" "hottest edge" "queues";
          List.iter
            (fun (s : Trace.Flight.snapshot) ->
              Printf.printf "%8d %12d %12d %8d  %-18s %s\n" s.Trace.Flight.round
                s.Trace.Flight.words s.Trace.Flight.messages
                s.Trace.Flight.halted
                (match s.Trace.Flight.top with
                | (e, w) :: _ -> Printf.sprintf "%d (%d w)" e w
                | [] -> "-")
                (* the end-of-run snapshot, and streams written before
                   every run had shards, carry no queue depths *)
                (if s.Trace.Flight.queues = [||] then "-"
                 else
                   String.concat " "
                     (Array.to_list
                        (Array.map string_of_int s.Trace.Flight.queues))))
            snaps
        end;
        (match !profile with
        | None -> Printf.printf "no event lines: nothing to rebuild\n"
        | Some p ->
            Printf.printf "top %d edges by words (rebuilt from the stream):\n" k;
            List.iter
              (fun (e, w) -> Printf.printf "  edge %-8d %12d words\n" e w)
              (Trace.Profile.top_edges ~k p);
            match profile_out with
            | None -> ()
            | Some out ->
                Report.write_json out (Trace.Profile.to_json p)
                  ~describe:(fun () ->
                    Printf.printf "profile: wrote %s (%d words over %d edges)\n"
                      out
                      (Trace.Profile.total_words p)
                      (Trace.Profile.edges_used p)));
        0
  in
  let trace_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"streamed lcs-trace-stream/1 file written by --trace \
                   FILE.jsonl")
  in
  let k_arg =
    Arg.(value & opt int 10
         & info [ "k" ] ~docv:"K" ~doc:"how many heavy hitters to print")
  in
  let profile_arg =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"PATH"
             ~doc:"write the congestion profile rebuilt from the stream as \
                   JSON to $(docv) — byte-identical to the in-memory profile \
                   of the same run in the same mode")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"render a streamed trace's flight-recorder snapshots and \
             rebuild its congestion profile")
    Term.(const run $ trace_pos $ k_arg $ profile_arg)

(* --- shards subcommand ------------------------------------------------------ *)

(* Static shard diagnostics: the contiguous node ranges the simulator
   would hand each domain, their port (directed-edge endpoint) counts,
   and the resulting static imbalance ratio — the load-balance picture
   *before* a run, to compare against the measured per-round imbalance a
   --par-profile report gives *after* one. *)
let shards_cmd =
  let run graph domains seed json =
    let g =
      match parse_gen_family graph with
      | Ok f -> build_gen_family ~what:"graph" seed f
      | Error e | exception Failure e ->
          if Sys.file_exists graph then load_graph graph
          else begin
            Printf.eprintf
              "lcs: %s is neither a graph family (%s) nor an existing file\n"
              graph e;
            exit 2
          end
    in
    let bounds = Simulator.shard_bounds ~domains g in
    let d = Array.length bounds - 1 in
    let ports_of s =
      let acc = ref 0 in
      for v = bounds.(s) to bounds.(s + 1) - 1 do
        acc := !acc + Graph.degree g v
      done;
      !acc
    in
    let ports = Array.init d ports_of in
    let total_ports = Array.fold_left ( + ) 0 ports in
    let max_ports = Array.fold_left max 0 ports in
    let mean_ports = float_of_int total_ports /. float_of_int (max 1 d) in
    let imbalance =
      if mean_ports > 0.0 then float_of_int max_ports /. mean_ports else 1.0
    in
    if json then begin
      let shards =
        List.init d (fun sh ->
            Json.Obj
              [
                ("shard", Json.Int sh);
                ("first", Json.Int bounds.(sh));
                ("last", Json.Int (bounds.(sh + 1) - 1));
                ("nodes", Json.Int (bounds.(sh + 1) - bounds.(sh)));
                ("ports", Json.Int ports.(sh));
              ])
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "lcs-shards/1");
                ("n", Json.Int (Graph.n g));
                ("m", Json.Int (Graph.m g));
                ("requested_domains", Json.Int domains);
                ("domains", Json.Int d);
                ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Int b) bounds)));
                ("shards", Json.List shards);
                ("static_imbalance", Json.Float imbalance);
              ]))
    end
    else begin
      Printf.printf "graph: n=%d m=%d (%d ports)\n" (Graph.n g) (Graph.m g)
        total_ports;
      Printf.printf "domains: %d%s (clamp [1, min n %d])\n" d
        (if d <> domains then Printf.sprintf " (requested %d)" domains else "")
        Simulator.max_domains;
      Array.iteri
        (fun sh p ->
          Printf.printf "shard %d: nodes %d..%d (%d nodes, %d ports, %.1f%% of traffic endpoints)\n"
            sh bounds.(sh)
            (bounds.(sh + 1) - 1)
            (bounds.(sh + 1) - bounds.(sh))
            p
            (if total_ports > 0 then
               100.0 *. float_of_int p /. float_of_int total_ports
             else 0.0))
        ports;
      Printf.printf "static imbalance (max/mean ports): %.3f\n" imbalance
    end;
    0
  in
  let graph_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"GRAPH"
             ~doc:"graph family spec (any --graph family, or streaming \
                   grid:R[,C] | tree:N | pa:N,M0) or a graph file path \
                   (.bin or text edge list)")
  in
  let domains_arg =
    Arg.(value & opt positive_int (Simulator.recommended ())
         & info [ "domains" ] ~docv:"N"
             ~doc:"shard count to plan for (defaults to the recommended \
                   domain count of this machine; clamped like the \
                   simulator clamps it)")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"emit the lcs-shards/1 JSON object instead \
                                 of the human-readable table")
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:"show the sharded simulator's node ranges, per-shard port \
             counts and static imbalance for a graph")
    Term.(const run $ graph_pos $ domains_arg $ seed_arg $ json_arg)

let () =
  let doc = "low-congestion shortcuts toolbox" in
  let info = Cmd.info "lcs" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ info_cmd; shortcut_cmd; pa_cmd; mst_cmd; bcast_cmd; chaos_cmd;
            export_cmd; certificate_cmd; analyze_cmd; top_cmd; experiment_cmd;
            graph_cmd; shards_cmd ]))
