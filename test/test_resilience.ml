(* Tests for the self-healing layer: the supervisor's escalation ladder
   (knobs, policies, retry/fallback semantics, and the pinned
   crash-recovery acceptance run at 1 and 4 domains), the chaos engine's
   threshold search and plan shrinking, the fault-plan algebra it is
   built on, and the CLI's exit-code contract for malformed plans. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Ladder shape -------------------------------------------------------- *)

let knobs_ladder () =
  let p = Supervisor.default_policy in
  let k1 = Supervisor.knobs_for p 1 in
  let k2 = Supervisor.knobs_for p 2 in
  let k3 = Supervisor.knobs_for p 3 in
  check Alcotest.int "attempt 1 seed" p.Supervisor.base_seed k1.Supervisor.seed;
  check Alcotest.bool "attempt 1 raw" false k1.Supervisor.reliable;
  check Alcotest.int "attempt 1 budget x1" 1 k1.Supervisor.budget_factor;
  check Alcotest.bool "attempt 2 reliable" true k2.Supervisor.reliable;
  check Alcotest.int "attempt 2 reseeded" (p.Supervisor.base_seed + 1)
    k2.Supervisor.seed;
  check Alcotest.int "attempt 2 budget x2" 2 k2.Supervisor.budget_factor;
  check Alcotest.int "attempt 3 budget x4" 4 k3.Supervisor.budget_factor;
  (* the backoff factor is capped, and reseed=false pins the seed *)
  let p =
    { p with Supervisor.max_attempts = 6; backoff_cap = 4; reseed = false }
  in
  let k5 = Supervisor.knobs_for p 5 in
  check Alcotest.int "budget factor capped" 4 k5.Supervisor.budget_factor;
  check Alcotest.int "seed held" p.Supervisor.base_seed k5.Supervisor.seed

let policy_parsing () =
  (match Supervisor.policy_of_string "attempts=4,reliable-from=1,cap=16,fallback=false" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check Alcotest.int "attempts" 4 p.Supervisor.max_attempts;
      check Alcotest.int "reliable-from" 1 p.Supervisor.reliable_from;
      check Alcotest.int "cap" 16 p.Supervisor.backoff_cap;
      check Alcotest.bool "fallback" false p.Supervisor.fallback;
      (* untouched keys keep their defaults *)
      check Alcotest.int "backoff default" 2 p.Supervisor.backoff);
  (match Supervisor.policy_of_string "attempts=3,bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key must be rejected"
  | Error e -> check Alcotest.bool "names the key" true (contains ~sub:"bogus" e));
  match Supervisor.policy_of_string "attempts=many" with
  | Ok _ -> Alcotest.fail "bad value must be rejected"
  | Error _ -> ()

(* --- Supervisor semantics (synthetic attempts) --------------------------- *)

let lost_one =
  { Outcome.no_degradation with Outcome.affected = [ 1 ]; rounds = 10 }

let escalation_reaches_reliable () =
  (* raw attempts fail, the first reliable attempt succeeds: the ladder
     must stop exactly there and the trail must tell the story *)
  let attempt k =
    if k.Supervisor.reliable then Outcome.Complete "ok"
    else Outcome.Degraded ("partial", lost_one)
  in
  let r = Supervisor.run attempt in
  check Alcotest.bool "complete" true (Outcome.is_complete r.Supervisor.outcome);
  check Alcotest.bool "second rung" true (r.Supervisor.source = Supervisor.Attempt 2);
  match r.Supervisor.trail with
  | [ a1; a2 ] ->
      check Alcotest.bool "attempt 1 rejected" true
        (match a1.Supervisor.status with Supervisor.Rejected _ -> true | _ -> false);
      check Alcotest.bool "attempt 2 accepted" true
        (a2.Supervisor.status = Supervisor.Accepted)
  | trail -> Alcotest.fail (Printf.sprintf "expected 2 attempts, got %d" (List.length trail))

let exhaustion_falls_back () =
  let attempt _ = Outcome.Degraded (0, lost_one) in
  let r = Supervisor.run ~fallback:(fun d -> List.length d.Outcome.affected) attempt in
  check Alcotest.int "every rung tried" 3 (List.length r.Supervisor.trail);
  check Alcotest.bool "sequential source" true
    (r.Supervisor.source = Supervisor.Sequential);
  (match r.Supervisor.outcome with
  | Outcome.Complete _ -> Alcotest.fail "fallback must stay Degraded"
  | Outcome.Degraded (v, d) ->
      check Alcotest.int "fallback saw the degradation" 1 v;
      check Alcotest.bool "degradation recorded" true (d.Outcome.affected = [ 1 ]));
  (* the JSON trail is the report section: one entry per attempt *)
  match Supervisor.to_json r with
  | Json.Obj fields ->
      (match List.assoc "attempts" fields with
      | Json.List l -> check Alcotest.int "trail in json" 3 (List.length l)
      | _ -> Alcotest.fail "attempts must be a list");
      check Alcotest.bool "source says sequential" true
        (List.assoc "source" fields = Json.String "sequential")
  | _ -> Alcotest.fail "to_json must be an object"

let raised_attempts_are_rungs () =
  let attempt k =
    if k.Supervisor.attempt = 1 then failwith "boom" else Outcome.Complete ()
  in
  let r = Supervisor.run attempt in
  check Alcotest.bool "recovered" true (r.Supervisor.source = Supervisor.Attempt 2);
  match r.Supervisor.trail with
  | [ a1; _ ] ->
      check Alcotest.bool "exception recorded" true
        (match a1.Supervisor.status with
        | Supervisor.Raised msg -> contains ~sub:"boom" msg
        | _ -> false)
  | _ -> Alcotest.fail "expected 2 attempts"

(* --- Pinned acceptance: crash_heavy recovery at 1 and 4 domains ---------- *)

(* Resolve repo files relative to the test binary (_build/default/test/),
   so the tests also run under [dune exec] from the project root. *)
let from_test_dir path =
  Filename.concat (Filename.dirname Sys.executable_name) path

let load_plan_exn path =
  match Fault.load_plan (from_test_dir path) with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* The ISSUE's acceptance run: part-wise aggregation on the 8x8 grid under
   plans/crash_heavy.json is degraded on every rung (crashed nodes cannot
   come back), so within <= 3 attempts the supervisor must degrade
   gracefully into the sequential surviving-minima fallback — explicitly
   marked Sequential, never silently wrong. *)
let supervisor_recovers_crash_heavy () =
  let plan = load_plan_exn "../plans/crash_heavy.json" in
  let g = Generators.grid ~rows:8 ~cols:8 in
  let partition = Partition.grid_rows g ~rows:8 ~cols:8 in
  let tree = Bfs.tree g ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let values = Array.init (Graph.n g) (fun v -> (v * 37) mod 1009) in
  List.iter
    (fun domains ->
      let attempt k =
        Sim_aggregate.minimum_outcome ~domains ~reliable:k.Supervisor.reliable
          ~faults:(Fault.compile ~seed:k.Supervisor.seed plan)
          (Rng.create (k.Supervisor.seed + 7))
          sc ~values
      in
      let fallback (d : Outcome.degradation) =
        {
          Sim_aggregate.minima =
            Aggregate.surviving_minima sc ~values ~crashed:d.Outcome.crashed;
          diverged = [];
          completion_round = 0;
          ostats = { Simulator.rounds = 0; messages = 0; words = 0; max_edge_load = 0 };
          retransmissions = 0;
        }
      in
      let r = Supervisor.run ~fallback attempt in
      let label fmt = Printf.sprintf "%s (domains=%d)" fmt domains in
      check Alcotest.bool (label "within 3 attempts") true
        (List.length r.Supervisor.trail <= 3);
      match r.Supervisor.outcome with
      | Outcome.Complete _ -> Alcotest.fail (label "crashes cannot complete")
      | Outcome.Degraded (rep, d) ->
          check Alcotest.bool (label "explicit sequential fallback") true
            (r.Supervisor.source = Supervisor.Sequential);
          check Alcotest.bool (label "crashes recorded") true (d.Outcome.crashed <> []);
          check Alcotest.bool (label "recovered the surviving minima") true
            (rep.Sim_aggregate.minima
            = Aggregate.surviving_minima sc ~values ~crashed:d.Outcome.crashed))
    [ 1; 4 ]

(* Under pure loss the ladder genuinely self-heals: the raw rung is
   rejected, a reliable rung completes distributedly — no fallback. *)
let escalation_heals_lossy_run () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let partition = Partition.grid_rows g ~rows:4 ~cols:4 in
  let tree = Bfs.tree g ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let values = Array.init (Graph.n g) (fun v -> 500 - (v * 3)) in
  let plan =
    {
      Fault.empty with
      Fault.default = { Fault.reliable_edge with Fault.drop = 0.3 };
    }
  in
  let attempt k =
    Sim_aggregate.minimum_outcome ~reliable:k.Supervisor.reliable
      ~faults:(Fault.compile ~seed:k.Supervisor.seed plan)
      (Rng.create (k.Supervisor.seed + 7))
      sc ~values
  in
  let r = Supervisor.run attempt in
  check Alcotest.bool "healed distributedly" true
    (Outcome.is_complete r.Supervisor.outcome);
  (match r.Supervisor.source with
  | Supervisor.Attempt i -> check Alcotest.bool "a reliable rung" true (i >= 2)
  | Supervisor.Sequential -> Alcotest.fail "must not need the fallback");
  match r.Supervisor.trail with
  | first :: _ ->
      check Alcotest.bool "raw rung rejected" true
        (match first.Supervisor.status with
        | Supervisor.Rejected _ -> true
        | _ -> false)
  | [] -> Alcotest.fail "empty trail"

(* --- Chaos: threshold search and shrinking (synthetic subjects) ---------- *)

(* A subject whose failure condition is a pure function of the plan makes
   the bisection and the shrinker's guarantees exactly checkable. *)
let drop_threshold_subject ~at =
  {
    Chaos.name = "synthetic";
    run = (fun ~plan ~seed:_ ->
      if plan.Fault.default.Fault.drop >= at then Chaos.Wrong_answer
      else Chaos.Complete);
  }

let chaos_bisects_threshold () =
  let base =
    { Fault.empty with Fault.default = { Fault.reliable_edge with Fault.drop = 0.25 } }
  in
  let report =
    Chaos.campaign
      ~intensities:[ 0.5; 1.0; 2.0; 4.0 ]
      ~seeds:[ 1 ] ~search_iters:8
      ~plans:[ ("synthetic", base) ]
      ~subjects:[ drop_threshold_subject ~at:0.5 ]
      ()
  in
  match report.Chaos.cases with
  | [ c ] -> (
      check Alcotest.bool "witness at x2" true (c.Chaos.witness = Some (2.0, 1));
      let failing pt = List.exists (fun (_, v) -> Chaos.is_failure v) pt.Chaos.verdicts in
      check (Alcotest.list Alcotest.bool) "sweep verdicts"
        [ false; false; true; true ]
        (List.map failing c.Chaos.sweep);
      match c.Chaos.threshold with
      | None -> Alcotest.fail "threshold must be found"
      | Some t ->
          (* drop 0.25 scaled by t crosses 0.5 exactly at t = 2 *)
          check Alcotest.bool "bisection converged to 2.0" true
            (t > 1.98 && t <= 2.0 +. 1e-9))
  | cases -> Alcotest.fail (Printf.sprintf "expected 1 case, got %d" (List.length cases))

let chaos_shrinks_to_culprit () =
  (* failure depends only on node 5 crashing: everything else must be
     shrunk away, and the probe count must be reported *)
  let subject =
    {
      Chaos.name = "synthetic";
      run = (fun ~plan ~seed:_ ->
        if List.exists (fun (c : Fault.crash) -> c.node = 5) plan.Fault.crashes
        then Chaos.Failed
        else Chaos.Complete);
    }
  in
  let plan =
    {
      Fault.seed = 9;
      default = { Fault.reliable_edge with Fault.drop = 0.2; delay = 2 };
      edges = [ (4, { Fault.reliable_edge with Fault.down = [ (1, 8) ] }) ];
      crashes =
        [
          { Fault.node = 3; round = 2 };
          { Fault.node = 5; round = 4 };
          { Fault.node = 7; round = 6 };
        ];
    }
  in
  match Chaos.shrink subject ~seed:1 plan with
  | None -> Alcotest.fail "the plan fails, shrink must return a witness"
  | Some (minimal, probes) ->
      check Alcotest.bool "probes counted" true (probes > 0);
      check Alcotest.bool "still failing" true
        (Chaos.is_failure (subject.Chaos.run ~plan:minimal ~seed:1));
      check Alcotest.bool "only the culprit crash survives" true
        (minimal.Fault.crashes = [ { Fault.node = 5; round = 4 } ]);
      check Alcotest.bool "irrelevant overrides dropped" true (minimal.Fault.edges = []);
      check Alcotest.bool "irrelevant default zeroed" true
        (minimal.Fault.default = Fault.reliable_edge)

let chaos_shrink_is_deterministic () =
  (* the real part-wise subject on a crash plan: two independent shrinks
     must agree byte for byte (the CI smoke asserts the same end to end) *)
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let subject = Chaos.pa_subject ~name:"grid6 raw" ~graph:g ~partition () in
  let plan =
    {
      Fault.empty with
      Fault.seed = 11;
      default = { Fault.reliable_edge with Fault.drop = 0.05 };
      crashes = [ { Fault.node = 21; round = 5 }; { Fault.node = 22; round = 6 } ];
    }
  in
  let shrink () =
    match Chaos.shrink subject ~seed:1 plan with
    | None -> Alcotest.fail "a crash plan must fail the raw subject"
    | Some (minimal, _) -> Json.to_string (Fault.plan_to_json minimal)
  in
  let a = shrink () in
  let b = shrink () in
  check Alcotest.string "byte-identical minimal plans" a b

(* --- Fault-plan algebra -------------------------------------------------- *)

let algebra_sample =
  {
    Fault.seed = 5;
    default = { Fault.reliable_edge with Fault.drop = 0.2; delay = 2 };
    edges =
      [ (1, { Fault.reliable_edge with Fault.duplicate = 0.4; down = [ (3, 10) ] }) ];
    crashes = [ { Fault.node = 2; round = 3 }; { Fault.node = 6; round = 9 } ];
  }

let scale_identity_and_zero () =
  check Alcotest.bool "scale 1.0 is the identity" true
    (Fault.scale 1.0 algebra_sample = algebra_sample);
  let z = Fault.scale 0.0 algebra_sample in
  check (Alcotest.float 1e-9) "drop zeroed" 0.0 z.Fault.default.Fault.drop;
  check Alcotest.int "delay zeroed" 0 z.Fault.default.Fault.delay;
  check Alcotest.bool "downs removed" true
    (List.for_all (fun (_, f) -> f.Fault.down = []) z.Fault.edges);
  check Alcotest.bool "crashes removed" true (z.Fault.crashes = []);
  check Alcotest.int "seed untouched" algebra_sample.Fault.seed z.Fault.seed;
  (* doubling caps probabilities at 1 and keeps the plan valid *)
  let d = Fault.scale 4.0 algebra_sample in
  check (Alcotest.float 1e-9) "drop capped" 0.8 d.Fault.default.Fault.drop;
  check (Alcotest.float 1e-9) "duplicate capped at 1"
    1.0 (List.assoc 1 d.Fault.edges).Fault.duplicate;
  (match Fault.validate d with Ok _ -> () | Error e -> Alcotest.fail e);
  match Fault.scale (-1.0) algebra_sample with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative factors must be rejected"

let merge_composes () =
  let b =
    {
      Fault.empty with
      Fault.default = { Fault.reliable_edge with Fault.drop = 0.5; delay = 1 };
      crashes = [ { Fault.node = 2; round = 1 }; { Fault.node = 4; round = 7 } ];
    }
  in
  let m = Fault.merge algebra_sample b in
  (* independent losses compose: 1 - (1-0.2)(1-0.5) = 0.6; delays add *)
  check (Alcotest.float 1e-9) "drop composed" 0.6 m.Fault.default.Fault.drop;
  check Alcotest.int "delay added" 3 m.Fault.default.Fault.delay;
  (* node 2 crashes in both: the earliest round wins *)
  check Alcotest.bool "crash union, earliest round" true
    (m.Fault.crashes
    = [
        { Fault.node = 2; round = 1 };
        { Fault.node = 4; round = 7 };
        { Fault.node = 6; round = 9 };
      ]);
  check Alcotest.int "left seed wins" algebra_sample.Fault.seed m.Fault.seed;
  (* the left plan's edge override persists, composed against b's default *)
  let f = List.assoc 1 m.Fault.edges in
  check (Alcotest.float 1e-9) "override composed with b's default" 0.5 f.Fault.drop;
  check Alcotest.bool "override keeps its down window" true (f.Fault.down = [ (3, 10) ])

let clip_bounds () =
  let p =
    {
      algebra_sample with
      Fault.edges = (99, Fault.reliable_edge) :: algebra_sample.Fault.edges;
      crashes = { Fault.node = 50; round = 1 } :: algebra_sample.Fault.crashes;
    }
  in
  let c = Fault.clip ~nodes:10 ~edges:20 p in
  check Alcotest.bool "out-of-range edge dropped" true
    (not (List.mem_assoc 99 c.Fault.edges) && List.mem_assoc 1 c.Fault.edges);
  check Alcotest.bool "out-of-range crash dropped" true
    (List.for_all (fun (cr : Fault.crash) -> cr.node < 10) c.Fault.crashes)

let prop_scale_preserves_validity =
  QCheck.Test.make ~name:"scale: any factor yields a valid plan" ~count:100
    QCheck.(pair (float_bound_inclusive 8.0) (int_bound 10_000))
    (fun (f, seed) ->
      let rng = Rng.create (seed + 1) in
      let plan =
        {
          Fault.empty with
          Fault.seed = 1 + seed;
          default =
            {
              Fault.reliable_edge with
              Fault.drop = float_of_int (Rng.int rng 40) /. 100.;
              duplicate = float_of_int (Rng.int rng 40) /. 100.;
              delay = Rng.int rng 4;
              down = (if Rng.int rng 2 = 0 then [ (1, 1 + Rng.int rng 9) ] else []);
            };
          crashes =
            List.init (Rng.int rng 3) (fun i ->
                { Fault.node = i; round = 1 + Rng.int rng 9 });
        }
      in
      match Fault.validate (Fault.scale f plan) with Ok _ -> true | Error _ -> false)

let prop_merge_empty_is_identity =
  QCheck.Test.make ~name:"merge: empty is a right identity on profiles" ~count:100
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 3) in
      let plan =
        {
          Fault.empty with
          Fault.seed = 1 + seed;
          default =
            {
              Fault.reliable_edge with
              Fault.drop = float_of_int (Rng.int rng 40) /. 100.;
              reorder = float_of_int (Rng.int rng 40) /. 100.;
              delay = Rng.int rng 4;
            };
          crashes =
            List.init (Rng.int rng 3) (fun i ->
                { Fault.node = i; round = 1 + Rng.int rng 9 });
        }
      in
      let m = Fault.merge plan Fault.empty in
      (* probabilities compose through 1-(1-p)(1-q), so "identity" is up
         to float rounding *)
      let close a b = Float.abs (a -. b) < 1e-12 in
      close m.Fault.default.Fault.drop plan.Fault.default.Fault.drop
      && close m.Fault.default.Fault.reorder plan.Fault.default.Fault.reorder
      && m.Fault.default.Fault.delay = plan.Fault.default.Fault.delay
      && m.Fault.crashes
         = List.sort
             (fun (a : Fault.crash) (b : Fault.crash) ->
               compare (a.round, a.node) (b.round, b.node))
             plan.Fault.crashes)

(* --- CLI contract: malformed input is rejected, never a crash ----------- *)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Each row is (argv, exit code, stderr substring). A malformed option
   value is a usage error naming the option (cmdliner's 124); a
   well-formed spec that does not fit the input — a broken fault plan, a
   partition the graph's shape cannot carry, a family parameter out of
   range, a corrupt graph file — exits 2 with a message; a trace that
   cannot be read exits 1. No row may reach the uncaught-exception exit
   (125) or succeed. In argv and substring, [PLAN] stands for a fault
   plan with a JSON syntax error, [TXT] for an edge list with an endpoint
   out of range, [TRUNC] for a truncated lcs-graph-bin/1 file, [OFFSET]
   for a 4x4 grid's binary file with one row offset set to 10^9, [BIT63]
   for the same file with bit 63 of its first edge-id word (word 68) set,
   which a 63-bit read would drop, and [NOM] for a trace stream whose
   header lacks "n" and "m" and whose send has edge id 10^7. *)
let cli_rejects_malformed_input () =
  let temp name suffix contents =
    let path = Filename.temp_file name suffix in
    write_file path contents;
    path
  in
  let grid_bin =
    let path = Filename.temp_file "lcs_grid" ".bin" in
    Graph_io.write_binary path (Generators.grid ~rows:4 ~cols:4);
    let s = read_file path in
    Sys.remove path;
    s
  in
  let offset =
    let b = Bytes.of_string grid_bin in
    (* header: magic, n, m; then row_off, whose fourth entry goes wild *)
    Bytes.set_int64_le b (8 * (3 + 3)) 1_000_000_000L;
    Bytes.to_string b
  in
  let bit63 =
    let b = Bytes.of_string grid_bin in
    (* header, 17 row offsets, 48 neighbor ids: the first edge id *)
    let word = 3 + 17 + 48 in
    let edge_id = Bytes.get_int64_le b (8 * word) in
    (* [Int64.min_int] is bit 63 alone *)
    Bytes.set_int64_le b (8 * word) (Int64.logor edge_id Int64.min_int);
    Bytes.to_string b
  in
  let files =
    [
      ( "NOM",
        temp "lcs_no_m" ".jsonl"
          (String.concat "\n"
             [
               {|{"schema":"lcs-trace-stream/1","command":"bfs"}|};
               {|{"t":"round_start","round":1,"live":16}|};
               {|{"t":"send","round":1,"src":0,"dst":1,"edge":10000000,"words":1,"id":1,"parents":[]}|};
             ]) );
      ("PLAN", temp "lcs_bad_plan" ".json"
                 {|{ "schema": "lcs-fault-plan/1", "default": { "drop": 0.5, }|});
      ("TXT", temp "lcs_bad_graph" ".txt" "3 2\n0 1\n1 7\n");
      ("TRUNC", temp "lcs_trunc" ".bin" (String.sub grid_bin 0 100));
      ("OFFSET", temp "lcs_offset" ".bin" offset);
      ("BIT63", temp "lcs_bit63" ".bin" bit63);
    ]
  in
  let subst a = Option.value ~default:a (List.assoc_opt a files) in
  let err = Filename.temp_file "lcs_cli" ".err" in
  let rows =
    [
      ("pa --graph grid:4 --parts rows --faults PLAN", 2, "line 1");
      ("pa --graph grid:4 --parts rows --faults PLAN", 2, "column");
      ("pa --graph grid:4 --domains 0 --trace /dev/null", 124, "--domains");
      ("shortcut --graph grid:4 --domains 0 --par-profile /dev/null", 124, "--domains");
      ("bcast --family grid:4 --domains 0", 124, "--domains");
      ("mst --graph grid:4 --domains=0", 124, "--domains");
      ("shards grid:4 --domains 0", 124, "--domains");
      ("mst --graph grid:4 --mode bogus", 124, "--mode");
      ("pa --graph grid:4 --parts bogus", 124, "--parts");
      ("pa --graph grid:4 --parts voronoi:x", 124, "--parts");
      ("pa --graph grid:x", 124, "--graph");
      ("shards grid:x", 2, "grid:x");
      ("chaos --graph grid:x", 2, "--graph grid:x");
      ("export --graph grid:4 --format bogus", 124, "--format");
      ("pa --graph ktree:3,50 --parts rows", 2, "--parts rows");
      ("pa --graph grid:4 --parts voronoi:99", 2, "--parts voronoi:99");
      ("info --graph grid:0", 2, "--graph grid:0");
      ("info --graph ktree:4,3", 2, "--graph ktree:4,3");
      ("info --graph lbg:3,6", 2, "--graph lbg:3,6");
      ("info --graph er:10,0", 2, "--graph er:10,0");
      ("graph gen --family grid:0 -o /dev/null", 2, "--family grid:0");
      ("bcast --family tree:0", 2, "--family tree:0");
      ("bcast --family grid:4 --every 2", 2, "--every");
      ("bcast --family grid:4 --every=-3 --trace /dev/null", 124, "--every");
      ("shards pa:5,9", 2, "pa:5,9");
      ("graph info TXT", 2, "TXT");
      ("graph info TRUNC", 2, "TRUNC");
      ("graph info OFFSET", 2, "OFFSET");
      ("graph info BIT63", 2, "word 68");
      ("shards OFFSET", 2, "OFFSET");
      ("graph convert OFFSET -o /dev/null", 2, "OFFSET");
      ("top NOM", 1, "\"m\"");
    ]
  in
  List.iter
    (fun (argv, code, sub) ->
      let args =
        String.split_on_char ' ' argv |> List.map (fun a -> Filename.quote (subst a))
      in
      let sub = subst sub in
      let status =
        Sys.command
          (Printf.sprintf "%s %s > /dev/null 2> %s"
             (Filename.quote (from_test_dir "../bin/lcs_cli.exe"))
             (String.concat " " args) (Filename.quote err))
      in
      let msg = read_file err in
      check Alcotest.int (argv ^ ": exit code") code status;
      check Alcotest.bool (Printf.sprintf "%s: stderr mentions %S" argv sub) true
        (contains ~sub msg))
    rows;
  List.iter (fun (_, path) -> Sys.remove path) files;
  Sys.remove err

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_scale_preserves_validity; prop_merge_empty_is_identity ]

let suite =
  [
    case "supervisor: knobs ladder" `Quick knobs_ladder;
    case "supervisor: policy parsing" `Quick policy_parsing;
    case "supervisor: escalation reaches reliable" `Quick escalation_reaches_reliable;
    case "supervisor: exhaustion falls back" `Quick exhaustion_falls_back;
    case "supervisor: raised attempts are rungs" `Quick raised_attempts_are_rungs;
    case "supervisor: crash_heavy recovery, 1 and 4 domains" `Quick
      supervisor_recovers_crash_heavy;
    case "supervisor: heals a lossy run by escalating" `Quick escalation_heals_lossy_run;
    case "chaos: threshold bisection" `Quick chaos_bisects_threshold;
    case "chaos: shrinks to the culprit" `Quick chaos_shrinks_to_culprit;
    case "chaos: shrink is deterministic" `Quick chaos_shrink_is_deterministic;
    case "fault algebra: scale identity/zero/cap" `Quick scale_identity_and_zero;
    case "fault algebra: merge composes" `Quick merge_composes;
    case "fault algebra: clip bounds" `Quick clip_bounds;
    case "cli: malformed input is rejected" `Quick cli_rejects_malformed_input;
  ]
  @ props
