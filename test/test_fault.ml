(* Tests for the fault-injection framework: plan JSON, injector
   determinism, byte-identity of fault-free runs, the Reliable ARQ
   transport, the hardened JSON parser, and the self-verifying protocol
   outcomes (Complete vs Degraded — never silently wrong values). *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let random_connected_graph seed ~n ~extra =
  let rng = Rng.create seed in
  let b = Builder.create ~n in
  for v = 1 to n - 1 do
    Builder.add_edge b (Rng.int rng v) v
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 20 * extra do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Builder.mem_edge b u v) then begin
      Builder.add_edge b u v;
      incr added
    end
  done;
  Builder.graph b

(* --- Fault plans ------------------------------------------------------- *)

(* Edge overrides extend the plan's default profile: omitted fields
   inherit from it on parse, so an exact roundtrip needs overrides built
   on top of [default]. *)
let sample_plan =
  let default = { Fault.reliable_edge with Fault.drop = 0.1; reorder = 0.05 } in
  {
    Fault.seed = 42;
    default;
    edges =
      [
        (3, { default with Fault.duplicate = 0.5; delay = 2 });
        (7, { default with Fault.down = [ (5, 9); (20, 20) ] });
      ];
    crashes = [ { Fault.node = 4; round = 6 } ];
  }

let plan_roundtrip () =
  let json = Fault.plan_to_json sample_plan in
  (match Fault.plan_of_json json with
  | Ok p -> check Alcotest.bool "roundtrip" true (p = sample_plan)
  | Error e -> Alcotest.fail e);
  (* A hand-written document parses too, inheriting from "default". *)
  let doc =
    {|{ "schema": "lcs-fault-plan/1", "seed": 3,
        "default": { "drop": 0.25 },
        "edges": [ { "edge": 1, "delay": 1 } ],
        "crashes": [ { "node": 2, "round": 4 } ] }|}
  in
  match Fault.plan_of_string doc with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check Alcotest.int "seed" 3 p.Fault.seed;
      check (Alcotest.float 1e-9) "default drop" 0.25 p.Fault.default.Fault.drop;
      let f = List.assoc 1 p.Fault.edges in
      check (Alcotest.float 1e-9) "edge inherits drop" 0.25 f.Fault.drop;
      check Alcotest.int "edge delay" 1 f.Fault.delay;
      check Alcotest.bool "crash parsed" true
        (p.Fault.crashes = [ { Fault.node = 2; round = 4 } ])

let plan_validation () =
  let bad probs = match Fault.validate probs with Ok _ -> false | Error _ -> true in
  check Alcotest.bool "drop > 1 rejected" true
    (bad
       {
         sample_plan with
         Fault.default = { Fault.reliable_edge with Fault.drop = 1.5 };
       });
  check Alcotest.bool "negative delay rejected" true
    (bad
       {
         sample_plan with
         Fault.edges = [ (0, { Fault.reliable_edge with Fault.delay = -1 }) ];
       });
  check Alcotest.bool "crash round 0 rejected" true
    (bad { sample_plan with Fault.crashes = [ { Fault.node = 0; round = 0 } ] });
  check Alcotest.bool "missing schema rejected" true
    (match Fault.plan_of_string {|{ "seed": 1 }|} with
    | Error _ -> true
    | Ok _ -> false)

(* The checked-in partition adversary: it must parse, validate, and its
   down windows must name exactly a cut of the 8x8 grid it targets —
   removing those edges disconnects the graph, which is what makes the
   plan an honest partition and not just scattered noise. *)
let partition_heavy_plan_severs_the_grid () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../plans/partition_heavy.json"
  in
  match Fault.load_plan path with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      (match Fault.validate plan with Ok _ -> () | Error e -> Alcotest.fail e);
      let downed =
        List.filter_map
          (fun (e, f) -> if f.Fault.down <> [] then Some e else None)
          plan.Fault.edges
      in
      check Alcotest.bool "has down windows" true (downed <> []);
      let g = Generators.grid ~rows:8 ~cols:8 in
      check Alcotest.bool "names real edges" true
        (List.for_all (fun e -> e >= 0 && e < Graph.m g) downed);
      let b = Builder.create ~n:(Graph.n g) in
      Graph.iter_edges g (fun e u v ->
          if not (List.mem e downed) then Builder.add_edge b u v);
      check Alcotest.bool "the grid is connected" true (Components.is_connected g);
      check Alcotest.bool "minus the downed edges it is not" false
        (Components.is_connected (Builder.graph b))

(* --- Byte-identity of fault-free runs ---------------------------------- *)

(* Max-flooding with a fixed halting clock: deterministic, every node
   sends every round until it halts, so any divergence between the plain
   and the empty-injector code paths would surface in states, stats or
   the recorded event stream. *)
type flood = { best : int; clock : int }

let flood_program ~rounds =
  {
    Simulator.init = (fun ctx -> { best = ctx.Simulator.node; clock = 0 });
    on_round =
      Lists.step (fun ctx st ~inbox ->
        let best = List.fold_left (fun b (_p, v) -> max b v) st.best inbox in
        let st = { best; clock = st.clock + 1 } in
        let degree = Array.length ctx.Simulator.neighbors in
        let out = List.init degree (fun p -> (p, st.best)) in
        (st, if st.clock >= rounds then [] else out));
    is_halted = (fun st -> st.clock >= rounds);
    wake = (fun _ -> Simulator.every_round);
    msg_words = (fun _ -> 1);
  }

let record_run ?faults g =
  let recorder = Trace.Recorder.create () in
  let states, stats =
    Simulator.run ~tracer:(Trace.Recorder.tracer recorder) ?faults g
      (flood_program ~rounds:12)
  in
  let events = List.map Trace.event_to_json (Trace.Recorder.events recorder) in
  (states, stats, Json.to_string (Json.List events))

let empty_injector_is_invisible () =
  let g = random_connected_graph 5 ~n:20 ~extra:10 in
  let states0, stats0, events0 = record_run g in
  let injector = Fault.compile Fault.empty in
  let states1, stats1, events1 = record_run ~faults:injector g in
  check Alcotest.bool "states identical" true (states0 = states1);
  check Alcotest.bool "stats identical" true (stats0 = stats1);
  check Alcotest.string "event stream identical" events0 events1;
  check Alcotest.bool "no faults observed" true
    (Fault.no_faults_observed (Fault.counts injector))

let injector_is_deterministic () =
  let g = random_connected_graph 9 ~n:16 ~extra:8 in
  let plan =
    {
      Fault.empty with
      Fault.default =
        { Fault.reliable_edge with Fault.drop = 0.2; duplicate = 0.1; reorder = 0.1 };
      crashes = [ { Fault.node = 11; round = 7 } ];
    }
  in
  let run () = record_run ~faults:(Fault.compile ~seed:13 plan) g in
  let states0, stats0, events0 = run () in
  let states1, stats1, events1 = run () in
  check Alcotest.bool "states identical" true (states0 = states1);
  check Alcotest.bool "stats identical" true (stats0 = stats1);
  check Alcotest.string "fault event stream identical" events0 events1

(* --- Simulator: partial state on round exhaustion ----------------------- *)

let out_of_rounds_keeps_partial_state () =
  let g = Generators.path 6 in
  let never_halts =
    {
      Simulator.init = (fun _ctx -> 0);
      on_round = Lists.step (fun _ctx st ~inbox:_ -> (st + 1, []));
      is_halted = (fun _ -> false);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  match Simulator.run_outcome ~max_rounds:9 g never_halts with
  | Simulator.Finished _ -> Alcotest.fail "must run out of rounds"
  | Simulator.Out_of_rounds (states, p) ->
      check Alcotest.int "rounds spent" 9 p.Simulator.partial_stats.Simulator.rounds;
      check Alcotest.int "all unhalted" 6 (List.length p.Simulator.unhalted);
      check Alcotest.bool "no crashes" true (p.Simulator.crashed_nodes = []);
      check Alcotest.bool "state progressed" true (Array.for_all (fun s -> s = 9) states)

(* --- Reliable transport under concrete fault shapes ---------------------- *)

let total_loss_degrades_honestly () =
  let g = Generators.path 5 in
  let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
  let plan =
    { Fault.empty with Fault.default = { Fault.reliable_edge with Fault.drop = 1.0 } }
  in
  match Broadcast.run_outcome ~faults:(Fault.compile plan) g info ~value:77 with
  | Outcome.Complete _ -> Alcotest.fail "total loss cannot complete"
  | Outcome.Degraded (r, d) ->
      check (Alcotest.list Alcotest.int) "everyone but the root unreached"
        [ 1; 2; 3; 4 ] r.Broadcast.unreached;
      check Alcotest.bool "root kept its value" true (r.Broadcast.values.(0) = Some 77);
      check Alcotest.bool "nobody holds a wrong value" true
        (Array.for_all (function Some v -> v = 77 | None -> true) r.Broadcast.values);
      check Alcotest.bool "dead links reported" true (d.Outcome.unresponsive <> [])

let crash_isolates_subtree () =
  let g = Generators.path 8 in
  let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
  let plan = { Fault.empty with Fault.crashes = [ { Fault.node = 3; round = 2 } ] } in
  match Broadcast.run_outcome ~faults:(Fault.compile plan) g info ~value:5 with
  | Outcome.Complete _ -> Alcotest.fail "a crash cannot complete"
  | Outcome.Degraded (r, d) ->
      check (Alcotest.list Alcotest.int) "crashed" [ 3 ] d.Outcome.crashed;
      check (Alcotest.list Alcotest.int) "the whole subtree below 3 is cut off"
        [ 3; 4; 5; 6; 7 ] r.Broadcast.unreached;
      check Alcotest.bool "upstream nodes delivered" true
        (r.Broadcast.values.(1) = Some 5 && r.Broadcast.values.(2) = Some 5)

let arq_rides_out_link_down () =
  let g = Generators.path 2 in
  let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
  let plan =
    {
      Fault.empty with
      Fault.edges = [ (0, { Fault.reliable_edge with Fault.down = [ (1, 5) ] }) ];
    }
  in
  (* Raw: the single send falls in the outage and is gone. *)
  (match
     Broadcast.run_outcome ~reliable:false ~faults:(Fault.compile plan) g info ~value:9
   with
  | Outcome.Complete _ -> Alcotest.fail "raw broadcast cannot survive the outage"
  | Outcome.Degraded (r, _) ->
      check (Alcotest.list Alcotest.int) "raw loses node 1" [ 1 ] r.Broadcast.unreached);
  (* Reliable: retransmission outlives the outage. *)
  match Broadcast.run_outcome ~faults:(Fault.compile plan) g info ~value:9 with
  | Outcome.Complete r ->
      check Alcotest.bool "delivered after the outage" true
        (r.Broadcast.values.(1) = Some 9);
      check Alcotest.bool "took retransmissions" true (r.Broadcast.retransmissions > 0)
  | Outcome.Degraded _ -> Alcotest.fail "ARQ must ride out a 5-round outage"

let convergecast_excludes_crashed_child () =
  let g = Generators.path 6 in
  let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
  let values = Array.init 6 (fun v -> 10 * (v + 1)) in
  (* Round 1: node 4 is gone before its subtree's value can escape upward
     (a later crash may race the ARQ delivery and legitimately complete
     the subtree). *)
  let plan = { Fault.empty with Fault.crashes = [ { Fault.node = 4; round = 1 } ] } in
  match
    Convergecast.run_outcome ~faults:(Fault.compile plan) g info ~values ~combine:( + )
  with
  | Outcome.Complete _ -> Alcotest.fail "a crash cannot complete"
  | Outcome.Degraded (r, _) ->
      check Alcotest.bool "validated against included set" true r.Convergecast.validated;
      check Alcotest.bool "total is the included sum" true
        (r.Convergecast.total
        = List.fold_left (fun acc v -> acc + values.(v)) 0 r.Convergecast.included);
      check (Alcotest.list Alcotest.int) "crashed subtree excluded" [ 4; 5 ]
        r.Convergecast.excluded;
      check (Alcotest.list Alcotest.int) "upstream chain included" [ 0; 1; 2; 3 ]
        r.Convergecast.included

(* --- ARQ timing edge cases ----------------------------------------------- *)

(* The capped-exponential retransmission schedule, pinned end to end on a
   single edge: with [{rto; rto_max; max_retries}] the data frame goes out
   at rounds t_1 = 1 and t_{k+1} = t_k + min(2^(k-1)*rto, rto_max). A
   link-down window covering every send through t_(max_retries) is exactly
   lethal; one round shorter and the final retransmission slips through. *)
let send_rounds (c : Reliable.config) =
  let rec go k t rto acc =
    if k >= c.Reliable.max_retries then List.rev (t :: acc)
    else go (k + 1) (t + rto) (min (2 * rto) c.Reliable.rto_max) (t :: acc)
  in
  go 1 1 c.Reliable.rto []

let outage_outcome config ~down =
  let g = Generators.path 2 in
  let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
  let plan =
    {
      Fault.empty with
      Fault.edges = [ (0, { Fault.reliable_edge with Fault.down = [ down ] }) ];
    }
  in
  Broadcast.run_outcome ~config ~faults:(Fault.compile plan) g info ~value:31

let dead_link_exactly_at_threshold () =
  let config = { Reliable.rto = 2; rto_max = 8; max_retries = 3; linger = 20 } in
  let last = List.fold_left (fun _ t -> t) 0 (send_rounds config) in
  check Alcotest.int "schedule: 1, +2, +4" 7 last;
  (* outage ends one round before the last retransmission: delivered *)
  (match outage_outcome config ~down:(1, last - 1) with
  | Outcome.Complete r ->
      check Alcotest.bool "retransmitted through the outage" true
        (r.Broadcast.retransmissions > 0)
  | Outcome.Degraded _ -> Alcotest.fail "the final retransmission must get through");
  (* outage swallows the last send too: the channel is declared dead *)
  match outage_outcome config ~down:(1, last) with
  | Outcome.Complete _ -> Alcotest.fail "every attempt was swallowed"
  | Outcome.Degraded (r, d) ->
      check Alcotest.bool "dead link reported" true (d.Outcome.unresponsive <> []);
      check (Alcotest.list Alcotest.int) "the leaf never got the value" [ 1 ]
        r.Broadcast.unreached

let prop_backoff_schedule_is_the_threshold =
  QCheck.Test.make ~name:"reliable: capped backoff sets the exact death threshold"
    ~count:25
    QCheck.(triple (int_range 1 4) (int_range 0 2) (int_range 2 4))
    (fun (rto, cap_shift, max_retries) ->
      (* rto_max >= 2: the ack round-trip takes two rounds, so a 1-round
         capped timeout would (correctly) declare death while the final
         ack is still in flight *)
      let rto_max = max 2 (rto * (1 lsl cap_shift)) in
      let config = { Reliable.rto; rto_max; max_retries; linger = rto_max + 4 } in
      (* rto >= 1 and max_retries >= 2 put the last send at round >= 2,
         so the pre-outage window [1, last-1] is never empty *)
      let last = List.fold_left (fun _ t -> t) 0 (send_rounds config) in
      let survives =
        match outage_outcome config ~down:(1, last - 1) with
        | Outcome.Complete _ -> true
        | Outcome.Degraded _ -> false
      in
      let dies =
        match outage_outcome config ~down:(1, last) with
        | Outcome.Complete _ -> false
        | Outcome.Degraded (_, d) -> d.Outcome.unresponsive <> []
      in
      survives && dies)

let linger_guards_against_spurious_death () =
  (* drop exactly the first ack (the [2,2] window): the sender retransmits
     and the receiver must still be awake to re-ack the duplicate. A
     1-round linger halts the receiver first, turning the lost ack into a
     spurious dead link — the delivered value notwithstanding. *)
  let outcome ~linger =
    let g = Generators.path 2 in
    let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
    let plan =
      {
        Fault.empty with
        Fault.edges = [ (0, { Fault.reliable_edge with Fault.down = [ (2, 2) ] }) ];
      }
    in
    Broadcast.run_outcome
      ~config:{ Reliable.rto = 2; rto_max = 8; max_retries = 4; linger }
      ~faults:(Fault.compile plan) g info ~value:8
  in
  (match outcome ~linger:1 with
  | Outcome.Complete _ -> Alcotest.fail "a 1-round linger must orphan the lost ack"
  | Outcome.Degraded (r, d) ->
      check Alcotest.bool "spurious dead link" true (d.Outcome.unresponsive <> []);
      check Alcotest.bool "yet the value was delivered" true
        (r.Broadcast.values.(1) = Some 8));
  match outcome ~linger:9 with
  | Outcome.Complete r ->
      check Alcotest.bool "the duplicate was re-acked" true
        (r.Broadcast.retransmissions > 0)
  | Outcome.Degraded _ -> Alcotest.fail "linger > rto_max must ride out a lost ack"

let prop_clean_finish_is_quiesced =
  QCheck.Test.make ~name:"reliable: a clean finish leaves every channel drained"
    ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 4 16))
    (fun (seed, n) ->
      let n = max 4 n in
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let plan =
        {
          Fault.empty with
          Fault.seed = seed + 1;
          default = { Fault.reliable_edge with Fault.drop = 0.25; duplicate = 0.1 };
        }
      in
      let wrapped = Reliable.wrap (flood_program ~rounds:8) in
      match
        Simulator.run_outcome ~max_rounds:4_000 ~faults:(Fault.compile plan) g wrapped
      with
      | Simulator.Out_of_rounds _ -> QCheck.assume_fail ()
      | Simulator.Finished (states, _) ->
          Reliable.dead_links states <> [] || Reliable.quiesced states)

(* --- Fault-tolerant pipeline entry points -------------------------------- *)

let construct_outcome_faultfree_is_complete () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let partition = Partition.grid_rows g ~rows:4 ~cols:4 in
  match
    Distributed.construct_outcome ~variant:Distributed.Deterministic partition ~root:0
  with
  | Outcome.Degraded _ -> Alcotest.fail "fault-free pipeline must complete"
  | Outcome.Complete r ->
      check Alcotest.bool "constructed" true (r.Distributed.constructed <> None);
      check Alcotest.bool "validated against centralized O" true
        (r.Distributed.validated = Some true)

let construct_outcome_root_crash_degrades () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let partition = Partition.grid_rows g ~rows:4 ~cols:4 in
  let plan = { Fault.empty with Fault.crashes = [ { Fault.node = 0; round = 1 } ] } in
  match
    Distributed.construct_outcome ~variant:Distributed.Deterministic
      ~faults:(Fault.compile plan) partition ~root:0
  with
  | Outcome.Complete _ -> Alcotest.fail "a crashed root cannot complete"
  | Outcome.Degraded (r, d) ->
      check (Alcotest.option Alcotest.string) "BFS stage failed" (Some "bfs")
        r.Distributed.failed_stage;
      check (Alcotest.list Alcotest.int) "root crashed" [ 0 ] d.Outcome.crashed

let minimum_outcome_survives_crash () =
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let tree = Bfs.tree g ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let values = Array.init 36 (fun v -> 1000 - v) in
  let plan = { Fault.empty with Fault.crashes = [ { Fault.node = 14; round = 4 } ] } in
  match
    Sim_aggregate.minimum_outcome ~faults:(Fault.compile plan) (Rng.create 2) sc ~values
  with
  | Outcome.Complete _ -> Alcotest.fail "a crash cannot complete"
  | Outcome.Degraded (r, d) ->
      check (Alcotest.list Alcotest.int) "crashed" [ 14 ] d.Outcome.crashed;
      check Alcotest.bool "no surviving member diverged" true
        (r.Sim_aggregate.diverged = [])

(* A preparation that has served other runs — planless and planned, raw
   and reliable — changes only cost: every later run over it returns the
   outcome, report and statistics of a run over a fresh preparation. *)
let minimum_outcome_reuses_a_preparation () =
  let g = Generators.grid ~rows:8 ~cols:8 in
  let partition = Partition.grid_rows g ~rows:8 ~cols:8 in
  let sc = (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
  let values = Array.init (Graph.n g) (fun v -> ((v * 7919) + 13) mod 1009) in
  let prepared = Sim_aggregate.prepare sc in
  ignore (Sim_aggregate.minimum ~prepared (Rng.create 1) sc ~values:(Array.map (( - ) 0) values));
  List.iter
    (fun name ->
      let path = Filename.concat (Filename.dirname Sys.executable_name) ("../plans/" ^ name) in
      let plan = match Fault.load_plan path with Ok p -> p | Error e -> Alcotest.fail e in
      List.iter
        (fun reliable ->
          let run ?prepared () =
            Sim_aggregate.minimum_outcome ?prepared ~faults:(Fault.compile plan) ~reliable
              (Rng.create 5) sc ~values
          in
          let fresh = run () in
          check Alcotest.bool
            (Printf.sprintf "%s, reliable=%b: reused = fresh" name reliable)
            true
            (run ~prepared () = fresh))
        [ false; true ])
    [ "light_loss.json"; "crash_heavy.json" ]

(* Without a plan, each outcome entry point must be its fault-free twin:
   the same answer, the same measured costs and the same traced events,
   on small grids, k-trees and lower-bound graphs. *)
let small_host ~family ~seed =
  match family with
  | 0 ->
      let rows = 3 + (seed mod 5) and cols = 3 + (seed / 5 mod 5) in
      let g = Generators.grid ~rows ~cols in
      (g, Partition.grid_rows g ~rows ~cols)
  | 1 ->
      let rng = Rng.create seed in
      let g = Generators.k_tree rng ~k:(2 + (seed mod 3)) ~n:(20 + (seed mod 50)) in
      (g, Partition.voronoi g rng ~parts:(2 + (seed mod 7)))
  | _ ->
      let lb =
        if seed mod 2 = 0 then Lower_bound_graph.create ~delta':5 ~d':11
        else Lower_bound_graph.create ~delta':6 ~d':14
      in
      (lb.Lower_bound_graph.graph, lb.Lower_bound_graph.parts)

(* [run] untraced, then traced: both results and the events' digest. *)
let untraced_and_traced run =
  let buf = Buffer.create 4096 in
  let tracer ev =
    Buffer.add_string buf (Json.to_string (Trace.event_to_json ev));
    Buffer.add_char buf '\n'
  in
  let untraced = run None in
  let traced = run (Some tracer) in
  (untraced, traced, Digest.string (Buffer.contents buf))

let same_construction g (a : Distributed.outcome) (b : Distributed.outcome) =
  let sa = a.Distributed.result.Construct.shortcut
  and sb = b.Distributed.result.Construct.shortcut in
  List.for_all
    (fun v -> Rooted_tree.parent a.Distributed.tree v = Rooted_tree.parent b.Distributed.tree v)
    (List.init (Graph.n g) Fun.id)
  && a.Distributed.height = b.Distributed.height
  && a.Distributed.delta = b.Distributed.delta
  && a.Distributed.threshold = b.Distributed.threshold
  && a.Distributed.guesses = b.Distributed.guesses
  && a.Distributed.wave_rounds = b.Distributed.wave_rounds
  && a.Distributed.wave_messages = b.Distributed.wave_messages
  && a.Distributed.bfs_stats = b.Distributed.bfs_stats
  && Shortcut.k sa = Shortcut.k sb
  && List.for_all
       (fun i -> Shortcut.edges_array sa i = Shortcut.edges_array sb i)
       (List.init (Shortcut.k sa) Fun.id)

let prop_planless_outcome_is_the_plain_run =
  QCheck.Test.make ~name:"no plan: outcome entry points equal the plain ones" ~count:12
    QCheck.(pair (int_bound 2) (int_bound 10_000))
    (fun (family, seed) ->
      let g, partition = small_host ~family ~seed in
      let construct_matches variant =
        let p0, p1, plain_events =
          untraced_and_traced (fun tracer ->
              Distributed.construct ~seed ~variant ?tracer partition ~root:0)
        in
        let o0, o1, outcome_events =
          untraced_and_traced (fun tracer ->
              Distributed.construct_outcome ~seed ~variant ?tracer partition ~root:0)
        in
        let matches plain = function
          | Outcome.Degraded _ -> false
          | Outcome.Complete r -> (
              r.Distributed.failed_stage = None
              && r.Distributed.unjoined = []
              && r.Distributed.pipeline_rounds
                 = plain.Distributed.bfs_stats.Simulator.rounds + plain.Distributed.wave_rounds
              && r.Distributed.validated
                 = (match variant with
                   | Distributed.Deterministic -> Some true
                   | Distributed.Randomized _ -> None)
              &&
              match r.Distributed.constructed with
              | None -> false
              | Some c -> same_construction g plain c)
        in
        matches p0 o0 && matches p1 o1 && plain_events = outcome_events
      in
      let minimum_matches () =
        let tree = Bfs.tree g ~root:0 in
        let sc = (Boost.full partition ~tree).Boost.shortcut in
        let vrng = Rng.create (seed + 1) in
        let values = Array.init (Graph.n g) (fun _ -> Rng.int vrng 1_000) in
        let p0, p1, plain_events =
          untraced_and_traced (fun tracer ->
              Sim_aggregate.minimum ?tracer (Rng.create seed) sc ~values)
        in
        let o0, o1, outcome_events =
          untraced_and_traced (fun tracer ->
              Sim_aggregate.minimum_outcome ~reliable:false ?tracer (Rng.create seed) sc
                ~values)
        in
        let matches (plain : Sim_aggregate.result) = function
          | Outcome.Degraded _ -> false
          | Outcome.Complete (r : Sim_aggregate.report) ->
              r.Sim_aggregate.minima = plain.Sim_aggregate.minima
              && r.Sim_aggregate.diverged = []
              && r.Sim_aggregate.completion_round = plain.Sim_aggregate.completion_round
              && r.Sim_aggregate.ostats = plain.Sim_aggregate.stats
              && r.Sim_aggregate.retransmissions = 0
        in
        matches p0 o0 && matches p1 o1 && plain_events = outcome_events
      in
      let n = Graph.n g in
      let bfs_matches () =
        let p0, p1, plain_events =
          untraced_and_traced (fun tracer -> Sync_bfs.run ?tracer g ~root:0)
        in
        let o0, o1, outcome_events =
          untraced_and_traced (fun tracer -> Sync_bfs.run_outcome ?tracer g ~root:0)
        in
        let matches (tree, height, stats) = function
          | Outcome.Degraded _ -> false
          | Outcome.Complete (r : Sync_bfs.report) -> (
              r.Sync_bfs.height = height
              && r.Sync_bfs.stats = stats
              && r.Sync_bfs.unjoined = []
              &&
              match r.Sync_bfs.tree with
              | None -> false
              | Some t ->
                  List.for_all
                    (fun v -> Rooted_tree.parent t v = Rooted_tree.parent tree v)
                    (List.init n Fun.id))
        in
        matches p0 o0 && matches p1 o1 && plain_events = outcome_events
      in
      let election_matches () =
        let p0, p1, plain_events =
          untraced_and_traced (fun tracer -> Leader_election.run ?tracer g)
        in
        let o0, o1, outcome_events =
          untraced_and_traced (fun tracer -> Leader_election.run_outcome ?tracer g)
        in
        let matches (leader, stats) = function
          | Outcome.Degraded _ -> false
          | Outcome.Complete (r : Leader_election.report) ->
              r.Leader_election.leader = leader
              && r.Leader_election.dissenters = []
              && r.Leader_election.stats = stats
        in
        matches p0 o0 && matches p1 o1 && plain_events = outcome_events
      in
      let broadcast_matches () =
        let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
        let value = 1 + (seed mod 997) in
        let p0, p1, plain_events =
          untraced_and_traced (fun tracer -> Broadcast.run ?tracer g info ~value)
        in
        let o0, o1, outcome_events =
          untraced_and_traced (fun tracer ->
              Broadcast.run_outcome ~reliable:false ?tracer g info ~value)
        in
        let matches (values, stats) = function
          | Outcome.Degraded _ -> false
          | Outcome.Complete (r : Broadcast.report) ->
              r.Broadcast.values = Array.map Option.some values
              && r.Broadcast.unreached = []
              && r.Broadcast.stats = stats
              && r.Broadcast.retransmissions = 0
        in
        matches p0 o0 && matches p1 o1 && plain_events = outcome_events
      in
      construct_matches (Distributed.Randomized { repetitions = Distributed.default_repetitions g })
      && construct_matches Distributed.Deterministic
      && minimum_matches () && bfs_matches () && election_matches ()
      && broadcast_matches ())

(* --- Hardened JSON parser ------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let json_errors_carry_position () =
  (match Json.of_string "{\n  \"a\": 1,\n  \"b\": }" with
  | Ok _ -> Alcotest.fail "must reject"
  | Error msg -> check Alcotest.bool "reports line 3" true (contains ~sub:"line 3" msg))

let json_depth_is_bounded () =
  let deep = String.make 2000 '[' in
  (match Json.of_string deep with
  | Ok _ -> Alcotest.fail "must reject runaway nesting"
  | Error msg ->
      check Alcotest.bool "mentions nesting" true (contains ~sub:"nesting" msg));
  (match Json.of_string ~max_depth:3 "[[[[1]]]]" with
  | Ok _ -> Alcotest.fail "must respect max_depth"
  | Error _ -> ());
  match Json.of_string ~max_depth:4 "[[[[1]]]]" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* --- Properties ---------------------------------------------------------- *)

let random_plan rng ~n =
  let crashes =
    List.init (Rng.int rng 3) (fun _ ->
        { Fault.node = 1 + Rng.int rng (max 1 (n - 1)); round = 1 + Rng.int rng 10 })
  in
  {
    Fault.empty with
    Fault.seed = 1 + Rng.int rng 10_000;
    default =
      {
        Fault.reliable_edge with
        Fault.drop = float_of_int (Rng.int rng 30) /. 100.;
        duplicate = float_of_int (Rng.int rng 10) /. 100.;
        reorder = float_of_int (Rng.int rng 10) /. 100.;
      };
    crashes;
  }

let prop_reliable_broadcast_never_wrong =
  QCheck.Test.make ~name:"reliable broadcast: complete or truthfully degraded"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 4 20))
    (fun (seed, n) ->
      let n = max 4 n in
      (* the shrinker explores below the generator's range *)
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let rng = Rng.create (seed + 1) in
      let plan = random_plan rng ~n in
      let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
      let value = 123_456 in
      match Broadcast.run_outcome ~faults:(Fault.compile plan) g info ~value with
      | Outcome.Complete r ->
          r.Broadcast.unreached = []
          && Array.for_all (fun v -> v = Some value) r.Broadcast.values
      | Outcome.Degraded (r, d) ->
          (* Degradation must tell the truth: there is a concrete cause (a
             late crash can leave every node reached yet still bar a
             Complete claim), unreached = affected, and no node ever holds
             anything but the root's value. *)
          let has_cause =
            d.Outcome.crashed <> [] || d.Outcome.unresponsive <> []
            || d.Outcome.out_of_rounds || d.Outcome.affected <> []
          in
          has_cause
          && r.Broadcast.unreached = d.Outcome.affected
          && Array.for_all
               (function Some v -> v = value | None -> true)
               r.Broadcast.values
          && List.for_all (fun v -> r.Broadcast.values.(v) = None) r.Broadcast.unreached)

let prop_reliable_convergecast_validates =
  QCheck.Test.make ~name:"reliable convergecast: total always validates"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 4 20))
    (fun (seed, n) ->
      let n = max 4 n in
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let rng = Rng.create (seed + 2) in
      let plan = random_plan rng ~n in
      let info = Tree_info.of_tree g (Bfs.tree g ~root:0) in
      let values = Array.init n (fun v -> (v * 17) + 1) in
      match
        Convergecast.run_outcome ~faults:(Fault.compile plan) g info ~values
          ~combine:( + )
      with
      | Outcome.Complete r ->
          r.Convergecast.validated
          && r.Convergecast.total = Array.fold_left ( + ) 0 values
      | Outcome.Degraded (r, _) ->
          (* Never a silently wrong aggregate: whatever subset was included,
             the reported total is exactly its sum. *)
          r.Convergecast.validated
          && r.Convergecast.total
             = List.fold_left (fun acc v -> acc + values.(v)) 0 r.Convergecast.included)

let prop_fault_free_byte_identical =
  QCheck.Test.make ~name:"empty injector: byte-identical runs" ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 3 24))
    (fun (seed, n) ->
      let n = max 3 n in
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let _, stats0, events0 = record_run g in
      let _, stats1, events1 = record_run ~faults:(Fault.compile Fault.empty) g in
      stats0 = stats1 && events0 = events1)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reliable_broadcast_never_wrong;
      prop_reliable_convergecast_validates;
      prop_fault_free_byte_identical;
      prop_backoff_schedule_is_the_threshold;
      prop_clean_finish_is_quiesced;
      prop_planless_outcome_is_the_plain_run;
    ]

let suite =
  [
    case "plan: json roundtrip" `Quick plan_roundtrip;
    case "plan: validation" `Quick plan_validation;
    case "plan: partition_heavy severs the grid" `Quick
      partition_heavy_plan_severs_the_grid;
    case "reliable: dead link exactly at threshold" `Quick
      dead_link_exactly_at_threshold;
    case "reliable: linger guards against spurious death" `Quick
      linger_guards_against_spurious_death;
    case "simulator: empty injector invisible" `Quick empty_injector_is_invisible;
    case "simulator: injector deterministic" `Quick injector_is_deterministic;
    case "simulator: out-of-rounds partial state" `Quick out_of_rounds_keeps_partial_state;
    case "broadcast: total loss degrades" `Quick total_loss_degrades_honestly;
    case "broadcast: crash isolates subtree" `Quick crash_isolates_subtree;
    case "broadcast: ARQ rides out link-down" `Quick arq_rides_out_link_down;
    case "convergecast: crashed child excluded" `Quick convergecast_excludes_crashed_child;
    case "construct: fault-free complete" `Quick construct_outcome_faultfree_is_complete;
    case "construct: root crash degrades" `Quick construct_outcome_root_crash_degrades;
    case "partwise: minimum survives crash" `Quick minimum_outcome_survives_crash;
    case "partwise: a reused preparation changes no outcome" `Quick
      minimum_outcome_reuses_a_preparation;
    case "json: errors carry position" `Quick json_errors_carry_position;
    case "json: depth bounded" `Quick json_depth_is_bounded;
  ]
  @ props
