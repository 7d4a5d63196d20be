(* Differential equivalence of the production simulator core (Simulator)
   against the retained reference implementation (Simulator_ref), the
   oracle every expected value here comes from.

   The core must be observationally indistinguishable from the oracle:
   identical final states, statistics, trace event sequences and fault
   counters on the same graph / program / fault plan — fault-free, faulty,
   traced, untraced, finished and Out_of_rounds alike, at every domain
   count (the determinism contract of doc/parallelism.mld). The programs,
   graphs and plans here are qcheck-generated; the program family below
   is a deterministic "gossip" whose sends, sizes and halting rounds are
   all hash-derived from the node's accumulated view, so any divergence
   in delivery order or content snowballs into different states.

   Setting LCS_DOMAINS=<d> adds one more domain count to the sweep — CI
   uses it to run the whole tier under a second shard geometry. *)

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

(* --- the gossip program family ----------------------------------------- *)

let mix a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (((a lsr 7) + b) * 0x27D4EB2F) in
  h land 0x3FFFFFFF

type gstate = { acc : int; round : int; stop : int }

(* Every node gossips hash-derived payloads on a hash-chosen set of
   distinct ports (at most one message per port per round, each of at most
   [bw] words, so the bandwidth budget is respected by construction) and
   halts at a hash-chosen round in [1..10]. *)
let gossip_step ctx st ~inbox =
  let acc = List.fold_left (fun a (p, m) -> mix a (mix (p + 1) m)) st.acc inbox in
  let round = st.round + 1 in
  let deg = Array.length ctx.Simulator.neighbors in
  let outbox =
    if deg = 0 then []
    else
      let fanout = mix acc round mod (min deg 3 + 1) in
      let start = mix acc (round + 31) mod deg in
      List.init fanout (fun i -> ((start + i) mod deg, mix acc (i + 977)))
  in
  ({ acc; round; stop = st.stop }, outbox)

let gossip ~pseed ~bw =
  {
    Simulator.init =
      (fun ctx ->
        {
          acc = mix pseed ctx.Simulator.node;
          round = 0;
          stop = 1 + (mix pseed (ctx.Simulator.node + 13) mod 10);
        });
    on_round = Lists.step gossip_step;
    is_halted = (fun st -> st.round >= st.stop);
    wake = Simulator.always;
    msg_words = (fun m -> 1 + (m mod bw));
  }

(* --- the sleepy gossip family -------------------------------------------- *)

type sstate = { sacc : int; wake_at : int; stop : int; finished : bool }

(* Gossip with honest wake hints: a node acts only when mail arrives or
   its hash-chosen timer comes due, and a step before its wake round with
   an empty inbox returns the state untouched and sends nothing. Timers
   sleep up to [nap] rounds, a node may choose to listen only (its hint is
   then its halting round), and fanouts are often zero, so stretches pass
   with no node due and no message in flight — the rounds the core
   fast-forwards. Halting rounds lie in [1..horizon]; every hint is at
   most the halting round, so every node wakes to halt. *)
let sleepy ~pseed ~bw ~nap ~horizon =
  {
    Simulator.init =
      (fun ctx ->
        let v = ctx.Simulator.node in
        let stop = 1 + (mix pseed (v + 13) mod horizon) in
        {
          sacc = mix pseed v;
          wake_at = min stop (1 + (mix pseed (v + 7) mod nap));
          stop;
          finished = false;
        });
    on_round =
      Lists.step (fun ctx st ~inbox ->
        let round = Simulator.round ctx in
        if inbox = [] && round < st.wake_at then (st, [])
        else
          let acc =
            mix (List.fold_left (fun a (p, m) -> mix a (mix (p + 1) m)) st.sacc inbox) round
          in
          if round >= st.stop then ({ st with sacc = acc; finished = true }, [])
          else
            let deg = Array.length ctx.Simulator.neighbors in
            let outbox =
              if deg = 0 then []
              else
                let fanout = (mix acc 3 mod (min deg 3 + 2)) - 1 in
                let start = mix acc 31 mod deg in
                List.init (max 0 fanout) (fun i -> ((start + i) mod deg, mix acc (i + 977)))
            in
            let wake_at =
              if mix acc 57 mod 4 = 0 then st.stop
              else min st.stop (round + 1 + (mix acc 91 mod nap))
            in
            ({ st with sacc = acc; wake_at }, outbox));
    is_halted = (fun st -> st.finished);
    wake = (fun st -> st.wake_at);
    msg_words = (fun m -> 1 + (m mod bw));
  }

(* --- the declaring gossip family ------------------------------------------ *)

(* Gossip that declares its causes, so the cores' parents, parts and
   phases are compared too. Each step mixes the ids of its deliveries
   into the state (0 in an untraced run) and picks, by hash, one of:
   plain sends; plain sends under a step tag and parents (some deliveries'
   ids), set after the sends on odd rounds; sends declared one by one,
   with or without parents; or, at bandwidth 2 and up, two declared
   one-word sends on one port. *)
let declaring ~pseed ~bw =
  {
    Simulator.init =
      (fun ctx ->
        let v = ctx.Simulator.node in
        (mix pseed v, 0, 1 + (mix pseed (v + 13) mod 10)));
    on_round =
      (fun ctx (acc, round, stop) mb ->
        let acc = ref acc in
        for i = 0 to Simulator.deliveries mb - 1 do
          acc :=
            mix !acc
              (mix (Simulator.port mb i + 1) (Simulator.payload mb i + Simulator.cause mb i))
        done;
        let acc = !acc and round = round + 1 in
        let deg = Array.length ctx.Simulator.neighbors in
        let start = if deg = 0 then 0 else mix acc (round + 31) mod deg in
        let fanout = if deg = 0 then 0 else mix acc round mod (min deg 3 + 1) in
        let declare () =
          Simulator.tag mb ~part:(mix acc 5 mod 7) ~phase:(Printf.sprintf "step%d" (round mod 3));
          if mix acc 9 mod 2 = 0 then
            Simulator.parents mb
              (List.filter_map
                 (fun i -> if i mod 2 = 0 then Some (Simulator.cause mb i) else None)
                 (List.init (Simulator.deliveries mb) Fun.id))
        in
        let plain () =
          for i = 0 to fanout - 1 do
            Simulator.send mb ((start + i) mod deg) (mix acc (i + 977))
          done
        in
        (match mix acc 73 mod 4 with
        | 0 -> plain ()
        | 1 ->
            if round mod 2 = 0 then declare ();
            plain ();
            if round mod 2 = 1 then declare ()
        | 2 ->
            for i = 0 to fanout - 1 do
              let port = (start + i) mod deg and part = mix acc (i + 3) mod 5 in
              let parents =
                if i mod 2 = 0 || Simulator.deliveries mb = 0 then None
                else Some [ Simulator.cause mb (i mod Simulator.deliveries mb) ]
              in
              Simulator.emit mb port ?parents ~part ~phase:"emit" (mix acc (i + 977))
            done
        | _ ->
            if deg > 0 && bw >= 2 then begin
              Simulator.emit mb start ~part:1 ~phase:"first" (bw * mix acc 1);
              Simulator.emit mb start ~parents:[] ~part:2 ~phase:"second" (bw * mix acc 2)
            end
            else plain ());
        (acc, round, stop));
    is_halted = (fun (_, round, stop) -> round >= stop);
    wake = Simulator.always;
    msg_words = (fun m -> 1 + (m mod bw));
  }

(* --- generated fault plans --------------------------------------------- *)

let gen_plan seed ~n ~m =
  let rng = Rng.create (seed + 0x5EED) in
  let gen_edge_faults () =
    let maybe p f = if Rng.bernoulli rng p then f () else 0. in
    {
      Fault.drop = maybe 0.5 (fun () -> Rng.uniform01 rng *. 0.3);
      duplicate = maybe 0.4 (fun () -> Rng.uniform01 rng *. 0.3);
      reorder = maybe 0.4 (fun () -> Rng.uniform01 rng *. 0.3);
      delay = (if Rng.bernoulli rng 0.4 then Rng.int rng 3 else 0);
      down =
        (if Rng.bernoulli rng 0.3 then
           let lo = 1 + Rng.int rng 5 in
           [ (lo, lo + Rng.int rng 4) ]
         else []);
    }
  in
  let overrides =
    if m = 0 then []
    else
      List.init (Rng.int rng 3) (fun _ -> (Rng.int rng m, gen_edge_faults ()))
  in
  let crashes =
    List.init (Rng.int rng 3) (fun _ ->
        { Fault.node = Rng.int rng n; round = 1 + Rng.int rng 5 })
  in
  { Fault.seed; default = gen_edge_faults (); edges = overrides; crashes }

(* --- runners ------------------------------------------------------------ *)

(* The oracle, or the production core on [d] shards. *)
type core = Ref | Sim of int

let run_core core ?bandwidth ?max_rounds ?tracer ?faults g program =
  match core with
  | Ref -> Simulator_ref.run_outcome ?bandwidth ?max_rounds ?tracer ?faults g program
  | Sim d ->
      Simulator.run_outcome ~domains:d ?bandwidth ?max_rounds ?tracer ?faults g program

(* Run one core with a recorder attached and a fresh injector; return
   everything observable. *)
let observe core ?bandwidth ?max_rounds ?plan g program =
  let recorder = Trace.Recorder.create () in
  let faults = Option.map (fun p -> Fault.compile p) plan in
  let tracer = Trace.Recorder.tracer recorder in
  let result = run_core core ?bandwidth ?max_rounds ~tracer ?faults g program in
  (result, Trace.Recorder.events recorder, Option.map Fault.counts faults)

(* The same, with no tracer attached — the core takes a different (fully
   parallel) path for untraced fault-free runs, so the untraced
   observables need their own comparison. *)
let observe_untraced core ?bandwidth ?max_rounds ?plan g program =
  let faults = Option.map (fun p -> Fault.compile p) plan in
  let result = run_core core ?bandwidth ?max_rounds ?faults g program in
  (result, Option.map Fault.counts faults)

let same_result ra rb =
  match (ra, rb) with
  | Simulator.Finished (sa, ta), Simulator.Finished (sb, tb) -> sa = sb && ta = tb
  | Simulator.Out_of_rounds (sa, pa), Simulator.Out_of_rounds (sb, pb) ->
      sa = sb && pa = pb
  | _ -> false

let same_observation (ra, ea, ca) (rb, eb, cb) =
  same_result ra rb && ea = eb && ca = cb

let cores_agree ?bandwidth ?max_rounds ?plan g program =
  same_observation
    (observe (Sim 1) ?bandwidth ?max_rounds ?plan g program)
    (observe Ref ?bandwidth ?max_rounds ?plan g program)

(* Multi-shard domain counts the core is swept over; LCS_DOMAINS adds one. *)
let domain_counts =
  let base = [ 2; 3; 4 ] in
  match Sys.getenv_opt "LCS_DOMAINS" with
  | None -> base
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 && not (List.mem d base) -> base @ [ d ]
      | _ -> base)

(* The core at one shard and at every swept domain count must reproduce
   the oracle byte for byte: traced observables (events, ids, fault
   counters) AND the untraced run, which exercises the lock-free parallel
   fast path. *)
let sharded_agrees ?bandwidth ?max_rounds ?plan g program =
  let oracle = observe Ref ?bandwidth ?max_rounds ?plan g program in
  let oracle_untraced = observe_untraced Ref ?bandwidth ?max_rounds ?plan g program in
  List.for_all
    (fun d ->
      same_observation (observe (Sim d) ?bandwidth ?max_rounds ?plan g program) oracle
      &&
      let r, c = observe_untraced (Sim d) ?bandwidth ?max_rounds ?plan g program in
      let ro, co = oracle_untraced in
      same_result r ro && c = co)
    (1 :: domain_counts)

(* --- properties --------------------------------------------------------- *)

let diff_fault_free =
  QCheck.Test.make ~name:"CSR = reference (fault-free)" ~count:120
    QCheck.(triple (int_bound 100_000) (int_range 2 20) (int_bound 2))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bw = 1 + bw_sel in
      let program = gossip ~pseed:(mix seed 5) ~bw in
      cores_agree ~bandwidth:bw g program
      &&
      (* tracing must not perturb what it observes: an untraced one-shard
         run reports the same stats as the traced one *)
      match
        ( Simulator.run_outcome ~bandwidth:bw g program,
          observe (Sim 1) ~bandwidth:bw g program )
      with
      | Simulator.Finished (_, s1), (Simulator.Finished (_, s2), _, _) -> s1 = s2
      | _ -> false)

let diff_faulty =
  QCheck.Test.make ~name:"CSR = reference (fault plans)" ~count:120
    QCheck.(triple (int_bound 100_000) (int_range 2 18) (int_bound 1))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = gen_plan seed ~n ~m:(Graph.m g) in
      let bw = 1 + bw_sel in
      cores_agree ~bandwidth:bw ~plan g (gossip ~pseed:(mix seed 11) ~bw))

let diff_out_of_rounds =
  QCheck.Test.make ~name:"CSR = reference (Out_of_rounds)" ~count:40
    QCheck.(triple (int_bound 100_000) (int_range 2 14) QCheck.bool)
    (fun (seed, n, with_faults) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      (* A 2-round ceiling against stop rounds up to 10 forces partial
         outcomes; both cores must return identical Out_of_rounds
         payloads. *)
      cores_agree ~max_rounds:2 ?plan g (gossip ~pseed:(mix seed 17) ~bw:1))

(* --- sharded-core properties -------------------------------------------- *)

let diff_sharded_fault_free =
  QCheck.Test.make ~name:"sharded = reference (fault-free)" ~count:50
    QCheck.(triple (int_bound 100_000) (int_range 2 20) (int_bound 2))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bw = 1 + bw_sel in
      sharded_agrees ~bandwidth:bw g (gossip ~pseed:(mix seed 23) ~bw))

let diff_sharded_faulty =
  QCheck.Test.make ~name:"sharded = reference (fault plans)" ~count:50
    QCheck.(triple (int_bound 100_000) (int_range 2 18) (int_bound 1))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = gen_plan seed ~n ~m:(Graph.m g) in
      let bw = 1 + bw_sel in
      sharded_agrees ~bandwidth:bw ~plan g (gossip ~pseed:(mix seed 29) ~bw))

let diff_sharded_out_of_rounds =
  QCheck.Test.make ~name:"sharded = reference (Out_of_rounds)" ~count:20
    QCheck.(triple (int_bound 100_000) (int_range 2 14) QCheck.bool)
    (fun (seed, n, with_faults) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      sharded_agrees ~max_rounds:2 ?plan g (gossip ~pseed:(mix seed 37) ~bw:1))

(* Sleeping nodes and fast-forwarded rounds must be unobservable: the
   oracle steps every node every round (checking each hint) while the core
   skips, at every domain count, traced and untraced. *)
let diff_sleepy_fault_free =
  QCheck.Test.make ~name:"sharded = reference (sleepy gossip, fault-free)" ~count:60
    QCheck.(triple (int_bound 100_000) (int_range 2 20) (int_bound 2))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bw = 1 + bw_sel in
      sharded_agrees ~bandwidth:bw g (sleepy ~pseed:(mix seed 61) ~bw ~nap:12 ~horizon:40))

let diff_sleepy_faulty =
  QCheck.Test.make ~name:"sharded = reference (sleepy gossip, fault plans)" ~count:60
    QCheck.(triple (int_bound 100_000) (int_range 2 18) (int_bound 1))
    (fun (seed, n, bw_sel) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = gen_plan seed ~n ~m:(Graph.m g) in
      let bw = 1 + bw_sel in
      sharded_agrees ~bandwidth:bw ~plan g
        (sleepy ~pseed:(mix seed 67) ~bw ~nap:12 ~horizon:40))

let diff_sleepy_out_of_rounds =
  QCheck.Test.make ~name:"sharded = reference (sleepy gossip, Out_of_rounds)" ~count:40
    QCheck.(quad (int_bound 100_000) (int_range 2 14) QCheck.bool (int_range 1 50))
    (fun (seed, n, with_faults, max_rounds) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      (* Halting rounds up to 80 against a ceiling of at most 50: partial
         outcomes, often with the ceiling inside a skipped stretch. *)
      sharded_agrees ~max_rounds ?plan g
        (sleepy ~pseed:(mix seed 71) ~bw:1 ~nap:20 ~horizon:80))

(* Declared causes — step tags and parents, declared sends, two declared
   sends on one port — read the same parents, parts and phases on every
   core, fault-free and under fault plans. *)
let diff_declared =
  QCheck.Test.make ~name:"sharded = reference (declared causes)" ~count:60
    QCheck.(quad (int_bound 100_000) (int_range 2 18) (int_bound 2) QCheck.bool)
    (fun (seed, n, bw_sel, with_faults) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      let bw = 1 + bw_sel in
      sharded_agrees ~bandwidth:bw ?plan g (declaring ~pseed:(mix seed 79) ~bw))

(* The same program under [Reliable.wrap] and a generated fault plan, whose
   data frames carry the inner sends' declarations and whose inner
   deliveries read their frames' ids: the cores agree on every causal
   field, retransmissions and duplicates included. *)
let diff_declared_reliable =
  QCheck.Test.make ~name:"sharded = reference (ARQ causes)" ~count:30
    QCheck.(pair (int_bound 100_000) (int_range 2 12))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = gen_plan seed ~n ~m:(Graph.m g) in
      sharded_agrees ~bandwidth:2 ~plan g (Reliable.wrap (declaring ~pseed:(mix seed 83) ~bw:2)))

(* Bipartite construction whose every edge joins the low and the high half
   of the id range: under the core's contiguous shard assignment
   essentially all traffic crosses a shard boundary, stressing the
   cross-shard outbox plane rather than the shard-local common case. *)
let cross_shard_graph seed ~n =
  let rng = Rng.create seed in
  let half = n / 2 in
  let hi = n - half in
  let b = Builder.create ~n in
  (* An alternating low/high path 0, half, 1, half+1, ... keeps the graph
     connected using cut edges only. *)
  for i = 0 to half - 1 do
    Builder.add_edge b i (half + min i (hi - 1));
    if i + 1 < half then Builder.add_edge b (i + 1) (half + min i (hi - 1))
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < n && !attempts < 20 * n do
    incr attempts;
    let u = Rng.int rng half and w = half + Rng.int rng hi in
    if not (Builder.mem_edge b u w) then begin
      Builder.add_edge b u w;
      incr added
    end
  done;
  Builder.graph b

let diff_sharded_cross_shard =
  QCheck.Test.make ~name:"sharded = reference (all-cross-shard traffic)" ~count:40
    QCheck.(triple (int_bound 100_000) (int_range 4 20) QCheck.bool)
    (fun (seed, n, with_faults) ->
      let g = cross_shard_graph seed ~n in
      let plan = if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None in
      sharded_agrees ~bandwidth:2 ?plan g (gossip ~pseed:(mix seed 41) ~bw:2))

(* --- deterministic cases ------------------------------------------------ *)

(* The core rejects an over-budget send with the oracle's exception
   payload, at one domain and at two, through [send_fast] (untraced) and
   through [process_send] (traced, on one shard). *)
let bandwidth_parity () =
  let g = Generators.path 2 in
  let program =
    {
      Simulator.init = (fun _ -> false);
      on_round =
        Lists.step (fun ctx st ~inbox ->
          ignore inbox;
          if ctx.Simulator.node = 0 && not st then (true, [ (0, 1); (0, 2) ])
          else (true, []));
      is_halted = (fun st -> st);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  let catch run =
    try
      ignore (run g program);
      None
    with Simulator.Bandwidth_exceeded { node; port; round; words; limit } ->
      Some (node, port, round, words, limit)
  in
  let oracle = catch (fun g p -> Simulator_ref.run g p) in
  check Alcotest.bool "oracle raises" true (oracle <> None);
  List.iter
    (fun domains ->
      let untraced = catch (fun g p -> Simulator.run ~domains g p) in
      check Alcotest.bool
        (Printf.sprintf "raises (untraced), domains=%d" domains)
        true (untraced = oracle);
      let traced = catch (fun g p -> Simulator.run ~domains ~tracer:ignore g p) in
      check Alcotest.bool
        (Printf.sprintf "raises (traced), domains=%d" domains)
        true (traced = oracle))
    [ 1; 2 ]

(* An offense in one node's step — an exception escaping it, or a second
   word on a port with a budget of one — surfaces exactly as in the
   oracle's node-by-node execution: the same exception, after the same
   trace events and fault verdicts for the smaller nodes' sends of that
   round and the offender's sends before the offending one — at one
   shard and across shards, fault-free and lossy. *)
let step_exception_parity () =
  let g = Generators.path 8 in
  let program ~bad ~overload =
    {
      Simulator.init = (fun ctx -> (ctx.Simulator.node, 0));
      on_round =
        Lists.step (fun _ (id, r) ~inbox ->
          ignore inbox;
          let r = r + 1 in
          if id = bad && r = 2 then
            if overload then ((id, r), [ (0, r); (0, r) ]) else failwith "boom"
          else ((id, r), [ (0, r) ]));
      is_halted = (fun (_, r) -> r >= 4);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  let lossy =
    {
      Fault.seed = 5;
      default = { Fault.reliable_edge with drop = 0.3 };
      edges = [];
      crashes = [];
    }
  in
  let observe_raise core ?tracer ?plan p =
    let faults = Option.map (fun p -> Fault.compile p) plan in
    let raised =
      match run_core core ?tracer ?faults g p with
      | _ -> None
      | exception Failure m -> Some m
      | exception Simulator.Bandwidth_exceeded { node; port; round; words; limit } ->
          Some (Printf.sprintf "node %d port %d round %d: %d words > %d" node port round words limit)
    in
    (raised, Option.map Fault.counts faults)
  in
  let observe_traced core ?plan p =
    let recorder = Trace.Recorder.create () in
    let raised = observe_raise core ~tracer:(Trace.Recorder.tracer recorder) ?plan p in
    (raised, Trace.Recorder.events recorder)
  in
  List.iter
    (fun (bad, overload, offense) ->
      List.iter
        (fun (label, plan) ->
          let p = program ~bad ~overload in
          let oracle = observe_traced Ref ?plan p in
          check (Alcotest.option Alcotest.string) "oracle raises" (Some offense)
            (fst (fst oracle));
          let what = if overload then "overloads" else "raises" in
          List.iter
            (fun d ->
              check Alcotest.bool
                (Printf.sprintf "traced %s, node %d %s, domains=%d" label bad what d)
                true
                (observe_traced (Sim d) ?plan p = oracle);
              check Alcotest.bool
                (Printf.sprintf "untraced %s, node %d %s, domains=%d" label bad what d)
                true
                (observe_raise (Sim d) ?plan p = observe_raise Ref ?plan p))
            (1 :: domain_counts))
        [ ("fault-free", None); ("lossy", Some lossy) ])
    [
      (2, false, "boom");
      (5, false, "boom");
      (5, true, "node 5 port 0 round 2: 2 words > 1");
    ]

(* A crash purges the delayed deliveries already in flight toward the dead
   node: they surface as Drop events at the crash round and count as
   to_crashed, identically on the core and the oracle. *)
let crash_purges_delayed () =
  let g = Generators.path 3 in
  (* Node 1 pushes one word toward node 2 every round; all traffic takes 2
     extra rounds of latency. Node 2 dies at round 2, while the round-1
     send (arrival round 4) is still queued. *)
  let program =
    {
      Simulator.init = (fun ctx -> (ctx.Simulator.node, 0));
      on_round =
        Lists.step (fun ctx (id, r) ~inbox ->
          ignore inbox;
          let r = r + 1 in
          let outbox =
            if id = 1 && r <= 4 then
              (* port of node 1 leading to node 2 *)
              let port = ref (-1) in
              Array.iteri
                (fun p w -> if w = 2 then port := p)
                ctx.Simulator.neighbors;
              [ (!port, r) ]
            else []
          in
          ((id, r), outbox));
      is_halted = (fun (_, r) -> r >= 6);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  let plan =
    {
      Fault.seed = 3;
      default = { Fault.reliable_edge with delay = 2 };
      edges = [];
      crashes = [ { Fault.node = 2; round = 2 } ];
    }
  in
  let ((_, events, counts) as obs_a) = observe (Sim 1) ~plan g program in
  let obs_b = observe Ref ~plan g program in
  check Alcotest.bool "cores agree" true (same_observation obs_a obs_b);
  let purged =
    List.exists
      (function
        | Trace.Drop { round = 2; src = 1; dst = 2; _ } -> true
        | _ -> false)
      events
  in
  check Alcotest.bool "purge traced as Drop at crash round" true purged;
  match counts with
  | None -> Alcotest.fail "expected fault counters"
  | Some c ->
      (* Round-1 send purged at the crash + every later send to the dead
         node. *)
      check Alcotest.bool "to_crashed counts the purge" true (c.Fault.to_crashed >= 4)

(* The per-edge trace profile of a run is byte-identical (as serialized
   JSON) at --domains 1/2/4 to the profile the oracle feeds through
   [Trace.Profile.tracer] — fault-free and under a fault plan. *)
let profile_bytes_across_domains () =
  let g = random_connected_graph 4242 ~n:24 ~extra:12 in
  let program = gossip ~pseed:4711 ~bw:2 in
  let check_case name ?plan () =
    let profile_json run =
      let profile = Trace.Profile.create ~edges:(Graph.m g) () in
      let tracer = Trace.Profile.tracer profile in
      let faults = Option.map (fun p -> Fault.compile p) plan in
      ignore (run ~tracer faults);
      Json.to_string (Trace.Profile.to_json profile)
    in
    let oracle =
      profile_json (fun ~tracer faults ->
          Simulator_ref.run_outcome ~bandwidth:2 ~tracer ?faults g program)
    in
    List.iter
      (fun d ->
        check Alcotest.string (Printf.sprintf "%s profile, domains=%d" name d) oracle
          (profile_json (fun ~tracer faults ->
               Simulator.run_outcome ~domains:d ~bandwidth:2 ~tracer ?faults g program)))
      [ 1; 2; 4 ]
  in
  check_case "fault-free" ();
  check_case "faulty" ~plan:(gen_plan 4242 ~n:24 ~m:(Graph.m g)) ()

(* A profiled run on the core, as `lcs bcast` makes one: the congestion
   profile and, when [every] is given, the flight recorder, both folds of
   the run's event stream, teed into the run with the recorder after the
   profile it reads. Returns the result, the profile and the snapshots in
   order. *)
let profiled ~domains ?bandwidth ?max_rounds ?mode ?faults ?every g program =
  let profile = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
  let snaps = ref [] in
  let flight =
    match every with
    | None -> []
    | Some every ->
        [
          Trace.Flight.tracer ~every
            ~bounds:(Simulator.shard_bounds ~domains g)
            profile
            (fun s -> snaps := s :: !snaps);
        ]
  in
  let tracer = Trace.tee (Trace.Profile.tracer profile :: flight) in
  let result =
    Simulator.run_outcome ~domains ?bandwidth ?max_rounds ~tracer ?faults g program
  in
  (result, profile, List.rev !snaps)

let snapshot_vitals (s : Trace.Flight.snapshot) =
  Trace.Flight.(s.round, s.words, s.messages, s.halted, s.top)

(* The oracle's side of a flight recording: its profile's vital signs at
   every [every]-th [Round_end], and per round the deliveries its stream
   leaves pending for each shard of [bounds] at the barrier — the round's
   sends and duplicates that no [Delayed] event follows. The recorder
   subtracts a delay; this reads the event that comes next instead. *)
let oracle_flight ~every ~bounds profile =
  let snaps = ref [] and pending = Hashtbl.create 16 in
  let last = ref None in
  let shard v =
    let s = ref 0 in
    while v >= bounds.(!s + 1) do
      incr s
    done;
    !s
  in
  let settle () =
    match !last with
    | Some (round, dst) ->
        let q =
          match Hashtbl.find_opt pending round with
          | Some q -> q
          | None ->
              let q = Array.make (Array.length bounds - 1) 0 in
              Hashtbl.replace pending round q;
              q
        in
        q.(shard dst) <- q.(shard dst) + 1;
        last := None
    | None -> ()
  in
  let tracer ev =
    Trace.Profile.tracer profile ev;
    match ev with
    | Trace.Delayed _ -> last := None
    | Trace.Send { round; dst; _ } | Trace.Duplicate { round; dst; _ } ->
        settle ();
        last := Some (round, dst)
    | Trace.Round_end { round; _ } ->
        settle ();
        if round mod every = 0 then
          snaps := snapshot_vitals (Trace.Flight.of_profile ~round profile) :: !snaps
    | _ -> settle ()
  in
  let queues round =
    match Hashtbl.find_opt pending round with
    | Some q -> q
    | None -> Array.make (Array.length bounds - 1) 0
  in
  (tracer, (fun () -> List.rev !snaps), queues)

(* The profile and the flight recorder, folded from the core's event
   stream, must reproduce the oracle's exactly — byte-identical profile
   JSON, identical states, and snapshots whose vitals match the oracle's
   profile at the same rounds. Each snapshot carries one queue depth per
   shard, each the deliveries pending for that shard's nodes at the
   barrier — here the messages sent in the snapshot round. *)
let profile_and_flight_fold () =
  let g = random_connected_graph 777 ~n:32 ~extra:20 in
  let program = gossip ~pseed:97 ~bw:2 in
  let every = 2 in
  List.iter
    (fun d ->
      let label what = Printf.sprintf "%s, domains=%d" what d in
      let oracle_profile = Trace.Profile.create ~edges:(Graph.m g) () in
      let tracer, oracle_snaps, queues =
        oracle_flight ~every ~bounds:(Simulator.shard_bounds ~domains:d g) oracle_profile
      in
      let oracle_states, _ = Simulator_ref.run ~bandwidth:2 ~tracer g program in
      let result, profile, snaps = profiled ~domains:d ~bandwidth:2 ~every g program in
      (match result with
      | Simulator.Finished (states, _) ->
          check Alcotest.bool (label "states equal") true (states = oracle_states)
      | Simulator.Out_of_rounds _ -> Alcotest.fail "expected Finished");
      check Alcotest.string (label "profile bytes")
        (Json.to_string (Trace.Profile.to_json oracle_profile))
        (Json.to_string (Trace.Profile.to_json profile));
      check Alcotest.bool (label "flight recorder fired") true (oracle_snaps () <> []);
      check Alcotest.bool (label "flight vitals equal") true
        (List.map snapshot_vitals snaps = oracle_snaps ());
      List.iter
        (fun (s : Trace.Flight.snapshot) ->
          let r = s.Trace.Flight.round in
          let at what = label (Printf.sprintf "%s, round %d" what r) in
          check Alcotest.int (at "one queue per shard") d (Array.length s.Trace.Flight.queues);
          check Alcotest.(array int) (at "queues = pending deliveries") (queues r)
            s.Trace.Flight.queues)
        snaps)
    [ 1; 2; 4 ];
  (* A sketch's evictions depend on the order it is fed, so a Sketch-mode
     profile equals the oracle's stream-fed one — eviction tally included —
     only if it folds the same stream, at every domain count. *)
  let mode = Trace.Profile.Sketch 4 in
  let sketched = Trace.Profile.create ~mode ~edges:(Graph.m g) () in
  ignore (Simulator_ref.run ~bandwidth:2 ~tracer:(Trace.Profile.tracer sketched) g program);
  let sketched = Json.to_string (Trace.Profile.to_json sketched) in
  List.iter
    (fun d ->
      let _, profile, _ = profiled ~domains:d ~bandwidth:2 ~mode g program in
      check Alcotest.string
        (Printf.sprintf "sketched profile bytes, domains=%d" d)
        sketched
        (Json.to_string (Trace.Profile.to_json profile)))
    [ 1; 2; 4 ]

(* The flight recorder under a fault plan that drops, duplicates, delays
   and crashes: each snapshot has one queue per shard, vitals equal to the
   oracle's profile at that round, and per shard the deliveries the
   oracle's stream leaves pending at the barrier — sends and duplicates
   that no [Delayed] event follows, a crashed destination's traffic
   being a [Drop]. *)
let flight_under_faults () =
  let g = random_connected_graph 2718 ~n:24 ~extra:14 in
  let program = gossip ~pseed:1618 ~bw:2 in
  let every = 1 in
  let plan =
    {
      Fault.seed = 41;
      default = { Fault.reliable_edge with drop = 0.15; duplicate = 0.2; reorder = 0.2 };
      edges =
        [
          (0, { Fault.reliable_edge with delay = 2 });
          (3, { Fault.reliable_edge with delay = 1 });
        ];
      crashes = [ { Fault.node = 5; round = 2 }; { Fault.node = 17; round = 4 } ];
    }
  in
  List.iter
    (fun d ->
      let label what = Printf.sprintf "%s, domains=%d" what d in
      let bounds = Simulator.shard_bounds ~domains:d g in
      let oracle_profile = Trace.Profile.create ~edges:(Graph.m g) () in
      let recorder = Trace.Recorder.create () in
      let flight, oracle_snaps, queues = oracle_flight ~every ~bounds oracle_profile in
      ignore
        (Simulator_ref.run_outcome ~bandwidth:2
           ~tracer:(Trace.tee [ flight; Trace.Recorder.tracer recorder ])
           ~faults:(Fault.compile plan) g program);
      let events = Trace.Recorder.events recorder in
      List.iter
        (fun (kind, seen) ->
          check Alcotest.bool (label ("the plan fires: " ^ kind)) true (List.exists seen events))
        [
          ("drop", function Trace.Drop _ -> true | _ -> false);
          ("duplicate", function Trace.Duplicate _ -> true | _ -> false);
          ("delayed", function Trace.Delayed _ -> true | _ -> false);
          ("crash", function Trace.Crash _ -> true | _ -> false);
        ];
      let _, profile, snaps =
        profiled ~domains:d ~bandwidth:2 ~faults:(Fault.compile plan) ~every g program
      in
      check Alcotest.string (label "profile bytes")
        (Json.to_string (Trace.Profile.to_json oracle_profile))
        (Json.to_string (Trace.Profile.to_json profile));
      check Alcotest.bool (label "flight vitals") true
        (List.map snapshot_vitals snaps = oracle_snaps ());
      List.iter
        (fun (s : Trace.Flight.snapshot) ->
          let r = s.Trace.Flight.round in
          let at what = label (Printf.sprintf "%s, round %d" what r) in
          check Alcotest.int (at "one queue per shard") d (Array.length s.Trace.Flight.queues);
          check Alcotest.(array int) (at "queues = pending deliveries") (queues r)
            s.Trace.Flight.queues)
        snaps)
    (1 :: domain_counts)

(* Crash-at-round of a node whose pending delayed deliveries originate in
   a DIFFERENT shard: for each swept domain count, the sender sits just
   below the first shard boundary and the victim just above it, so the
   in-flight traffic the purge must find was buffered by a foreign
   domain. Observables must still match the serial oracle exactly, and
   the purge must surface as Drop events at the crash round. *)
let cross_shard_crash_purge () =
  let n = 8 in
  let g = Generators.path n in
  let program_from sender =
    {
      Simulator.init = (fun ctx -> (ctx.Simulator.node, 0));
      on_round =
        Lists.step (fun ctx (id, r) ~inbox ->
          ignore inbox;
          let r = r + 1 in
          let outbox =
            if id = sender && r <= 4 then
              let port = ref (-1) in
              Array.iteri
                (fun p w -> if w = sender + 1 then port := p)
                ctx.Simulator.neighbors;
              [ (!port, r) ]
            else []
          in
          ((id, r), outbox));
      is_halted = (fun (_, r) -> r >= 6);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  List.iter
    (fun d ->
      let bounds = Simulator.shard_bounds ~domains:d g in
      let boundary = bounds.(1) in
      check Alcotest.bool
        (Printf.sprintf "shard boundary interior, domains=%d" d)
        true
        (boundary > 0 && boundary < n);
      let sender = boundary - 1 in
      let program = program_from sender in
      let plan =
        {
          Fault.seed = 3;
          default = { Fault.reliable_edge with delay = 2 };
          edges = [];
          crashes = [ { Fault.node = sender + 1; round = 2 } ];
        }
      in
      let ((_, events, _) as obs_par) = observe (Sim d) ~plan g program in
      let obs_ref = observe Ref ~plan g program in
      check Alcotest.bool
        (Printf.sprintf "sharded = reference, domains=%d" d)
        true
        (same_observation obs_par obs_ref);
      let purged =
        List.exists
          (function
            | Trace.Drop { round = 2; src; dst; _ } ->
                src = sender && dst = sender + 1
            | _ -> false)
          events
      in
      check Alcotest.bool
        (Printf.sprintf "foreign-shard purge traced as Drop, domains=%d" d)
        true purged)
    domain_counts

(* --- sleeping nodes and skipped rounds ---------------------------------- *)

type nap_state = { me : int; seen : int; fired : int; done_ : bool }

(* Every node sleeps through long stretches: three timers per node (rounds
   4-6, 22-23 and 52) each send one word on port 0, a delivery is only
   absorbed, and every node halts at round 64. Rounds 8-21, 25-51 and
   54-63 have no node due and nothing in flight. *)
let napping =
  let stop = 64 in
  let wake_of st =
    match st.fired with
    | 0 -> 4 + (st.me mod 3)
    | 1 -> 22 + (st.me mod 2)
    | 2 -> 52
    | _ -> stop
  in
  {
    Simulator.init = (fun ctx -> { me = ctx.Simulator.node; seen = 0; fired = 0; done_ = false });
    on_round =
      Lists.step (fun ctx st ~inbox ->
        let round = Simulator.round ctx in
        if inbox = [] && round < wake_of st then (st, [])
        else
          let seen = List.fold_left (fun a (p, m) -> mix a (mix p m)) st.seen inbox in
          if round >= stop then ({ st with seen; done_ = true }, [])
          else if round >= wake_of st then
            ( { st with seen; fired = st.fired + 1 },
              if Array.length ctx.Simulator.neighbors = 0 then [] else [ (0, mix st.me round) ] )
          else ({ st with seen }, []));
    is_halted = (fun st -> st.done_);
    wake = wake_of;
    msg_words = (fun _ -> 1);
  }

(* A ceiling inside a skipped stretch: the traced run (events and
   Exact-mode profile bytes), the untraced run, and a profiled run with
   a flight recorder must all reproduce the oracle — the partial payload
   included — at every domain count. The finished run's profile and
   snapshots must match too, and the collector must show the skipping:
   far fewer activations than live node-rounds, and fewer committed
   rounds than simulated ones. *)
let skipped_rounds_observed () =
  let g = Generators.grid ~rows:4 ~cols:5 in
  let n = Graph.n g in
  let ceiling = 40 and every = 5 in
  let traced run =
    let recorder = Trace.Recorder.create () in
    let profile = Trace.Profile.create ~mode:Trace.Profile.Exact ~edges:(Graph.m g) () in
    let tracer = Trace.tee [ Trace.Recorder.tracer recorder; Trace.Profile.tracer profile ] in
    let result = run ~tracer in
    (result, Trace.Recorder.events recorder, Json.to_string (Trace.Profile.to_json profile))
  in
  let oracle_result, oracle_events, oracle_profile =
    traced (fun ~tracer -> Simulator_ref.run_outcome ~max_rounds:ceiling ~tracer g napping)
  in
  (match oracle_result with
  | Simulator.Out_of_rounds (_, p) ->
      check Alcotest.int "ceiling reached" ceiling p.Simulator.partial_stats.Simulator.rounds
  | Simulator.Finished _ -> Alcotest.fail "expected Out_of_rounds");
  check Alcotest.bool "skipped rounds still traced" true
    (List.exists (function Trace.Round_start { round = 30; _ } -> true | _ -> false) oracle_events);
  List.iter
    (fun d ->
      let label what = Printf.sprintf "%s, domains=%d" what d in
      let r, e, p =
        traced (fun ~tracer ->
            Simulator.run_outcome ~domains:d ~max_rounds:ceiling ~tracer g napping)
      in
      check Alcotest.bool (label "traced partial payload") true (same_result r oracle_result);
      check Alcotest.bool (label "events") true (e = oracle_events);
      check Alcotest.string (label "profile bytes") oracle_profile p;
      check Alcotest.bool (label "untraced partial payload") true
        (same_result (Simulator.run_outcome ~domains:d ~max_rounds:ceiling g napping) oracle_result);
      (* The profile and flight folds, capped and finished: the oracle's
         profile bytes, snapshot vitals and pending deliveries, skipped
         rounds included. *)
      let folds_agree ?max_rounds what =
        let label what' = label (Printf.sprintf "%s (%s)" what' what) in
        let oracle_profile =
          Trace.Profile.create ~mode:Trace.Profile.Exact ~edges:(Graph.m g) ()
        in
        let tracer, oracle_snaps, queues =
          oracle_flight ~every ~bounds:(Simulator.shard_bounds ~domains:d g) oracle_profile
        in
        ignore (Simulator_ref.run_outcome ?max_rounds ~tracer g napping);
        let result, profile, snaps =
          profiled ~domains:d ?max_rounds ~mode:Trace.Profile.Exact ~every g napping
        in
        check Alcotest.string (label "profile bytes")
          (Json.to_string (Trace.Profile.to_json oracle_profile))
          (Json.to_string (Trace.Profile.to_json profile));
        check Alcotest.bool (label "flight vitals") true
          (List.map snapshot_vitals snaps = oracle_snaps ());
        List.iter
          (fun (s : Trace.Flight.snapshot) ->
            check Alcotest.int (label "one queue per shard") d (Array.length s.Trace.Flight.queues);
            check Alcotest.(array int) (label "queues = pending deliveries")
              (queues s.Trace.Flight.round) s.Trace.Flight.queues)
          snaps;
        result
      in
      (match folds_agree ~max_rounds:ceiling "Out_of_rounds" with
      | Simulator.Out_of_rounds (_, p) ->
          check Alcotest.int (label "profiled run stops at the ceiling") ceiling
            p.Simulator.partial_stats.Simulator.rounds
      | Simulator.Finished _ -> Alcotest.fail "expected Out_of_rounds");
      (match folds_agree "finished" with
      | Simulator.Finished _ -> ()
      | Simulator.Out_of_rounds _ -> Alcotest.fail "expected Finished");
      let pp = Par_profile.create () in
      let _, stats = Simulator.run ~domains:d ~par_profile:pp g napping in
      let acts =
        Array.fold_left
          (fun a (t : Par_profile.totals) -> a + t.Par_profile.activations)
          0 (Par_profile.totals pp)
      in
      check Alcotest.int (label "rounds") 64 stats.Simulator.rounds;
      check Alcotest.bool (label "activations far below live node-rounds") true
        (acts < n * stats.Simulator.rounds / 4);
      check Alcotest.bool (label "idle rounds not committed") true
        (Par_profile.rounds pp < stats.Simulator.rounds))
    (1 :: domain_counts)

(* A hint that lies is caught by the oracle, which steps every node every
   round: node 0 claims to wait for mail yet sends on a timer, and another
   program's nodes halt while asleep. The core, which trusts hints, never
   steps such nodes — which is why the oracle must check. *)
let dishonest_hint_rejected () =
  let g = Generators.path 3 in
  let sends_asleep =
    {
      Simulator.init = (fun _ -> 0);
      on_round =
        Lists.step (fun ctx st ~inbox:_ ->
          if ctx.Simulator.node = 0 && Simulator.round ctx = 2 then (st + 1, [ (0, 7) ])
          else (st, []));
      is_halted = (fun st -> st > 5);
      wake = (fun _ -> max_int);
      msg_words = (fun _ -> 1);
    }
  in
  let halts_asleep =
    {
      Simulator.init = (fun _ -> false);
      on_round = Lists.step (fun ctx _ ~inbox:_ -> (Simulator.round ctx >= 3, []));
      is_halted = Fun.id;
      wake = (fun _ -> max_int);
      msg_words = (fun _ -> 1);
    }
  in
  let raises p =
    match Simulator_ref.run_outcome ~max_rounds:10 g p with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "oracle rejects a send while asleep" true (raises sends_asleep);
  check Alcotest.bool "oracle rejects a halt while asleep" true (raises halts_asleep);
  match Simulator.run_outcome ~max_rounds:10 g sends_asleep with
  | Simulator.Out_of_rounds (_, p) ->
      check Alcotest.int "core skipped to the ceiling" 10
        p.Simulator.partial_stats.Simulator.rounds;
      check Alcotest.int "core never stepped the liar" 0
        p.Simulator.partial_stats.Simulator.messages
  | Simulator.Finished _ -> Alcotest.fail "expected Out_of_rounds"

type snooze_state = { role : int; timer : int; acc : int; woke : int; gone : bool }

(* A timed hint pre-empted by mail. On a 16-node path, node [v] plays
   role [v mod 4]. A sleeper (1) sets its timer for round 10, but its
   right neighbour, a chatter (2), snoozes it in round 3, so the sleeper
   re-arms for round 20 and the earliest timed hint its shard has seen,
   10, goes stale. The chatter also sends to its right neighbour, a sink
   (3), in every round up to 25, so no round is skipped: round 10 runs,
   every node of the shard is visited, and none may step early. In round
   20 the sleeper wakes, greets its left neighbour, a listener (0), and
   halts; the listener halts on the greeting, and the sink at its timer,
   round 26. *)
let snoozing =
  let neighbour ctx w =
    let port = ref (-1) in
    Array.iteri (fun p u -> if u = w then port := p) ctx.Simulator.neighbors;
    !port
  in
  let wake st =
    match st.role with
    | 1 -> st.timer
    | 2 -> Simulator.every_round
    | 3 -> 26
    | _ -> max_int
  in
  {
    Simulator.init =
      (fun ctx ->
        let role = ctx.Simulator.node mod 4 in
        { role; timer = 10; acc = ctx.Simulator.node; woke = 0; gone = false });
    on_round =
      Lists.step (fun ctx st ~inbox ->
        let round = Simulator.round ctx and v = ctx.Simulator.node in
        if inbox = [] && round < wake st then (st, [])
        else
          let st = { st with acc = List.fold_left (fun a (p, m) -> mix a (mix p m)) st.acc inbox } in
          match st.role with
          | 0 -> ({ st with gone = true }, [])
          | 1 when inbox <> [] -> ({ st with timer = 20 }, [])
          | 1 -> ({ st with woke = round; gone = true }, [ (neighbour ctx (v - 1), st.acc) ])
          | 2 ->
              let snooze = if round = 3 then [ (neighbour ctx (v - 1), round) ] else [] in
              ({ st with gone = round >= 25 }, (neighbour ctx (v + 1), round) :: snooze)
          | _ -> ({ st with gone = round >= 26 }, []));
    is_halted = (fun st -> st.gone);
    wake;
    msg_words = (fun _ -> 1);
  }

let stale_timer_bound () =
  let g = Generators.path 16 in
  let states, stats = Simulator_ref.run g snoozing in
  check Alcotest.int "the sinks end the run" 26 stats.Simulator.rounds;
  Array.iter
    (fun st -> if st.role = 1 then check Alcotest.int "a sleeper wakes in round 20" 20 st.woke)
    states;
  check Alcotest.bool "sharded = reference, traced and untraced" true
    (sharded_agrees g snoozing)

(* --- parallel-execution profiler --------------------------------------- *)

(* Attaching a Par_profile collector must be invisible to every simulator
   observable. At one domain (the single-shard baseline timeline) and at
   each swept domain count, fault-free and under a fault plan, traced and
   untraced: identical results, identical trace event sequences,
   byte-identical Exact-mode congestion profiles, identical fault
   counters. The collector sees the run's shards: one for a traced or
   faulty run at any domain count, the requested count for an untraced
   one. *)
let par_profile_transparent () =
  let g = random_connected_graph 1312 ~n:28 ~extra:16 in
  let program = gossip ~pseed:2029 ~bw:2 in
  let plan = gen_plan 1312 ~n:28 ~m:(Graph.m g) in
  let traced ?plan ~pp d =
    let recorder = Trace.Recorder.create () in
    let profile = Trace.Profile.create ~edges:(Graph.m g) () in
    let tracer =
      Trace.tee [ Trace.Recorder.tracer recorder; Trace.Profile.tracer profile ]
    in
    let faults = Option.map (fun p -> Fault.compile p) plan in
    let par_profile = if pp then Some (Par_profile.create ()) else None in
    let result =
      Simulator.run_outcome ~domains:d ~bandwidth:2 ~tracer ?faults ?par_profile g
        program
    in
    ( result,
      Trace.Recorder.events recorder,
      Json.to_string (Trace.Profile.to_json profile),
      Option.map Fault.counts faults,
      par_profile )
  in
  let untraced ~pp d =
    let par_profile = if pp then Some (Par_profile.create ()) else None in
    (Simulator.run_outcome ~domains:d ~bandwidth:2 ?par_profile g program, par_profile)
  in
  List.iter
    (fun d ->
      List.iter
        (fun (label, plan) ->
          let r0, e0, p0, c0, _ = traced ?plan ~pp:false d in
          let r1, e1, p1, c1, pp = traced ?plan ~pp:true d in
          check Alcotest.bool
            (Printf.sprintf "traced %s observables, domains=%d" label d)
            true
            (same_result r0 r1 && e0 = e1 && c0 = c1);
          check Alcotest.string
            (Printf.sprintf "traced %s profile bytes, domains=%d" label d)
            p0 p1;
          (match pp with
          | None -> Alcotest.fail "collector missing"
          | Some pp ->
              check Alcotest.int
                (Printf.sprintf "collector saw 1 shard (%s, domains=%d)" label d)
                1 (Par_profile.domains pp);
              check Alcotest.bool
                (Printf.sprintf "collector recorded rounds (%s, domains=%d)"
                   label d)
                true
                (Par_profile.rounds pp > 0)))
        [ ("fault-free", None); ("faulty", Some plan) ];
      let r0, _ = untraced ~pp:false d in
      let r1, pp = untraced ~pp:true d in
      check Alcotest.bool
        (Printf.sprintf "untraced fast-path result, domains=%d" d)
        true (same_result r0 r1);
      let shards = Array.length (Simulator.shard_bounds ~domains:d g) - 1 in
      check Alcotest.int
        (Printf.sprintf "collector saw %d shards (untraced)" shards)
        shards
        (match pp with Some pp -> Par_profile.domains pp | None -> 0))
    (1 :: domain_counts)

(* A collector that records runs of different widths books each round
   over the shards of the run that made it. After a gossip run on a 12x12
   grid at two domains, a run at one domain and a traced run at two
   (which takes one shard) each leave shard 1's totals as they were, and
   each of their rounds reads an imbalance of exactly 1. *)
let par_profile_rows_per_run () =
  let g = Generators.grid ~rows:12 ~cols:12 in
  let program = gossip ~pseed:12 ~bw:1 in
  let pp = Par_profile.create () in
  ignore (Simulator.run ~domains:2 ~par_profile:pp g program);
  check Alcotest.int "the first run had two shards" 2 (Par_profile.domains pp);
  List.iter
    (fun (label, run) ->
      let before = Par_profile.rounds pp and shard1 = (Par_profile.totals pp).(1) in
      ignore (run ());
      let added = Par_profile.rounds pp - before in
      check Alcotest.bool (label ^ ": rounds recorded") true (added > 0);
      Array.iteri
        (fun i x ->
          check Alcotest.bool
            (Printf.sprintf "%s: round %d of %d reads imbalance 1 (%g)" label (i + 1) added x)
            true (x = 1.0))
        (Array.sub (Par_profile.round_imbalance pp) before added);
      check Alcotest.bool (label ^ ": shard 1's totals unchanged") true
        ((Par_profile.totals pp).(1) = shard1);
      check Alcotest.int (label ^ ": the widest run's shards") 2 (Par_profile.domains pp))
    [
      ("one domain", fun () -> Simulator.run ~domains:1 ~par_profile:pp g program);
      ( "traced at two domains",
        fun () -> Simulator.run ~domains:2 ~tracer:ignore ~par_profile:pp g program );
    ]

(* The traffic matrix is an exact decomposition of the run's delivered
   traffic: cell (s, t) counts messages whose source lives in shard s and
   destination in shard t, recorded at the simulator's own counting
   points — so the matrix total equals Simulator.stats messages/words,
   and each row sum equals the per-domain totals row. Holds fault-free
   and under fault plans (duplicates count per delivery, drops and
   to-crashed sends not at all), at every domain count. *)
let traffic_matrix_reconciles =
  QCheck.Test.make ~name:"traffic matrix sums = simulator stats" ~count:60
    QCheck.(
      quad (int_bound 100_000) (int_range 2 20) (int_bound 2) QCheck.bool)
    (fun (seed, n, bw_sel, with_faults) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let bw = 1 + bw_sel in
      let program = gossip ~pseed:(mix seed 53) ~bw in
      let plan =
        if with_faults then Some (gen_plan seed ~n ~m:(Graph.m g)) else None
      in
      List.for_all
        (fun d ->
          let pp = Par_profile.create () in
          let faults = Option.map (fun p -> Fault.compile p) plan in
          let stats =
            match
              Simulator.run_outcome ~domains:d ~bandwidth:bw ?faults ~par_profile:pp g
                program
            with
            | Simulator.Finished (_, stats) -> stats
            | Simulator.Out_of_rounds _ -> assert false
          in
          let tm = Par_profile.traffic_messages pp in
          let tw = Par_profile.traffic_words pp in
          let sum m =
            Array.fold_left
              (fun acc row -> Array.fold_left ( + ) acc row)
              0 m
          in
          let totals = Par_profile.totals pp in
          sum tm = stats.Simulator.messages
          && sum tw = stats.Simulator.words
          && Array.for_all2
               (fun (t : Par_profile.totals) row ->
                 t.Par_profile.messages = Array.fold_left ( + ) 0 row)
               totals tm
          && Array.for_all2
               (fun (t : Par_profile.totals) row ->
                 t.Par_profile.words = Array.fold_left ( + ) 0 row)
               totals tw)
        domain_counts)

(* The shard-count clamp is one documented constant: [recommended] and
   [shard_bounds] agree on [max_domains]. *)
let clamp_unified () =
  check Alcotest.int "max_domains is the documented ceiling" 32 Simulator.max_domains;
  let r = Simulator.recommended () in
  check Alcotest.bool "recommended within [1, max_domains]" true
    (r >= 1 && r <= Simulator.max_domains);
  let g = Generators.grid ~rows:8 ~cols:8 in
  (* Requests beyond the ceiling clamp to it (n = 64 > 32 here, so the
     node count is not the binding constraint). *)
  let bounds = Simulator.shard_bounds ~domains:1000 g in
  check Alcotest.int "shard_bounds clamps to max_domains" Simulator.max_domains
    (Array.length bounds - 1);
  let tiny = Generators.path 3 in
  let tb = Simulator.shard_bounds ~domains:1000 tiny in
  check Alcotest.int "node count still binds below the ceiling" 3
    (Array.length tb - 1)

(* The cross-shard generator earns its name: at domains=2 the contiguous
   port-balanced split leaves every generated edge crossing the shard
   boundary. *)
let cross_shard_graph_is_cross () =
  let g = cross_shard_graph 7 ~n:16 in
  let bounds = Simulator.shard_bounds ~domains:2 g in
  let owner v = if v < bounds.(1) then 0 else 1 in
  let crossing = ref 0 and total = ref 0 in
  Graph.iter_edges g (fun _ u v ->
      incr total;
      if owner u <> owner v then incr crossing);
  check Alcotest.bool "boundary interior" true (bounds.(1) > 0 && bounds.(1) < 16);
  check Alcotest.bool "most edges cross the shard boundary" true
    (!total > 0 && !crossing * 2 > !total)

(* --- prepared hosts -------------------------------------------------------- *)

(* One run's every observable — the result or the exception it raised,
   the trace events so far and the fault counters — on [host], or on a
   host of its own when absent. *)
let on_host ?host ~domains ~traced ?plan g program =
  let faults = Option.map (fun p -> Fault.compile p) plan in
  let recorder = Trace.Recorder.create () in
  let tracer = if traced then Some (Trace.Recorder.tracer recorder) else None in
  let result =
    match Simulator.run_outcome ~domains ~bandwidth:2 ?host ?tracer ?faults g program with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  (result, Trace.Recorder.events recorder, Option.map Fault.counts faults)

(* Gossip whose node [bad] breaks the run in round 3, leaving words in
   flight: it raises, or it overloads its port 0 (three 2-word messages
   at bandwidth 2). Every node lives to round 5, and [init] checks that
   the run's round cell starts at 0. *)
let breaking ~pseed ~bad ~overload =
  let base = gossip ~pseed ~bw:2 in
  {
    base with
    Simulator.init =
      (fun ctx ->
        if Simulator.round ctx <> 0 then failwith "stale round";
        base.Simulator.init ctx);
    on_round =
      Lists.step (fun ctx st ~inbox ->
        let st, out = gossip_step ctx st ~inbox in
        if ctx.Simulator.node = bad && Simulator.round ctx = 3 then
          if overload then (st, [ (0, 1); (0, 3); (0, 5) ]) else failwith "boom"
        else (st, out));
    is_halted = (fun st -> st.round >= 5);
  }

(* Domain counts of the host sweep: one, two and LCS_DOMAINS. *)
let host_domains =
  match Sys.getenv_opt "LCS_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d > 2 -> [ 1; 2; d ]
      | _ -> [ 1; 2 ])
  | None -> [ 1; 2 ]

(* Runs back to back on one prepared host — two program families, each
   untraced and traced, fault-free and under a fault plan, at every swept
   domain count, with a run that raises after each pair — must each equal
   the same run on a fresh host: states, stats, events with their causal
   ids, fault counters, and the exception of a run that raises. *)
let host_reuse_matches_fresh =
  QCheck.Test.make ~name:"prepared host = fresh host, run after run" ~count:25
    QCheck.(pair (int_bound 100_000) (int_range 2 16))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let plan = gen_plan seed ~n ~m:(Graph.m g) in
      let host = Simulator.prepare g in
      let same ~domains ~traced ?plan program =
        on_host ~host ~domains ~traced ?plan g program
        = on_host ~domains ~traced ?plan g program
      in
      List.for_all
        (fun domains ->
          List.for_all
            (fun (traced, plan) ->
              same ~domains ~traced ?plan (gossip ~pseed:(mix seed 3) ~bw:2)
              && same ~domains ~traced ?plan
                   (sleepy ~pseed:(mix seed 5) ~bw:2 ~nap:8 ~horizon:30)
              && same ~domains ~traced ?plan
                   (breaking ~pseed:(mix seed 7) ~bad:(seed mod n)
                      ~overload:(seed mod 2 = 0)))
            [ (false, None); (true, None); (false, Some plan); (true, Some plan) ])
        host_domains)

(* A host serves the graph it was prepared for, one run at a time. *)
let host_misuse_rejected () =
  let g = Generators.path 4 in
  let host = Simulator.prepare g in
  Alcotest.check_raises "another graph"
    (Invalid_argument "Simulator.run: host prepared for another graph") (fun () ->
      ignore (Simulator.run ~host (Generators.path 4) (gossip ~pseed:1 ~bw:1)));
  let nested =
    {
      (gossip ~pseed:2 ~bw:1) with
      Simulator.on_round =
        Lists.step (fun _ st ~inbox:_ ->
          ignore (Simulator.run ~host g (gossip ~pseed:3 ~bw:1));
          (st, []));
    }
  in
  Alcotest.check_raises "a run inside a run"
    (Invalid_argument "Simulator.run: host is already running") (fun () ->
      ignore (Simulator.run ~host g nested));
  check Alcotest.bool "usable after the refusal" true
    (on_host ~host ~domains:1 ~traced:true g (gossip ~pseed:4 ~bw:1)
    = on_host ~domains:1 ~traced:true g (gossip ~pseed:4 ~bw:1))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      diff_fault_free;
      diff_faulty;
      diff_out_of_rounds;
      diff_sharded_fault_free;
      diff_sharded_faulty;
      diff_sharded_out_of_rounds;
      diff_sharded_cross_shard;
      diff_sleepy_fault_free;
      diff_sleepy_faulty;
      diff_sleepy_out_of_rounds;
      diff_declared;
      diff_declared_reliable;
      traffic_matrix_reconciles;
      host_reuse_matches_fresh;
    ]

let suite =
  [
    case "bandwidth exception parity" `Quick bandwidth_parity;
    case "step exception parity" `Quick step_exception_parity;
    case "crash purges delayed deliveries" `Quick crash_purges_delayed;
    case "profile bytes identical across domains" `Quick profile_bytes_across_domains;
    case "profile and flight folds = the oracle" `Quick profile_and_flight_fold;
    case "flight queues under faults" `Quick flight_under_faults;
    case "cross-shard crash purges foreign deliveries" `Quick cross_shard_crash_purge;
    case "par_profile attach is observable-transparent" `Quick par_profile_transparent;
    case "par_profile books a round over its run's shards" `Quick par_profile_rows_per_run;
    case "domain-count clamp is one constant" `Quick clamp_unified;
    case "cross-shard generator sanity" `Quick cross_shard_graph_is_cross;
    case "skipped rounds are observed like stepped ones" `Quick skipped_rounds_observed;
    case "a dishonest wake hint is rejected" `Quick dishonest_hint_rejected;
    case "a snoozed timer leaves a stale bound" `Quick stale_timer_bound;
    case "a host serves one graph, one run at a time" `Quick host_misuse_rejected;
  ]
  @ props
