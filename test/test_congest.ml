(* Tests for the CONGEST simulator and its basic tree protocols. *)

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

(* --- Simulator --------------------------------------------------------- *)

(* A two-node ping-pong: node 0 sends a counter, node 1 echoes it back
   incremented; both halt when it reaches a target. *)
type ping_state = { value : int; done_ : bool }

let ping_pong_program target =
  {
    Simulator.init =
      (fun ctx -> { value = (if ctx.Simulator.node = 0 then 0 else -1); done_ = false });
    on_round =
      Lists.step (fun ctx st ~inbox ->
        let received = List.fold_left (fun _ (_p, v) -> Some v) None inbox in
        match received with
        | Some v when v >= target ->
            (* Echo once more so the peer can halt too, then halt. *)
            ({ value = v; done_ = true }, if v = target then [ (0, v + 1) ] else [])
        | Some v -> ({ st with value = v }, [ (0, v + 1) ])
        | None ->
            if ctx.Simulator.node = 0 && st.value = 0 then ({ st with value = 1 }, [ (0, 1) ])
            else (st, []))
    ;
    is_halted = (fun st -> st.done_);
    wake = (fun _ -> Simulator.every_round);
    msg_words = (fun _ -> 1);
  }

let simulator_ping_pong () =
  let g = Generators.path 2 in
  let states, stats = Simulator.run g (ping_pong_program 10) in
  check Alcotest.bool "both halted" true
    (Array.for_all (fun st -> st.done_) states);
  check Alcotest.bool "took about target rounds" true
    (stats.Simulator.rounds >= 10 && stats.Simulator.rounds <= 13);
  check Alcotest.bool "messages bounded" true (stats.Simulator.messages <= 12)

let simulator_enforces_bandwidth () =
  (* A node that sends two words on one port in one round must be caught. *)
  let g = Generators.path 2 in
  let program =
    {
      Simulator.init = (fun _ -> false);
      on_round =
        Lists.step (fun ctx st ~inbox ->
          ignore inbox;
          if ctx.Simulator.node = 0 && not st then (true, [ (0, 1); (0, 2) ])
          else (true, []))
      ;
      is_halted = (fun st -> st);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  check Alcotest.bool "raises" true
    (try
       ignore (Simulator.run g program);
       false
     with Simulator.Bandwidth_exceeded e -> e.node = 0 && e.words = 2)

let simulator_allows_wider_bandwidth () =
  let g = Generators.path 2 in
  let program =
    {
      Simulator.init = (fun _ -> false);
      on_round =
        Lists.step (fun ctx st ~inbox ->
          ignore inbox;
          if ctx.Simulator.node = 0 && not st then (true, [ (0, 1); (0, 2) ])
          else (true, []))
      ;
      is_halted = (fun st -> st);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  let _states, stats = Simulator.run ~bandwidth:2 g program in
  check Alcotest.int "both words delivered" 2 stats.Simulator.words

let simulator_rejects_oversized_message () =
  (* A single 2-word message cannot fit bandwidth 1. *)
  let g = Generators.path 2 in
  let program =
    {
      Simulator.init = (fun _ -> false);
      on_round =
        Lists.step (fun ctx st ~inbox ->
          ignore inbox;
          if ctx.Simulator.node = 0 && not st then (true, [ (0, "two words") ])
          else (true, []))
      ;
      is_halted = (fun st -> st);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 2);
    }
  in
  check Alcotest.bool "oversized message caught" true
    (try
       ignore (Simulator.run g program);
       false
     with Simulator.Bandwidth_exceeded e -> e.words = 2 && e.limit = 1)

let simulator_round_limit () =
  (* Nodes that never halt trip the limit. *)
  let g = Generators.path 2 in
  let program =
    {
      Simulator.init = (fun _ -> ());
      on_round = Lists.step (fun _ () ~inbox -> ignore inbox; ((), []));
      is_halted = (fun () -> false);
      wake = (fun _ -> Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  check Alcotest.bool "round limit raised" true
    (try
       ignore (Simulator.run ~max_rounds:50 g program);
       false
     with Simulator.Round_limit 50 -> true)

(* Every node sends its step count on every port for [rounds - 1] rounds
   and checks that each delivery carries the count its own state holds:
   int state, int payloads, every node due every round. *)
let chatter ~rounds =
  {
    Simulator.init = (fun _ -> 0);
    on_round =
      (fun ctx st mb ->
        for i = 0 to Simulator.deliveries mb - 1 do
          if Simulator.payload mb i <> st then failwith "chatter: stale payload"
        done;
        let st = st + 1 in
        if st < rounds then
          for p = 0 to Array.length ctx.Simulator.neighbors - 1 do
            Simulator.send mb p st
          done;
        st);
    is_halted = (fun st -> st >= rounds);
    wake = Simulator.always;
    msg_words = (fun _ -> 1);
  }

(* An untraced, fault-free run at one domain on a prepared host allocates
   nothing per message once its buffers have grown: the second run's
   minor words stay under one word per delivered message plus O(n + m)
   for the run's own arrays. A (port, payload) list costs at least 12
   words per message. *)
let simulator_message_plane_allocation () =
  let g = Generators.grid ~rows:16 ~cols:16 in
  let host = Simulator.prepare g in
  let program = chatter ~rounds:40 in
  ignore (Simulator.run ~host g program);
  let before = Gc.minor_words () in
  let _, stats = Simulator.run ~host g program in
  let words = Gc.minor_words () -. before in
  check Alcotest.int "messages" (39 * 2 * Graph.m g) stats.Simulator.messages;
  let bound = stats.Simulator.messages + (16 * (Graph.n g + Graph.m g)) in
  if words > float_of_int bound then
    Alcotest.failf "%.0f minor words for %d messages (bound %d)" words
      stats.Simulator.messages bound

(* --- Sync_bfs ----------------------------------------------------------- *)

let sync_bfs_path () =
  let g = Generators.path 8 in
  let tree, height, stats = Sync_bfs.run g ~root:0 in
  check Alcotest.int "height" 7 height;
  check Alcotest.int "tree height agrees" 7 (Rooted_tree.height tree);
  check Alcotest.bool "O(D) rounds" true (stats.Simulator.rounds <= 4 * 8 + 10)

let sync_bfs_star () =
  let g = Generators.star 20 in
  let tree, height, _stats = Sync_bfs.run g ~root:0 in
  check Alcotest.int "height" 1 height;
  check Alcotest.bool "all children of center" true
    (List.for_all (fun v -> Rooted_tree.parent tree v = 0) (List.init 19 (fun i -> i + 1)))

let sync_bfs_single_node () =
  let g = Graph.create ~n:1 [] in
  let _tree, height, _stats = Sync_bfs.run g ~root:0 in
  check Alcotest.int "height" 0 height

let sync_bfs_matches_bfs =
  QCheck.Test.make ~name:"distributed BFS depths = sequential BFS" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 2 60))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 2) in
      let tree, height, _ = Sync_bfs.run g ~root:0 in
      let dist = Bfs.distances g ~src:0 in
      height = Array.fold_left max 0 dist
      && Array.for_all (fun v -> Rooted_tree.depth tree v = dist.(v)) (Graph.vertices g))

let sync_bfs_message_complexity () =
  let g = Generators.grid ~rows:10 ~cols:10 in
  let _tree, _height, stats = Sync_bfs.run g ~root:0 in
  (* Join wave ~2 per edge + child/height/gheight ~3 per node. *)
  check Alcotest.bool "O(m) messages" true
    (stats.Simulator.messages <= (4 * Graph.m g) + (6 * Graph.n g))

(* --- Broadcast / Convergecast ------------------------------------------- *)

let broadcast_delivers () =
  let g = Generators.binary_tree ~depth:4 in
  let tree = Bfs.tree g ~root:0 in
  let info = Tree_info.of_tree g tree in
  let values, stats = Broadcast.run g info ~value:42 in
  check Alcotest.bool "everyone got it" true (Array.for_all (fun v -> v = 42) values);
  check Alcotest.bool "height+O(1) rounds" true
    (stats.Simulator.rounds <= Rooted_tree.height tree + 2)

let convergecast_sums () =
  let g = Generators.binary_tree ~depth:3 in
  let tree = Bfs.tree g ~root:0 in
  let info = Tree_info.of_tree g tree in
  let values = Array.init (Graph.n g) (fun v -> v) in
  let total, stats = Convergecast.run g info ~values ~combine:( + ) in
  check Alcotest.int "sum" (15 * 14 / 2) total;
  check Alcotest.bool "height+O(1) rounds" true
    (stats.Simulator.rounds <= Rooted_tree.height tree + 2)

let convergecast_min =
  QCheck.Test.make ~name:"convergecast computes min" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 2 50))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:3 in
      let tree = Bfs.tree g ~root:0 in
      let info = Tree_info.of_tree g tree in
      let rng = Rng.create (seed + 1) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let result, _ = Convergecast.run g info ~values ~combine:min in
      result = Array.fold_left min max_int values)

(* --- Leader_election ------------------------------------------------------ *)

let leader_election_elects_max () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let leader, stats = Leader_election.run ~diameter_bound:8 g in
  check Alcotest.int "max id" 24 leader;
  check Alcotest.bool "O(D) rounds" true (stats.Simulator.rounds <= 12)

let leader_election_on_random =
  QCheck.Test.make ~name:"leader election elects the max id" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 2 40))
    (fun (seed, n) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      fst (Leader_election.run g) = n - 1)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ sync_bfs_matches_bfs; convergecast_min; leader_election_on_random ]

(* --- activations ------------------------------------------------------- *)

(* The core steps a node only when it receives a message, sends one, or
   wakes for at most one timer or halt of its own per run, so the nodes it
   steps are at most 2·messages + 2n — against n × rounds live
   node-rounds when every node stepped every round. Checked through the
   Par_profile activation counts for sync BFS, part-wise aggregation and
   the Thm 1.5 detection wave, on a grid and a k-tree, at one and two
   domains. *)
let activations_bounded_by_messages () =
  let hosts =
    let grid =
      let g = Generators.grid ~rows:12 ~cols:12 in
      ("grid12", g, Partition.grid_rows g ~rows:12 ~cols:12)
    in
    let ktree =
      let rng = Rng.create 3 in
      let g = Generators.k_tree rng ~k:4 ~n:150 in
      ("ktree4_150", g, Partition.voronoi g rng ~parts:10)
    in
    [ grid; ktree ]
  in
  List.iter
    (fun (name, g, parts) ->
      let n = Graph.n g in
      let tree = Bfs.tree g ~root:0 in
      let sc = (Boost.full parts ~tree).Boost.shortcut in
      let values = Array.init n (fun v -> (v * 37) mod 101) in
      let info = Tree_info.of_tree g tree in
      List.iter
        (fun domains ->
          let measured label run =
            let pp = Par_profile.create () in
            let stats = run pp in
            let acts =
              Array.fold_left
                (fun a (t : Par_profile.totals) -> a + t.Par_profile.activations)
                0 (Par_profile.totals pp)
            in
            let msgs = stats.Simulator.messages and rounds = stats.Simulator.rounds in
            let label = Printf.sprintf "%s on %s, domains=%d" label name domains in
            check Alcotest.bool
              (Printf.sprintf "%s: %d activations <= 2*%d messages + 2n" label acts msgs)
              true
              (acts <= (2 * msgs) + (2 * n));
            check Alcotest.bool
              (Printf.sprintf "%s: fewer activations than live node-rounds" label)
              true
              (acts < n * rounds)
          in
          measured "sync bfs" (fun pp ->
              let _, _, stats = Sync_bfs.run ~domains ~par_profile:pp g ~root:0 in
              stats);
          measured "part-wise aggregation" (fun pp ->
              (Sim_aggregate.minimum ~domains ~par_profile:pp (Rng.create 5) sc ~values)
                .Sim_aggregate.stats);
          List.iter
            (fun (vname, variant) ->
              measured ("detection wave, " ^ vname) (fun pp ->
                  snd
                    (Distributed.detection_wave ~domains ~par_profile:pp ~variant
                       ~threshold:4 parts info)))
            [
              ("randomized", Distributed.Randomized { repetitions = 8 });
              ("deterministic", Distributed.Deterministic);
            ])
        [ 1; 2 ])
    hosts

(* The core reads a node's hint in a round it visits the node, not in
   every round it runs: a token walks along a 300-node path, each node
   waiting for mail (hint [max_int]) until the token reaches it, then
   passing it on and halting. Reading every waiting node's hint in every
   round made 44,851 calls; visiting only the nodes with mail, after
   round 1 reads each initial hint, makes at most 2n. *)
type token = Waiting | Holding | Passed

let token_walk_reads_few_hints () =
  let n = 300 in
  let g = Generators.path n in
  let calls = Atomic.make 0 in
  let program =
    {
      Simulator.init = (fun ctx -> if ctx.Simulator.node = 0 then Holding else Waiting);
      on_round =
        (fun ctx st mb ->
          if st = Holding || Simulator.deliveries mb > 0 then begin
            let next = ctx.Simulator.node + 1 in
            Array.iteri
              (fun port w -> if w = next then Simulator.send mb port ())
              ctx.Simulator.neighbors;
            Passed
          end
          else st);
      is_halted = (fun st -> st = Passed);
      wake =
        (fun st ->
          Atomic.incr calls;
          if st = Holding then Simulator.every_round else max_int);
      msg_words = (fun _ -> 1);
    }
  in
  List.iter
    (fun domains ->
      Atomic.set calls 0;
      let states, stats = Simulator.run ~domains g program in
      let label what = Printf.sprintf "%s, domains=%d" what domains in
      check Alcotest.bool (label "every node passed the token") true
        (Array.for_all (fun st -> st = Passed) states);
      check Alcotest.int (label "one round per node") n stats.Simulator.rounds;
      check Alcotest.bool
        (label (Printf.sprintf "%d hint calls <= 2n" (Atomic.get calls)))
        true
        (Atomic.get calls <= 2 * n))
    [ 1; 2 ]

(* Outside a fill round a visited live node is due (mail or its own
   hint for the round set its bit), so the core reads hints only after a
   step and in fill rounds, and finds a round to skip to from the due
   bits and the shards' bounds, not by asking every node. Two nodes of
   [path:2] step every round for 100 rounds without mail: re-reading each
   hint before each step and scanning for the next due round made 497
   calls; one call per step plus one per live node per fill round (here
   only round 1) is at most 2 * 100 + 2. *)
let awake_nodes_read_one_hint_per_step () =
  let g = Generators.path 2 in
  let calls = Atomic.make 0 in
  let program =
    {
      Simulator.init = (fun _ -> 0);
      on_round = (fun _ st _ -> st + 1);
      is_halted = (fun st -> st >= 100);
      wake =
        (fun _ ->
          Atomic.incr calls;
          Simulator.every_round);
      msg_words = (fun _ -> 1);
    }
  in
  List.iter
    (fun domains ->
      Atomic.set calls 0;
      let states, stats = Simulator.run ~domains g program in
      let label what = Printf.sprintf "%s, domains=%d" what domains in
      check Alcotest.bool (label "every node stepped 100 times") true
        (Array.for_all (fun st -> st = 100) states);
      check Alcotest.int (label "100 rounds") 100 stats.Simulator.rounds;
      check Alcotest.bool
        (label (Printf.sprintf "%d hint calls <= 202" (Atomic.get calls)))
        true
        (Atomic.get calls <= (2 * 100) + 2))
    [ 1; 2 ]

let suite =
  [
    case "simulator: ping pong" `Quick simulator_ping_pong;
    case "simulator: bandwidth enforced" `Quick simulator_enforces_bandwidth;
    case "simulator: wider bandwidth" `Quick simulator_allows_wider_bandwidth;
    case "simulator: oversized message" `Quick simulator_rejects_oversized_message;
    case "simulator: round limit" `Quick simulator_round_limit;
    case "sync bfs: path" `Quick sync_bfs_path;
    case "sync bfs: star" `Quick sync_bfs_star;
    case "sync bfs: single node" `Quick sync_bfs_single_node;
    case "sync bfs: message complexity" `Quick sync_bfs_message_complexity;
    case "broadcast: delivers" `Quick broadcast_delivers;
    case "convergecast: sums" `Quick convergecast_sums;
    case "leader election: grid" `Quick leader_election_elects_max;
    case "activations <= 2 messages + 2n" `Quick activations_bounded_by_messages;
    case "a token walk reads at most 2n hints" `Quick token_walk_reads_few_hints;
    case "simulator: no allocation per message" `Quick simulator_message_plane_allocation;
    case "awake nodes read one hint per step" `Quick awake_nodes_read_one_hint_per_step;
  ]
  @ props
