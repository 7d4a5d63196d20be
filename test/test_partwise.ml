(* Tests for part-wise aggregation: the Sim_aggregate programs (minimum,
   broadcast, sum) and the problem definition they are checked against. *)

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

let aggregation_correct =
  QCheck.Test.make ~name:"PA minimum = reference minimum" ~count:25
    QCheck.(triple (int_bound 1000) (int_range 4 60) (int_range 1 8))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let tree = Bfs.tree g ~root:0 in
      let b = Boost.full partition ~tree in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 100_000) in
      let out = Sim_aggregate.minimum (Rng.create (seed + 9)) b.Boost.shortcut ~values in
      out.Sim_aggregate.minima = Aggregate.reference_minima b.Boost.shortcut ~values)

let aggregation_with_empty_shortcut =
  QCheck.Test.make ~name:"PA correct with empty shortcuts too" ~count:15
    QCheck.(triple (int_bound 1000) (int_range 4 40) (int_range 1 6))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let sc = Shortcut.empty partition in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Sim_aggregate.minimum (Rng.create (seed + 9)) sc ~values in
      out.Sim_aggregate.minima = Aggregate.reference_minima sc ~values)

let wheel_speedup () =
  (* Section 2's motivating example: the rim of a wheel has diameter Θ(n)
     but the graph has diameter 2. PA without a shortcut needs Θ(n) rounds;
     with the Theorem 3.1 shortcut it needs O(log n)-ish. *)
  let n = 128 in
  let g = Generators.wheel n in
  let partition = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
  let tree = Bfs.tree g ~root:0 in
  let values = Array.init n (fun v -> (v * 37) mod 1009) in
  let bare = Sim_aggregate.minimum (Rng.create 1) (Shortcut.empty partition) ~values in
  let boosted = Boost.full partition ~tree in
  let fast = Sim_aggregate.minimum (Rng.create 1) boosted.Boost.shortcut ~values in
  check Alcotest.bool "bare PA linear in n" true
    (bare.Sim_aggregate.completion_round >= (n - 1) / 4);
  check Alcotest.bool "shortcut PA constant-ish" true
    (fast.Sim_aggregate.completion_round <= 16);
  check Alcotest.bool "same answers" true
    (bare.Sim_aggregate.minima = fast.Sim_aggregate.minima)

let rounds_within_schedule_bound =
  QCheck.Test.make ~name:"PA rounds <= c + d log n (with slack)" ~count:15
    QCheck.(triple (int_bound 1000) (int_range 8 60) (int_range 2 8))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let tree = Bfs.tree g ~root:0 in
      let b = Boost.full partition ~tree in
      let r = Quality.measure b.Boost.shortcut in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Sim_aggregate.minimum (Rng.create (seed + 9)) b.Boost.shortcut ~values in
      let bound =
        Aggregate.bound ~congestion:r.Quality.congestion ~dilation:(max 1 r.Quality.dilation) ~n
      in
      (* The flooding is within a small constant of the schedule bound;
         4x slack keeps the test robust while still meaningful. *)
      out.Sim_aggregate.completion_round <= (4 * bound) + 8)

let broadcast_delivers_leader_token () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let partition = Partition.grid_rows g ~rows:5 ~cols:5 in
  let tree = Bfs.tree g ~root:0 in
  let b = Boost.full partition ~tree in
  let leaders = Array.init 5 (fun i -> i * 5) in
  let out = Sim_aggregate.broadcast (Rng.create 2) b.Boost.shortcut ~leaders in
  Array.iteri
    (fun i l -> check Alcotest.int "token is leader id" l out.Sim_aggregate.minima.(i))
    leaders

let broadcast_rejects_foreign_leader () =
  let g = Generators.grid ~rows:3 ~cols:3 in
  let partition = Partition.grid_rows g ~rows:3 ~cols:3 in
  let sc = Shortcut.empty partition in
  Alcotest.check_raises "leader must be in its part"
    (Invalid_argument "Sim_aggregate.broadcast: leader not in its part") (fun () ->
      ignore (Sim_aggregate.broadcast (Rng.create 1) sc ~leaders:[| 0; 1; 6 |]))

(* A preparation changes cost only: on its own shortcut, with or without
   a prepared host, at one and two domains, minimum and broadcast return
   what an unprepared call returns, and the round budget is the one the
   CLI and the fault-tolerant path use. On another shortcut it is
   refused. *)
let prepared_changes_nothing () =
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let sc = (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
  let values = Array.init (Graph.n g) (fun v -> (v * 37) mod 101) in
  let leaders = Array.init 6 (fun i -> (i * 6) + (i mod 6)) in
  let host = Simulator.prepare g in
  let q = Quality.measure sc in
  check Alcotest.int "budget"
    ((4
     * Aggregate.bound ~congestion:q.Quality.congestion
         ~dilation:(max 1 q.Quality.dilation) ~n:(Graph.n g))
    + 32)
    (Sim_aggregate.budget (Sim_aggregate.prepare sc));
  List.iter
    (fun domains ->
      List.iter
        (fun prepared ->
          let mins p = Sim_aggregate.minimum ?prepared:p ~domains (Rng.create 4) sc ~values in
          let bcast p =
            Sim_aggregate.broadcast ?prepared:p ~domains (Rng.create 5) sc ~leaders
          in
          (* Each run takes the queues the previous one left. *)
          check Alcotest.bool "minimum" true (mins (Some prepared) = mins None);
          check Alcotest.bool "broadcast" true (bcast (Some prepared) = bcast None);
          check Alcotest.bool "minimum again" true (mins (Some prepared) = mins None))
        [ Sim_aggregate.prepare sc; Sim_aggregate.prepare ~host sc ])
    [ 1; 2 ];
  let other = Sim_aggregate.prepare (Shortcut.empty partition) in
  Alcotest.check_raises "another shortcut"
    (Invalid_argument "Sim_aggregate.minimum: prepared for another shortcut") (fun () ->
      ignore (Sim_aggregate.minimum ~prepared:other (Rng.create 1) sc ~values));
  Alcotest.check_raises "another shortcut, broadcast"
    (Invalid_argument "Sim_aggregate.minimum: prepared for another shortcut") (fun () ->
      ignore (Sim_aggregate.broadcast ~prepared:other (Rng.create 1) sc ~leaders))

(* A minimum's word is one immediate int, so a second run over one
   preparation, on a prepared host, allocates less than one minor word per
   message beyond O(n + m) for the run's own arrays. A (part, value) pair
   per word costs three. *)
let minimum_word_allocation () =
  let g = Generators.grid ~rows:16 ~cols:16 in
  let partition = Partition.grid_rows g ~rows:16 ~cols:16 in
  let sc = (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
  let prepared = Sim_aggregate.prepare ~host:(Simulator.prepare g) sc in
  let values = Array.init (Graph.n g) (fun v -> (v * 37) mod 1009) in
  ignore (Sim_aggregate.minimum ~prepared (Rng.create 3) sc ~values);
  let before = Gc.minor_words () in
  let out = Sim_aggregate.minimum ~prepared (Rng.create 3) sc ~values in
  let words = Gc.minor_words () -. before in
  let messages = out.Sim_aggregate.messages in
  let bound = messages + (16 * (Graph.n g + Graph.m g)) in
  if words > float_of_int bound then
    Alcotest.failf "%.0f minor words for %d messages (bound %d)" words messages bound

let light_loss =
  lazy
    (match
       Fault.load_plan
         (Filename.concat (Filename.dirname Sys.executable_name) "../plans/light_loss.json")
     with
    | Ok p -> p
    | Error e -> failwith e)

(* A word names the member whose value it forwards, so the flood must stay
   exact on any values: [min_int], [max_int], negatives and ties, on
   singleton partitions (k = n: part ids fill their bit field) and on
   Voronoi parts, at one and two domains, for both forms of Definition 2.1,
   and through the ARQ under plans/light_loss.json. *)
let extreme_values =
  QCheck.Test.make ~name:"PA exact on extreme values and ties" ~count:20
    QCheck.(quad (int_bound 1000) (int_range 2 40) (int_range 1 8) bool)
    (fun (seed, n, parts, singletons) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let partition =
        if singletons then Partition.singletons g
        else Partition.voronoi g (Rng.create (seed + 3)) ~parts:(min parts n)
      in
      let sc = (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
      let rng = Rng.create (seed + 7) in
      let extremes = [| min_int; max_int; min_int + 1; max_int - 1; -1; 0 |] in
      let values =
        Array.init n (fun _ ->
            if Rng.int rng 2 = 0 then extremes.(Rng.int rng (Array.length extremes))
            else Rng.int rng 5 - 2)
      in
      let expected = Aggregate.reference_minima sc ~values in
      let leaders =
        Array.init (Partition.k partition) (fun i ->
            let members = Partition.members partition i in
            members.(Rng.int rng (Array.length members)))
      in
      let exact domains =
        let mins = Sim_aggregate.minimum ~domains (Rng.create (seed + 9)) sc ~values in
        let bcast = Sim_aggregate.broadcast ~domains (Rng.create (seed + 9)) sc ~leaders in
        mins.Sim_aggregate.minima = expected && bcast.Sim_aggregate.minima = leaders
      in
      let through_arq =
        match
          Sim_aggregate.minimum_outcome
            ~faults:(Fault.compile (Lazy.force light_loss))
            (Rng.create (seed + 11)) sc ~values
        with
        | Outcome.Complete r ->
            r.Sim_aggregate.minima = expected && r.Sim_aggregate.diverged = []
        | Outcome.Degraded _ -> false
      in
      exact 1 && exact 2 && through_arq)

let router_detects_disconnected_subgraph () =
  (* A whole path as one part with no shortcut: the minimum, held by one
     end, must cross every edge of the part itself. *)
  let g = Generators.path 6 in
  let partition = Partition.of_parts g [ [ 0; 1; 2; 3; 4; 5 ] ] in
  let sc = Shortcut.empty partition in
  let values = Array.init 6 (fun v -> v) in
  let out = Sim_aggregate.minimum (Rng.create 1) sc ~values in
  check Alcotest.int "whole path completes" 0 out.Sim_aggregate.minima.(0)

(* --- Sum aggregation (convergecast + broadcast) ---------------------------- *)

(* Exactly once: each part's tree carries one word up and one down per
   edge, 2(|S_i| - 1) words in all. *)
let sum_aggregation_correct =
  QCheck.Test.make ~name:"tree-sum PA = reference sums" ~count:20
    QCheck.(triple (int_bound 1000) (int_range 4 50) (int_range 1 8))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let tree = Bfs.tree g ~root:0 in
      let sc = (Boost.full partition ~tree).Boost.shortcut in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Sim_aggregate.sum (Rng.create (seed + 9)) sc ~values in
      let words =
        List.fold_left ( + ) 0
          (List.init (Shortcut.k sc) (fun i ->
               2 * (Graph.n (Quality.part_subgraph sc i) - 1)))
      in
      out.Sim_aggregate.minima = Aggregate.reference_sums sc ~values
      && out.Sim_aggregate.messages = words)

let sum_with_empty_shortcut =
  QCheck.Test.make ~name:"tree-sum correct with empty shortcuts" ~count:15
    QCheck.(triple (int_bound 1000) (int_range 4 40) (int_range 1 6))
    (fun (seed, n, parts) ->
      let g = random_connected_graph seed ~n ~extra:(n / 3) in
      let parts = min parts n in
      let partition = Partition.voronoi g (Rng.create (seed + 3)) ~parts in
      let sc = Shortcut.empty partition in
      let rng = Rng.create (seed + 7) in
      let values = Array.init n (fun _ -> Rng.int rng 1000) in
      let out = Sim_aggregate.sum (Rng.create (seed + 9)) sc ~values in
      out.Sim_aggregate.minima = Aggregate.reference_sums sc ~values)

let tree_router_message_economy () =
  (* Exactly 2(|S_i|-1) messages per part when nothing else competes, and
     the trace sees every one of them. *)
  let g = Generators.path 10 in
  let partition = Partition.whole g in
  let sc = Shortcut.empty partition in
  let values = Array.init 10 (fun v -> v) in
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let out =
    Sim_aggregate.sum ~tracer:(Trace.Profile.tracer profile) (Rng.create 2) sc ~values
  in
  check Alcotest.int "2(n-1) messages" 18 out.Sim_aggregate.messages;
  check Alcotest.int "traced transmissions" 18 (Trace.Profile.total_messages profile);
  check Alcotest.bool "every edge once each way" true
    (Array.for_all (fun w -> w = 2) (Trace.Profile.edge_words profile));
  check Alcotest.int "total" 45 out.Sim_aggregate.minima.(0)

(* --- Sim_aggregate on the flagship instance --------------------------------- *)

let sim_aggregate_wheel () =
  (* The flagship instance, fully inside the enforced model. *)
  let n = 128 in
  let g = Generators.wheel n in
  let partition = Partition.of_parts g [ List.init (n - 1) (fun i -> i + 1) ] in
  let tree = Bfs.tree g ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let values = Array.init n (fun v -> (v * 37) mod 1009) in
  let out = Sim_aggregate.minimum (Rng.create 4) sc ~values in
  check Alcotest.bool "fast completion" true (out.Sim_aggregate.completion_round <= 24);
  check Alcotest.bool "bandwidth respected" true
    (out.Sim_aggregate.stats.Simulator.max_edge_load <= 1)

(* --- Schedule policies ------------------------------------------------------ *)

let policies_all_correct () =
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let tree = Bfs.tree g ~root:0 in
  let sc = (Boost.full partition ~tree).Boost.shortcut in
  let values = Array.init 36 (fun v -> (v * 13) mod 101) in
  let expected = Aggregate.reference_minima sc ~values in
  List.iter
    (fun policy ->
      let out = Sim_aggregate.minimum ~policy (Rng.create 4) sc ~values in
      check Alcotest.bool
        (Printf.sprintf "%s correct" (Schedule.to_string policy))
        true
        (out.Sim_aggregate.minima = expected))
    [ Schedule.Random_delay; Schedule.Fifo; Schedule.Static_order ]

let schedule_delays_shape () =
  let rng = Rng.create 5 in
  let d = Schedule.delays Schedule.Random_delay rng ~parts:50 ~max_delay:10 in
  check Alcotest.bool "delays within window" true (Array.for_all (fun x -> x >= 0 && x < 10) d);
  check Alcotest.bool "fifo all zero" true
    (Array.for_all (fun x -> x = 0) (Schedule.delays Schedule.Fifo rng ~parts:5 ~max_delay:10));
  check Alcotest.bool "static is identity" true
    (Schedule.delays Schedule.Static_order rng ~parts:4 ~max_delay:10 = [| 0; 1; 2; 3 |])

let bound_helper () =
  check Alcotest.int "bound" (10 + (3 * 7)) (Aggregate.bound ~congestion:10 ~dilation:3 ~n:100)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      aggregation_correct;
      aggregation_with_empty_shortcut;
      rounds_within_schedule_bound;
      sum_aggregation_correct;
      sum_with_empty_shortcut;
      extreme_values;
    ]

let suite =
  [
    case "wheel speedup (Section 2 example)" `Quick wheel_speedup;
    case "broadcast: leader tokens" `Quick broadcast_delivers_leader_token;
    case "broadcast: rejects foreign leader" `Quick broadcast_rejects_foreign_leader;
    case "prepared: changes cost only" `Quick prepared_changes_nothing;
    case "minimum: words allocate nothing" `Quick minimum_word_allocation;
    case "router: path completes" `Quick router_detects_disconnected_subgraph;
    case "sim aggregate: wheel" `Quick sim_aggregate_wheel;
    case "tree router: message economy" `Quick tree_router_message_economy;
    case "schedule: policies all correct" `Quick policies_all_correct;
    case "schedule: delay shapes" `Quick schedule_delays_shape;
    case "bound helper" `Quick bound_helper;
  ]
  @ props
