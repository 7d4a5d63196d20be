(* Causal tracing and critical-path analysis: the v2 schema round-trips,
   the message-dependency invariants hold on real runs (property-tested),
   the analyzer's decomposition is exact on fault-free traces and checks
   out against the measured congestion, and Quality.traffic attribution
   handles its denominator edge cases. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

(* --- trace schema v2 round-trip (pins the on-disk format) ---------------- *)

let sample_events =
  [
    Trace.Round_start { round = 1; live = 9 };
    (* untagged send: causal defaults *)
    Trace.Send
      { round = 1; src = 0; dst = 1; edge = 0; words = 2; id = 1; parents = [];
        part = -1; phase = "" };
    (* tagged send: full causal metadata *)
    Trace.Send
      { round = 1; src = 1; dst = 2; edge = 3; words = 1; id = 2;
        parents = [ 1 ]; part = 4; phase = "pa.flood" };
    Trace.Halt { round = 1; node = 5 };
    Trace.Round_end { round = 1; max_edge_load = 2 };
    Trace.Drop { round = 2; src = 1; dst = 0; edge = 0; words = 1 };
    Trace.Duplicate
      { round = 2; src = 2; dst = 3; edge = 5; words = 1; id = 3;
        parents = [ 1; 2 ]; part = 0; phase = "router.up" };
    Trace.Delayed { round = 2; src = 2; dst = 3; edge = 5; delay = 3 };
    Trace.Link_down { round = 3; edge = 7 };
    Trace.Crash { round = 3; node = 4 };
  ]

let schema_roundtrip () =
  List.iter
    (fun event ->
      let json = Trace.event_to_json event in
      (* through the printer/parser too, not just the converters *)
      let reparsed =
        match Json.of_string (Json.to_string json) with
        | Ok j -> j
        | Error msg -> Alcotest.fail ("event json does not reparse: " ^ msg)
      in
      match Trace.event_of_json reparsed with
      | Ok back ->
          check Alcotest.bool "event round-trips" true (back = event)
      | Error msg -> Alcotest.fail ("event_of_json failed: " ^ msg))
    sample_events

let schema_v2_fields () =
  (* Tagged sends carry id/parents/part/phase; untagged ones omit the
     attribution fields but keep the causal ids. *)
  let tagged =
    Trace.event_to_json
      (Trace.Send
         { round = 1; src = 1; dst = 2; edge = 3; words = 1; id = 2;
           parents = [ 1 ]; part = 4; phase = "pa.flood" })
  in
  List.iter
    (fun key ->
      check Alcotest.bool (key ^ " present on tagged send") true
        (Json.member key tagged <> None))
    [ "id"; "parents"; "part"; "phase" ];
  let untagged =
    Trace.event_to_json
      (Trace.Send
         { round = 1; src = 0; dst = 1; edge = 0; words = 1; id = 1;
           parents = []; part = -1; phase = "" })
  in
  check Alcotest.bool "id present on untagged send" true
    (Json.member "id" untagged <> None);
  check Alcotest.bool "part omitted when untagged" true
    (Json.member "part" untagged = None);
  check Alcotest.bool "phase omitted when untagged" true
    (Json.member "phase" untagged = None)

let schema_v1_lenient () =
  (* A v1 send (no causal fields at all) still parses, with defaults. *)
  let v1 =
    Json.Obj
      [
        ("t", Json.String "send");
        ("round", Json.Int 3);
        ("src", Json.Int 1);
        ("dst", Json.Int 2);
        ("edge", Json.Int 4);
        ("words", Json.Int 1);
      ]
  in
  match Trace.event_of_json v1 with
  | Ok (Trace.Send { id = 0; parents = []; part = -1; phase = ""; round = 3; _ })
    -> ()
  | Ok _ -> Alcotest.fail "v1 send parsed with wrong defaults"
  | Error msg -> Alcotest.fail ("v1 send rejected: " ^ msg)

(* --- fixtures ------------------------------------------------------------- *)

let grid_shortcut side =
  let g = Generators.grid ~rows:side ~cols:side in
  let partition = Partition.grid_rows g ~rows:side ~cols:side in
  let tree = Bfs.tree g ~root:0 in
  (g, (Boost.full partition ~tree).Boost.shortcut)

(* Walk a fault-free event stream and check the message-plane contract:
   ids are per-run monotone starting at 1, every parent id was delivered
   to the sender no later than the causing send's round. *)
let check_dag_invariants events =
  let last_id = ref 0 in
  let arrival = Hashtbl.create 256 in
  List.iter
    (fun event ->
      match event with
      | Trace.Round_start { round = 1; _ } ->
          last_id := 0;
          Hashtbl.reset arrival
      | Trace.Send { round; src; dst; id; parents; _ } ->
          if id <> !last_id + 1 then
            Alcotest.failf "id %d after %d: not monotone by 1" id !last_id;
          last_id := id;
          List.iter
            (fun p ->
              if p <= 0 || p >= id then
                Alcotest.failf "parent %d of %d out of range" p id;
              match Hashtbl.find_opt arrival p with
              | None -> Alcotest.failf "parent %d of %d never sent" p id
              | Some (pdst, parr) ->
                  if pdst <> src then
                    Alcotest.failf "parent %d delivered to %d, not sender %d" p
                      pdst src;
                  if parr > round then
                    Alcotest.failf
                      "parent %d arrives in round %d, after send round %d" p
                      parr round)
            parents;
          Hashtbl.replace arrival id (dst, round + 1)
      | _ -> ())
    events

let causal_invariants_pa =
  QCheck.Test.make ~name:"pa run: causal DAG invariants + exact decomposition"
    ~count:15
    QCheck.(pair (int_bound 100_000) (int_range 3 6))
    (fun (seed, side) ->
      let g, sc = grid_shortcut side in
      let rng = Rng.create seed in
      let values = Array.init (Graph.n g) (fun _ -> Rng.int rng 1_000_000) in
      let recorder = Trace.Recorder.create () in
      let out =
        Sim_aggregate.minimum
          ~tracer:(Trace.Recorder.tracer recorder)
          (Rng.create (seed + 1))
          sc ~values
      in
      let events = Trace.Recorder.events recorder in
      check_dag_invariants events;
      match Analyze.of_events events with
      | [ r ] ->
          (not r.Analyze.faulty) && r.Analyze.exact
          && r.Analyze.rounds = out.Sim_aggregate.stats.Simulator.rounds
          && Analyze.decomposition_total r.Analyze.decomposition
             = r.Analyze.rounds
          && List.length r.Analyze.path <= r.Analyze.rounds
          && r.Analyze.path <> []
      | _ -> false)

let causal_invariants_bfs =
  QCheck.Test.make ~name:"sync bfs: causal DAG invariants + exact decomposition"
    ~count:15
    QCheck.(pair (int_bound 100_000) (int_range 3 8))
    (fun (seed, side) ->
      let g = Generators.grid ~rows:side ~cols:side in
      ignore seed;
      let recorder = Trace.Recorder.create () in
      let _tree, _height, stats =
        Sync_bfs.run ~tracer:(Trace.Recorder.tracer recorder) g ~root:0
      in
      let events = Trace.Recorder.events recorder in
      check_dag_invariants events;
      match Analyze.of_events events with
      | [ r ] ->
          r.Analyze.exact
          && r.Analyze.rounds = stats.Simulator.rounds
          && List.length r.Analyze.path <= r.Analyze.rounds
      | _ -> false)

(* --- decomposition checks out against the measured congestion ------------ *)

let queueing_bounded_by_congestion () =
  let g, sc = grid_shortcut 6 in
  let values = Array.init (Graph.n g) (fun v -> (v * 131) mod 997) in
  let recorder = Trace.Recorder.create () in
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let tracer =
    Trace.tee [ Trace.Recorder.tracer recorder; Trace.Profile.tracer profile ]
  in
  let _out = Sim_aggregate.minimum ~tracer (Rng.create 9) sc ~values in
  (* The ledger's observed congestion: the hottest edge's word count. *)
  let congestion =
    Array.fold_left max 0 (Trace.Profile.edge_words profile)
  in
  match Analyze.of_events (Trace.Recorder.events recorder) with
  | [ r ] ->
      check Alcotest.bool "decomposition exact" true r.Analyze.exact;
      List.iter
        (fun ps ->
          check Alcotest.bool
            (Printf.sprintf "part %d queue max %d <= congestion %d"
               ps.Analyze.ps_part ps.Analyze.ps_queue_max congestion)
            true
            (ps.Analyze.ps_queue_max <= congestion))
        r.Analyze.parts
  | _ -> Alcotest.fail "expected exactly one run"

(* --- analyzer on hand-built traces --------------------------------------- *)

let mk_send ~round ~src ~dst ~edge ~id ~parents =
  Trace.Send { round; src; dst; edge; words = 1; id; parents; part = 0;
               phase = "t" }

let round_events r body =
  (Trace.Round_start { round = r; live = 4 } :: body)
  @ [ Trace.Round_end { round = r; max_edge_load = 1 } ]

let analyzer_known_chain () =
  (* 1 -> 2 -> 3 -> 4 relay: send in round 1, relay in round 2, then the
     last hop idles one round (queueing 1) and sends in round 4; the run
     lasts 5 rounds, so the tail is 1. *)
  let events =
    round_events 1 [ mk_send ~round:1 ~src:1 ~dst:2 ~edge:0 ~id:1 ~parents:[] ]
    @ round_events 2 [ mk_send ~round:2 ~src:2 ~dst:3 ~edge:1 ~id:2 ~parents:[ 1 ] ]
    @ round_events 3 []
    @ round_events 4 [ mk_send ~round:4 ~src:3 ~dst:4 ~edge:2 ~id:3 ~parents:[ 2 ] ]
    @ round_events 5 []
  in
  match Analyze.of_events events with
  | [ r ] ->
      check Alcotest.int "rounds" 5 r.Analyze.rounds;
      check (Alcotest.list Alcotest.int) "critical path ids" [ 1; 2; 3 ]
        (List.map (fun h -> h.Analyze.hop_msg.Analyze.id) r.Analyze.path);
      let d = r.Analyze.decomposition in
      check Alcotest.int "startup" 0 d.Analyze.startup;
      check Alcotest.int "transit" 3 d.Analyze.transit_total;
      check Alcotest.int "queueing" 1 d.Analyze.queueing_total;
      check Alcotest.int "tail" 1 d.Analyze.tail;
      check Alcotest.bool "exact" true r.Analyze.exact;
      check Alcotest.int "total = rounds" r.Analyze.rounds
        (Analyze.decomposition_total d)
  | _ -> Alcotest.fail "expected one run"

let analyzer_segments_runs () =
  (* Two back-to-back runs in one recording: ids restart at each
     Round_start {round = 1} and each segment is analyzed on its own. *)
  let one_run =
    round_events 1 [ mk_send ~round:1 ~src:0 ~dst:1 ~edge:0 ~id:1 ~parents:[] ]
    @ round_events 2 []
  in
  match Analyze.of_events (one_run @ one_run) with
  | [ a; b ] ->
      check Alcotest.int "first run index" 0 a.Analyze.index;
      check Alcotest.int "second run index" 1 b.Analyze.index;
      check Alcotest.int "same rounds" a.Analyze.rounds b.Analyze.rounds;
      check Alcotest.bool "both exact" true (a.Analyze.exact && b.Analyze.exact)
  | runs -> Alcotest.failf "expected two runs, got %d" (List.length runs)

let analyzer_ignores_bogus_parents () =
  (* Forward/self/negative parent ids (possible in hand-edited JSON) are
     ignored rather than looping or crashing the backward walk. *)
  let events =
    round_events 1
      [ mk_send ~round:1 ~src:0 ~dst:1 ~edge:0 ~id:1 ~parents:[ 7; -3; 1 ] ]
    @ round_events 2
        [ mk_send ~round:2 ~src:1 ~dst:2 ~edge:1 ~id:2 ~parents:[ 2; 99 ] ]
  in
  match Analyze.of_events events with
  | [ r ] ->
      check Alcotest.int "path stops at the bogus-parent hop" 1
        (List.length r.Analyze.path)
  | _ -> Alcotest.fail "expected one run"

let analyzer_flags_faulty () =
  let events =
    round_events 1
      [
        mk_send ~round:1 ~src:0 ~dst:1 ~edge:0 ~id:1 ~parents:[];
        Trace.Drop { round = 1; src = 1; dst = 0; edge = 0; words = 1 };
      ]
    @ round_events 2 []
  in
  match Analyze.of_events events with
  | [ r ] -> check Alcotest.bool "faulty flagged" true r.Analyze.faulty
  | _ -> Alcotest.fail "expected one run"

let flow_events_well_formed () =
  let g, sc = grid_shortcut 5 in
  let values = Array.init (Graph.n g) (fun v -> v) in
  let recorder = Trace.Recorder.create () in
  let _out =
    Sim_aggregate.minimum
      ~tracer:(Trace.Recorder.tracer recorder)
      (Rng.create 13) sc ~values
  in
  match Analyze.of_events (Trace.Recorder.events recorder) with
  | [ r ] ->
      let flows = Analyze.flow_events r in
      let ph j =
        match Json.member "ph" j with Some (Json.String s) -> s | _ -> "?"
      in
      let count p = List.length (List.filter (fun j -> ph j = p) flows) in
      let hops = List.length r.Analyze.path in
      check Alcotest.int "one slice per hop" hops (count "X");
      check Alcotest.int "flow starts" (hops - 1) (count "s");
      check Alcotest.int "flow finishes" (hops - 1) (count "f");
      check Alcotest.bool "json round-trips" true
        (List.for_all
           (fun j ->
             match Json.of_string (Json.to_string j) with
             | Ok back -> back = j
             | Error _ -> false)
           flows)
  | _ -> Alcotest.fail "expected one run"

(* --- Quality.traffic edge cases ------------------------------------------ *)

let traffic_zero_words () =
  (* No traced words at all: every part gets 0 words and 0 share (no
     division by the zero total). *)
  let g, sc = grid_shortcut 4 in
  let tr = Quality.traffic sc ~edge_words:(Array.make (Graph.m g) 0) in
  Array.iter
    (fun p ->
      check (Alcotest.float 0.) "zero words" 0. p.Quality.words;
      check (Alcotest.float 0.) "zero share" 0. p.Quality.share)
    tr

let traffic_unused_edges_not_attributed () =
  (* Words on an edge no part uses (cross-part, in no H_i) belong to no
     one: the per-part totals must not include them. The empty shortcut
     makes every cross-part edge such an orphan (users = 0 — the
     denominator edge case). *)
  let g = Generators.grid ~rows:4 ~cols:4 in
  let partition = Partition.grid_rows g ~rows:4 ~cols:4 in
  let sc = Shortcut.empty partition in
  let unused = ref (-1) in
  for e = Graph.m g - 1 downto 0 do
    let u, v = Graph.edge_endpoints g e in
    if Partition.part_of partition u <> Partition.part_of partition v then
      unused := e
  done;
  if !unused < 0 then Alcotest.fail "fixture has no unused cross-part edge";
  let edge_words = Array.make (Graph.m g) 0 in
  edge_words.(!unused) <- 41;
  let tr = Quality.traffic sc ~edge_words in
  let attributed =
    Array.fold_left (fun acc p -> acc +. p.Quality.words) 0. tr
  in
  check (Alcotest.float 1e-9) "unused edge attributed to no part" 0. attributed

let traffic_excludes_dropped_words () =
  (* Drops never reach the profile's word counts, so a faulty run's
     attribution covers only delivered (and duplicated) traffic. *)
  let g, sc = grid_shortcut 4 in
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let t = Trace.Profile.tracer profile in
  t (Trace.Round_start { round = 1; live = Graph.n g });
  t (mk_send ~round:1 ~src:0 ~dst:1 ~edge:0 ~id:1 ~parents:[]);
  t (Trace.Drop { round = 1; src = 1; dst = 0; edge = 0; words = 5 });
  t (Trace.Duplicate
       { round = 1; src = 0; dst = 1; edge = 0; words = 1; id = 2;
         parents = []; part = 0; phase = "t" });
  t (Trace.Round_end { round = 1; max_edge_load = 2 });
  check Alcotest.int "dropped words not counted" 2
    (Trace.Profile.total_words profile);
  check Alcotest.int "drop counted as fault" 1 (Trace.Profile.dropped profile);
  let tr = Quality.traffic sc ~edge_words:(Trace.Profile.edge_words profile) in
  let attributed =
    Array.fold_left (fun acc p -> acc +. p.Quality.words) 0. tr
  in
  check Alcotest.bool "attributed words exclude the dropped 5" true
    (attributed <= 2.0 +. 1e-9)

(* --- ARQ frames carry their inner causes ----------------------------------- *)

(* An inner program under [Reliable.wrap]: node [v] emits one word per
   entry [(round, neighbor, part)] of [sends.(v)], declared with [part],
   and keeps the cause of every delivery it reads, newest first. Every
   node's inner program stays live through round 12. *)
type arq_state = { last : int; read : int list }

let arq_inner sends =
  {
    Simulator.init = (fun _ -> { last = 0; read = [] });
    on_round =
      (fun ctx st mb ->
        let r = Simulator.round ctx in
        let read = ref st.read in
        for i = 0 to Simulator.deliveries mb - 1 do
          read := Simulator.cause mb i :: !read
        done;
        List.iter
          (fun (at, w, part) ->
            if at = r then
              Array.iteri
                (fun port u -> if u = w then Simulator.emit mb port ~part ~phase:"arq" part)
                ctx.Simulator.neighbors)
          sends.(ctx.Simulator.node);
        { last = r; read = !read });
    is_halted = (fun st -> st.last >= 12);
    wake = Simulator.always;
    msg_words = (fun _ -> 1);
  }

(* The events and final inner states of a traced run of the wrapped
   program, under [plan] if given, on the reference core ([core = None]) or
   on the core at [d] domains ([Some d]). *)
let arq_run ?plan ~core g sends =
  let recorder = Trace.Recorder.create () in
  let tracer = Trace.Recorder.tracer recorder in
  let faults = Option.map Fault.compile plan in
  let program = Reliable.wrap (arq_inner sends) in
  let states, _ =
    match core with
    | None -> Simulator_ref.run ~tracer ?faults g program
    | Some domains -> Simulator.run ~domains ~tracer ?faults g program
  in
  (Trace.Recorder.events recorder, Reliable.inner_states states)

(* (a) On the path 0-1, node 0 sends word r in round r, declared with part
   r: the ARQ holds words 2 and 3 until the previous one is acked, and the
   frame that carries each word carries its part — also when the link is
   down in round 1 and word 1 goes out again in round 5. (b) On the path
   0-1-2, node 1 sends to node 0 in round 1 (frame id 1); in round 2 node
   0's ack-only frame (id 2) and node 2's data frame (id 3) leave for node
   1, whose inner program then reads one delivery, caused by frame 3. *)
let arq_frames_carry_causes () =
  let down_in_round_1 =
    {
      Fault.empty with
      Fault.edges = [ (0, { Fault.reliable_edge with Fault.down = [ (1, 1) ] }) ];
    }
  in
  List.iter
    (fun (label, core) ->
      List.iter
        (fun (how, plan) ->
          let events, _ =
            arq_run ?plan ~core (Generators.path 2)
              [| [ (1, 1, 1); (2, 1, 2); (3, 1, 3) ]; [] |]
          in
          let data_parts =
            List.filter_map
              (function Trace.Send { src = 0; part; _ } -> Some part | _ -> None)
              events
          in
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "%s, %s: data frames' parts" label how)
            [ 1; 2; 3 ] data_parts;
          check Alcotest.bool
            (Printf.sprintf "%s, %s: word 1 lost in round 1" label how)
            (plan <> None)
            (List.mem (Trace.Link_down { round = 1; edge = 0 }) events))
        [ ("fault-free", None); ("link down in round 1", Some down_in_round_1) ];
      let _, inner = arq_run ~core (Generators.path 3) [| []; [ (1, 0, 7) ]; [ (2, 1, 8) ] |] in
      check (Alcotest.list Alcotest.int) (label ^ ": node 1 reads its data frame's id") [ 3 ]
        inner.(1).read)
    [ ("reference", None); ("1 domain", Some 1); ("2 domains", Some 2) ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [ causal_invariants_pa; causal_invariants_bfs ]

let suite =
  [
    case "trace schema v2 round-trips" `Quick schema_roundtrip;
    case "trace schema v2 field presence" `Quick schema_v2_fields;
    case "trace schema v1 still parses" `Quick schema_v1_lenient;
    case "per-part queueing <= measured congestion" `Quick
      queueing_bounded_by_congestion;
    case "analyzer: known chain decomposes exactly" `Quick analyzer_known_chain;
    case "analyzer: multi-run traces segment" `Quick analyzer_segments_runs;
    case "analyzer: bogus parents ignored" `Quick analyzer_ignores_bogus_parents;
    case "analyzer: fault events flag the run" `Quick analyzer_flags_faulty;
    case "perfetto flow events well-formed" `Quick flow_events_well_formed;
    case "traffic: zero traced words" `Quick traffic_zero_words;
    case "traffic: unused edges unattributed" `Quick
      traffic_unused_edges_not_attributed;
    case "traffic: dropped words not attributed" `Quick
      traffic_excludes_dropped_words;
    case "ARQ frames carry their inner causes" `Quick arq_frames_carry_causes;
  ]
  @ props
