(* Tests for the observability layer: tracing must not perturb runs, the
   congestion profiles must reconcile with the simulator's aggregates, and
   the JSON exports must round-trip. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let stats_equal a b =
  a.Simulator.rounds = b.Simulator.rounds
  && a.Simulator.messages = b.Simulator.messages
  && a.Simulator.words = b.Simulator.words
  && a.Simulator.max_edge_load = b.Simulator.max_edge_load

let grid_shortcut () =
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let tree = Bfs.tree g ~root:0 in
  (g, (Boost.full partition ~tree).Boost.shortcut)

(* --- tracing does not perturb the run ----------------------------------- *)

let tracing_is_transparent_bfs () =
  let g = Generators.grid ~rows:7 ~cols:7 in
  let tree_plain, height_plain, stats_plain = Sync_bfs.run g ~root:0 in
  let recorder = Trace.Recorder.create () in
  let tree_traced, height_traced, stats_traced =
    Sync_bfs.run ~tracer:(Trace.Recorder.tracer recorder) g ~root:0
  in
  check Alcotest.bool "same stats" true (stats_equal stats_plain stats_traced);
  check Alcotest.int "same height" height_plain height_traced;
  check Alcotest.bool "same parents" true
    (Array.for_all
       (fun v -> Rooted_tree.parent tree_plain v = Rooted_tree.parent tree_traced v)
       (Graph.vertices g));
  check Alcotest.bool "events recorded" true (Trace.Recorder.length recorder > 0)

let tracing_is_transparent_leader () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let leader_plain, stats_plain = Leader_election.run ~diameter_bound:8 g in
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let leader_traced, stats_traced =
    Leader_election.run ~diameter_bound:8 ~tracer:(Trace.Profile.tracer profile) g
  in
  check Alcotest.int "same leader" leader_plain leader_traced;
  check Alcotest.bool "same stats" true (stats_equal stats_plain stats_traced)

(* --- profiles reconcile with the aggregates ------------------------------ *)

let profile_totals_match_stats () =
  let g, sc = grid_shortcut () in
  let values = Array.init (Graph.n g) (fun v -> (v * 131) mod 997) in
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let out =
    Sim_aggregate.minimum ~tracer:(Trace.Profile.tracer profile) (Rng.create 3) sc
      ~values
  in
  let stats = out.Sim_aggregate.stats in
  check Alcotest.int "edge totals sum to stats.words" stats.Simulator.words
    (Array.fold_left ( + ) 0 (Trace.Profile.edge_words profile));
  check Alcotest.int "total_words" stats.Simulator.words
    (Trace.Profile.total_words profile);
  check Alcotest.int "total_messages" stats.Simulator.messages
    (Trace.Profile.total_messages profile);
  check Alcotest.int "load curve sums to stats.words" stats.Simulator.words
    (Array.fold_left ( + ) 0 (Trace.Profile.load_curve profile));
  check Alcotest.int "rounds" stats.Simulator.rounds (Trace.Profile.rounds profile);
  let round_max = Trace.Profile.round_max_load profile in
  check Alcotest.int "high-water mark" stats.Simulator.max_edge_load
    (Array.fold_left max 0 round_max);
  (* Histogram covers exactly the loaded edges; top list is sorted. *)
  let hist_count =
    List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Trace.Profile.histogram profile)
  in
  check Alcotest.int "histogram covers loaded edges"
    (Trace.Profile.edges_used profile)
    hist_count;
  let top = Trace.Profile.top_edges ~k:5 profile in
  check Alcotest.bool "top edges sorted" true
    (let rec sorted = function
       | (_, w1) :: ((_, w2) :: _ as rest) -> w1 >= w2 && sorted rest
       | _ -> true
     in
     sorted top)

let profiled_convergecast () =
  let g = Generators.grid ~rows:6 ~cols:6 in
  let tree = Bfs.tree g ~root:0 in
  let info = Tree_info.of_tree g tree in
  let values = Array.init (Graph.n g) (fun v -> v) in
  let program_total, plain = Convergecast.run g info ~values ~combine:( + ) in
  (* The same run with a profile folding its event stream: identical
     stats, and profile words = stats words. *)
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let total, stats =
    Convergecast.run ~tracer:(Trace.Profile.tracer profile) g info ~values
      ~combine:( + )
  in
  check Alcotest.int "same total" program_total total;
  check Alcotest.bool "same stats" true (stats_equal plain stats);
  check Alcotest.int "profile matches words" stats.Simulator.words
    (Trace.Profile.total_words profile)

let router_tracing_reconciles () =
  (* The exactly-once sum: every up/down transmission lands in the
     profile, and tracing changes nothing. *)
  let g, sc = grid_shortcut () in
  let values = Array.init (Graph.n g) (fun v -> (v * 37) mod 251) in
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let plain = Sim_aggregate.sum (Rng.create 12) sc ~values in
  let traced =
    Sim_aggregate.sum ~tracer:(Trace.Profile.tracer profile) (Rng.create 12) sc ~values
  in
  check Alcotest.bool "same stats" true
    (stats_equal plain.Sim_aggregate.stats traced.Sim_aggregate.stats);
  check Alcotest.int "same completion" plain.Sim_aggregate.completion_round
    traced.Sim_aggregate.completion_round;
  check Alcotest.int "profile counts every transmission"
    traced.Sim_aggregate.messages
    (Trace.Profile.total_messages profile);
  check Alcotest.int "profile words" traced.Sim_aggregate.stats.Simulator.words
    (Array.fold_left ( + ) 0 (Trace.Profile.edge_words profile));
  check Alcotest.int "profile rounds" traced.Sim_aggregate.rounds
    (Trace.Profile.rounds profile)

let recorder_stream_well_formed () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let recorder = Trace.Recorder.create () in
  let _tree, _height, stats =
    Sync_bfs.run ~tracer:(Trace.Recorder.tracer recorder) g ~root:0
  in
  let events = Trace.Recorder.events recorder in
  (* Rounds open and close in order, and sends only inside their round. *)
  let current = ref 0 in
  let open_ = ref false in
  List.iter
    (fun event ->
      match event with
      | Trace.Round_start { round; live } ->
          check Alcotest.bool "rounds increase" true (round = !current + 1);
          check Alcotest.bool "live positive" true (live > 0);
          current := round;
          open_ := true
      | Trace.Send { round; words; _ } ->
          check Alcotest.bool "send inside round" true (!open_ && round = !current);
          check Alcotest.bool "words positive" true (words > 0)
      | Trace.Halt { round; _ } ->
          check Alcotest.bool "halt inside round" true (!open_ && round = !current)
      | Trace.Round_end { round; max_edge_load } ->
          check Alcotest.bool "end closes round" true (!open_ && round = !current);
          check Alcotest.bool "round max within bandwidth" true
            (max_edge_load >= 0 && max_edge_load <= stats.Simulator.max_edge_load);
          open_ := false
      | Trace.Drop _ | Trace.Duplicate _ | Trace.Delayed _ | Trace.Link_down _
      | Trace.Crash _ ->
          Alcotest.fail "fault event in a fault-free run")
    events;
  check Alcotest.int "all rounds traced" stats.Simulator.rounds !current

(* --- JSON export round-trips --------------------------------------------- *)

let json_roundtrip value =
  match Json.of_string (Json.to_string value) with
  | Ok parsed -> parsed = value
  | Error _ -> false

let json_value_roundtrip () =
  let tricky =
    Json.Obj
      [
        ("empty", Json.List []);
        ("nested", Json.List [ Json.Obj [ ("k", Json.Null) ]; Json.Bool false ]);
        ("negative", Json.Int (-42));
        ("float", Json.Float 2.5);
        ("escapes", Json.String "line\nbreak \"quoted\" back\\slash\ttab");
      ]
  in
  check Alcotest.bool "pretty round-trips" true (json_roundtrip tricky);
  check Alcotest.bool "minified round-trips" true
    (match Json.of_string (Json.to_string ~minify:true tricky) with
    | Ok parsed -> parsed = tricky
    | Error _ -> false);
  check Alcotest.bool "garbage rejected" true
    (match Json.of_string "{\"a\": }" with Error _ -> true | Ok _ -> false)

let table_json_and_csv () =
  let t = Table.create ~title:"t" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "needs,quoting"; "2" ];
  let json = Table.to_json t in
  check Alcotest.bool "table json round-trips" true (json_roundtrip json);
  (match Json.member "rows" json with
  | Some (Json.List rows) -> check Alcotest.int "row count" 2 (List.length rows)
  | _ -> Alcotest.fail "rows missing");
  let csv = Table.to_csv t in
  check Alcotest.bool "csv quotes commas" true
    (let lines = String.split_on_char '\n' csv in
     List.exists (fun l -> l = "\"needs,quoting\",2") lines)

let trace_json_roundtrip () =
  let g, sc = grid_shortcut () in
  let values = Array.init (Graph.n g) (fun v -> v) in
  let recorder = Trace.Recorder.create () in
  let profile = Trace.Profile.create ~edges:(Graph.m g) () in
  let tracer =
    Trace.tee [ Trace.Recorder.tracer recorder; Trace.Profile.tracer profile ]
  in
  let out = Sim_aggregate.minimum ~tracer (Rng.create 5) sc ~values in
  check Alcotest.bool "events json round-trips" true
    (json_roundtrip (Trace.Recorder.to_json recorder));
  let pjson = Trace.Profile.to_json profile in
  check Alcotest.bool "profile json round-trips" true (json_roundtrip pjson);
  (* The exported totals agree with the run's stats. *)
  (match Json.member "total_words" pjson with
  | Some (Json.Int w) ->
      check Alcotest.int "exported words" out.Sim_aggregate.stats.Simulator.words w
  | _ -> Alcotest.fail "total_words missing");
  match Json.member "edge_words" pjson with
  | Some (Json.List pairs) ->
      let total =
        List.fold_left
          (fun acc pair ->
            match pair with
            | Json.List [ Json.Int _; Json.Int w ] -> acc + w
            | _ -> Alcotest.fail "bad edge_words entry")
          0 pairs
      in
      check Alcotest.int "exported per-edge totals sum to words"
        out.Sim_aggregate.stats.Simulator.words total
  | _ -> Alcotest.fail "edge_words missing"

let outcome_json () =
  let table = Table.create [ ("x", Table.Left) ] in
  Table.add_row table [ "1" ];
  let outcome =
    { Lcs_experiments.Exp_types.id = "E0"; title = "synthetic"; table; notes = [ "n" ] }
  in
  let json = Lcs_experiments.Exp_types.to_json outcome in
  check Alcotest.bool "outcome json round-trips" true (json_roundtrip json);
  match (Json.member "id" json, Json.member "notes" json) with
  | Some (Json.String "E0"), Some (Json.List [ Json.String "n" ]) -> ()
  | _ -> Alcotest.fail "outcome fields wrong"

(* --- bounded recorder / streaming sink / sketch profiles ----------------- *)

let send ~edge ~words =
  Trace.Send
    {
      round = 1;
      src = 0;
      dst = 1;
      edge;
      words;
      id = 0;
      parents = [];
      part = 0;
      phase = "";
    }

let recorder_cap_drops () =
  let r = Trace.Recorder.create ~cap:5 () in
  let t = Trace.Recorder.tracer r in
  for round = 1 to 9 do
    t (Trace.Round_start { round; live = 1 })
  done;
  check Alcotest.int "kept at the cap" 5 (Trace.Recorder.length r);
  check Alcotest.int "overflow counted" 4 (Trace.Recorder.dropped r);
  check Alcotest.int "kept events are the earliest" 5
    (List.length (Trace.Recorder.events r));
  (match Trace.Recorder.to_json r with
  | Json.List items -> (
      check Alcotest.int "json keeps events + marker" 6 (List.length items);
      match List.nth items 5 with
      | Json.Obj _ as marker ->
          check Alcotest.bool "marker tagged truncated" true
            (Json.member "t" marker = Some (Json.String "truncated"));
          check Alcotest.bool "marker carries the count" true
            (Json.member "dropped" marker = Some (Json.Int 4))
      | _ -> Alcotest.fail "last item is not the truncation marker")
  | _ -> Alcotest.fail "recorder json is not a list");
  (* An uncapped recorder emits no marker. *)
  let r0 = Trace.Recorder.create ~cap:0 () in
  for round = 1 to 9 do
    Trace.Recorder.tracer r0 (Trace.Round_start { round; live = 1 })
  done;
  check Alcotest.int "cap:0 keeps everything" 9 (Trace.Recorder.length r0);
  match Trace.Recorder.to_json r0 with
  | Json.List items -> check Alcotest.int "no marker when nothing dropped" 9 (List.length items)
  | _ -> Alcotest.fail "recorder json is not a list"

let stream_roundtrip () =
  let path = Filename.temp_file "lcs_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let g, sc = grid_shortcut () in
      let values = Array.init (Graph.n g) (fun v -> (v * 7) mod 101) in
      let recorder = Trace.Recorder.create () in
      let profile = Trace.Profile.create ~edges:(Graph.m g) () in
      let sink =
        Trace.Stream.create ~meta:[ ("m", Json.Int (Graph.m g)) ] path
      in
      let tracer =
        Trace.tee
          [
            Trace.Recorder.tracer recorder;
            Trace.Profile.tracer profile;
            Trace.Stream.tracer sink;
          ]
      in
      let _out = Sim_aggregate.minimum ~tracer (Rng.create 9) sc ~values in
      Trace.Stream.snapshot sink
        (Trace.Flight.of_profile ~round:(Trace.Profile.rounds profile) profile);
      Trace.Stream.close sink;
      check Alcotest.int "sink saw every event"
        (Trace.Recorder.length recorder)
        (Trace.Stream.events_written sink);
      check Alcotest.int "one snapshot line" 1 (Trace.Stream.snapshots_written sink);
      (* Replay the file into a fresh recorder: same events, in order, and
         the header / snapshot lines land in their callbacks. *)
      let replayed = Trace.Recorder.create () in
      let metas = ref 0 and snaps = ref [] in
      (match
         Trace.Stream.replay
           ~on_meta:(fun j ->
             incr metas;
             check Alcotest.bool "header keeps caller meta" true
               (Json.member "m" j = Some (Json.Int (Graph.m g))))
           ~on_snapshot:(fun s -> snaps := s :: !snaps)
           path
           (Trace.Recorder.tracer replayed)
       with
      | Ok n ->
          check Alcotest.int "replay count" (Trace.Recorder.length recorder) n
      | Error msg -> Alcotest.fail msg);
      check Alcotest.int "one header" 1 !metas;
      (match !snaps with
      | [ s ] ->
          check Alcotest.int "snapshot words" (Trace.Profile.total_words profile)
            s.Trace.Flight.words;
          check Alcotest.int "snapshot round" (Trace.Profile.rounds profile)
            s.Trace.Flight.round
      | _ -> Alcotest.fail "expected exactly one snapshot");
      check Alcotest.bool "events identical after the disk round-trip" true
        (Trace.Recorder.events recorder = Trace.Recorder.events replayed);
      (* A profile rebuilt from the replayed events matches the live one
         byte-for-byte — the property `lcs top` depends on. *)
      let rebuilt = Trace.Profile.create ~edges:(Graph.m g) () in
      List.iter (Trace.Profile.tracer rebuilt) (Trace.Recorder.events replayed);
      check Alcotest.string "profile rebuilt from stream is byte-identical"
        (Json.to_string (Trace.Profile.to_json profile))
        (Json.to_string (Trace.Profile.to_json rebuilt)))

(* Readers index arrays with an event's round, nodes and edge, and walk
   a message's parents back to earlier ids, so a stream event outside its
   header's bounds, below round 1, before an earlier round of its run, or
   with an id below 1 or a parent that is not an earlier id must stop the
   fold with its line number. A stream of two runs, each opening at round
   1, stays valid. *)
let stream_rejects_out_of_range_events () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let partition = Partition.grid_rows g ~rows:4 ~cols:4 in
  let sc = (Boost.full partition ~tree:(Bfs.tree g ~root:0)).Boost.shortcut in
  let values = Array.init (Graph.n g) (fun v -> (v * 7) mod 11) in
  let path = Filename.temp_file "lcs_stream" ".jsonl" in
  let bad = Filename.temp_file "lcs_stream_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; bad ])
    (fun () ->
      let sink =
        Trace.Stream.create
          ~meta:[ ("n", Json.Int (Graph.n g)); ("m", Json.Int (Graph.m g)) ]
          path
      in
      let tracer = Trace.Stream.tracer sink in
      ignore (Sync_bfs.run ~tracer g ~root:0);
      ignore (Sim_aggregate.minimum ~tracer (Rng.create 3) sc ~values);
      Trace.Stream.close sink;
      let read p = Trace.Stream.fold p ~init:0 ~f:(fun k _ -> k + 1) in
      (match read path with
      | Ok lines -> check Alcotest.int "every line read" (Trace.Stream.events_written sink + 1) lines
      | Error e -> Alcotest.fail ("two-run stream: " ^ e));
      let lines =
        Array.of_list
          (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))
      in
      let field key line =
        match Json.of_string line with
        | Ok j -> Json.member key j
        | Error e -> Alcotest.fail e
      in
      let first_line p =
        let rec go i = if p lines.(i) then i else go (i + 1) in
        go 0
      in
      let is_send line = field "t" line = Some (Json.String "send") in
      let expect_error ~at key value =
        let mutated =
          match Json.of_string lines.(at) with
          | Ok (Json.Obj fields) ->
              Json.to_string ~minify:true
                (Json.Obj (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields))
          | _ -> Alcotest.fail "event line is not an object"
        in
        Out_channel.with_open_bin bad (fun oc ->
            output_string oc
              (String.concat "\n" (Array.to_list (Array.mapi (fun i l -> if i = at then mutated else l) lines))));
        let label = Printf.sprintf "%s = %s" key (Json.to_string ~minify:true value) in
        match read bad with
        | Ok _ -> Alcotest.failf "%s: accepted" label
        | Error e ->
            let prefix = Printf.sprintf "line %d: " (at + 1) in
            check Alcotest.bool (label ^ ": located error") true
              (String.length e > String.length prefix
              && String.sub e 0 (String.length prefix) = prefix)
      in
      let send = first_line is_send in
      let id = Option.get (field "id" lines.(send)) in
      List.iter
        (fun (key, value) -> expect_error ~at:send key value)
        (List.map
           (fun (key, v) -> (key, Json.Int v))
           [
             ("round", -1); ("round", 0); ("edge", -1); ("src", -1);
             ("dst", Graph.n g); ("edge", 999); ("words", -5); ("id", 0);
           ]
        @ [ ("parents", Json.List [ Json.Int 0 ]); ("parents", Json.List [ id ]) ]);
      (* A send of round 2 moved back to round 1 inside the same run. *)
      expect_error
        ~at:(first_line (fun l -> is_send l && field "round" l = Some (Json.Int 2)))
        "round" (Json.Int 1))

(* A JSON run report is checked as a stream is: the report's "n" and "m"
   bound its events, and the first event out of range is refused with its
   index in the "events" array. *)
let report_rejects_out_of_range_events () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let recorder = Trace.Recorder.create () in
  ignore (Sync_bfs.run ~tracer:(Trace.Recorder.tracer recorder) g ~root:0);
  let events = match Trace.Recorder.to_json recorder with Json.List l -> l | _ -> [] in
  let report events =
    Json.Obj
      [ ("n", Json.Int (Graph.n g)); ("m", Json.Int (Graph.m g)); ("events", Json.List events) ]
  in
  (match Analyze.of_json (report events) with
  | Ok runs -> check Alcotest.int "unedited report analyzes" 1 (List.length runs)
  | Error e -> Alcotest.fail ("unedited report: " ^ e));
  let rec first_send i = function
    | ev :: rest -> if Json.member "t" ev = Some (Json.String "send") then i else first_send (i + 1) rest
    | [] -> Alcotest.fail "no send event"
  in
  let send = first_send 0 events in
  let id = Option.get (Json.member "id" (List.nth events send)) in
  List.iter
    (fun (key, value) ->
      let edit = function
        | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields)
        | ev -> ev
      in
      let label = Printf.sprintf "%s = %s" key (Json.to_string ~minify:true value) in
      match Analyze.of_json (report (List.mapi (fun i ev -> if i = send then edit ev else ev) events)) with
      | Ok _ -> Alcotest.failf "%s: accepted" label
      | Error e ->
          check Alcotest.bool (label ^ ": names the event") true
            (String.starts_with ~prefix:(Printf.sprintf "events[%d]: " send) e))
    (List.map
       (fun (key, v) -> (key, Json.Int v))
       [ ("round", -1); ("edge", -1); ("src", 99); ("words", -5); ("id", 0) ]
    @ [ ("parents", Json.List [ Json.Int 0 ]); ("parents", Json.List [ id ]) ])

let profile_sketch_mode () =
  (* Same event stream through both accounting modes: with the budget
     above the distinct-edge count the sketch is exact, so every exported
     aggregate agrees and only the sketch metadata differs. *)
  let events =
    Trace.Round_start { round = 1; live = 2 }
    :: List.map
         (fun (edge, words) -> send ~edge ~words)
         [ (0, 5); (1, 9); (2, 2); (3, 7); (0, 4); (2, 1) ]
    @ [ Trace.Round_end { round = 1; max_edge_load = 9 } ]
  in
  let exact = Trace.Profile.create ~mode:Trace.Profile.Exact ~edges:4 () in
  let sketch = Trace.Profile.create ~mode:(Trace.Profile.Sketch 8) ~edges:4 () in
  List.iter
    (fun p -> List.iter (Trace.Profile.tracer p) events)
    [ exact; sketch ];
  check Alcotest.int "same words" (Trace.Profile.total_words exact)
    (Trace.Profile.total_words sketch);
  check Alcotest.bool "same top edges" true
    (Trace.Profile.top_edges ~k:4 exact = Trace.Profile.top_edges ~k:4 sketch);
  check Alcotest.bool "same dense export" true
    (Trace.Profile.edge_words exact = Trace.Profile.edge_words sketch);
  check Alcotest.int "sketch export matches edge count" 4
    (Array.length (Trace.Profile.edge_words sketch));
  let ejson = Trace.Profile.to_json exact
  and sjson = Trace.Profile.to_json sketch in
  check Alcotest.bool "exact json omits sketch fields" true
    (Json.member "sketch" ejson = None && Json.member "mode" ejson = None);
  check Alcotest.bool "sketch json declares its mode" true
    (Json.member "mode" sjson = Some (Json.String "sketch"));
  check Alcotest.bool "sketch json exports error bounds" true
    (match (Json.member "sketch" sjson, Json.member "top_edges_overcount" sjson) with
    | Some (Json.Obj fields), Some (Json.List _) ->
        List.mem_assoc "budget" fields
        && List.mem_assoc "max_overcount" fields
        && List.mem_assoc "threshold" fields
    | _ -> false);
  (* Mode auto-selection: a huge host graph flips to sketching, a small
     one stays exact. *)
  (match Trace.Profile.mode (Trace.Profile.create ~edges:1_000_001 ()) with
  | Trace.Profile.Sketch b -> check Alcotest.bool "default budget positive" true (b > 0)
  | Trace.Profile.Exact -> Alcotest.fail "huge graph should auto-select sketching");
  match Trace.Profile.mode (Trace.Profile.create ~edges:100 ()) with
  | Trace.Profile.Exact -> ()
  | Trace.Profile.Sketch _ -> Alcotest.fail "small graph should stay exact"

let histogram_bucket_widths () =
  (* Small range: equal-width bins, contiguous from 1, covering every
     loaded edge exactly once. *)
  let feed edges_words =
    let p = Trace.Profile.create ~edges:(List.length edges_words) () in
    List.iteri
      (fun edge words -> Trace.Profile.tracer p (send ~edge ~words))
      edges_words;
    p
  in
  let small = feed [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let hist = Trace.Profile.histogram ~buckets:4 small in
  check Alcotest.int "small: bucket count" 4 (List.length hist);
  check Alcotest.bool "small: equal widths" true
    (List.for_all (fun (lo, hi, _) -> hi - lo = 1) hist);
  check Alcotest.int "small: covers all edges" 8
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 hist);
  (* Word totals spanning orders of magnitude: equal-width bins would put
     everything except the maximum in bucket one, so the exact path must
     switch to octave-scaled bins — several non-degenerate buckets, still
     a partition of the loaded edges. *)
  let values = [ 1; 1000; 2_000_000; 9_999_999 ] in
  let wide = feed values in
  let whist = Trace.Profile.histogram ~buckets:4 wide in
  check Alcotest.bool "wide: more than one occupied bucket" true
    (List.length (List.filter (fun (_, _, c) -> c > 0) whist) >= 3);
  check Alcotest.int "wide: covers all edges" (List.length values)
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 whist);
  check Alcotest.bool "wide: bounds ordered and ascending" true
    (let rec ok = function
       | (lo, hi, _) :: ((lo', _, _) :: _ as rest) -> lo <= hi && hi < lo' + 1 && ok rest
       | [ (lo, hi, _) ] -> lo <= hi
       | [] -> true
     in
     ok whist);
  check Alcotest.bool "wide: every value falls in a bucket" true
    (List.for_all
       (fun v -> List.exists (fun (lo, hi, _) -> lo <= v && v <= hi) whist)
       values)

let suite =
  [
    case "tracing transparent: sync bfs" `Quick tracing_is_transparent_bfs;
    case "tracing transparent: leader election" `Quick tracing_is_transparent_leader;
    case "profile reconciles with stats" `Quick profile_totals_match_stats;
    case "profiled convergecast" `Quick profiled_convergecast;
    case "router tracing reconciles" `Quick router_tracing_reconciles;
    case "recorder stream well-formed" `Quick recorder_stream_well_formed;
    case "recorder cap drops and marks" `Quick recorder_cap_drops;
    case "stream sink round-trips" `Quick stream_roundtrip;
    case "stream rejects out-of-range events" `Quick stream_rejects_out_of_range_events;
    case "report rejects out-of-range events" `Quick report_rejects_out_of_range_events;
    case "profile sketch mode" `Quick profile_sketch_mode;
    case "histogram bucket widths" `Quick histogram_bucket_widths;
    case "json value round-trip" `Quick json_value_roundtrip;
    case "table json and csv" `Quick table_json_and_csv;
    case "trace json round-trip" `Quick trace_json_roundtrip;
    case "experiment outcome json" `Quick outcome_json;
  ]
