(* Shared run-report assembly for lcs_cli subcommands: one JSON schema
   (command/protocol/seed/n/m + per-command extras + profile/events +
   spans/metrics/ledger) and one writer, so `pa`, `shortcut` and `mst`
   cannot drift apart. *)

open Core

let stats_json (stats : Simulator.stats) =
  Json.Obj
    [
      ("rounds", Json.Int stats.Simulator.rounds);
      ("messages", Json.Int stats.Simulator.messages);
      ("words", Json.Int stats.Simulator.words);
      ("max_edge_load", Json.Int stats.Simulator.max_edge_load);
    ]

(* The "spans" / "metrics" / "ledger" objects an installed collector adds
   to a run report; absent (not null) when no collector ran. *)
let obs_fields = function
  | None -> []
  | Some o ->
      [
        ("spans", Obs.spans_to_json o);
        ("metrics", Obs.metrics_to_json o);
        ("ledger", Obs.ledger_to_json o);
      ]

let assemble ~command ~protocol ~seed ~g ?(extra = []) ?profile ?recorder ?obs
    () =
  Json.Obj
    ([
       ("command", Json.String command);
       ("protocol", Json.String protocol);
       ("seed", Json.Int seed);
       ("n", Json.Int (Graph.n g));
       ("m", Json.Int (Graph.m g));
     ]
    @ extra
    @ (match profile with
      | None -> []
      | Some p -> [ ("profile", Trace.Profile.to_json p) ])
    @ (match recorder with
      | None -> []
      | Some r -> [ ("events", Trace.Recorder.to_json r) ])
    @ obs_fields obs)

let write_json path doc ~describe =
  match open_out path with
  | oc ->
      output_string oc (Json.to_string doc);
      output_string oc "\n";
      close_out oc;
      describe ()
  | exception Sys_error msg ->
      Printf.eprintf "lcs: cannot write %s: %s\n" path msg;
      exit 1

(* Write the collector's span tree as Chrome trace-event JSON (--spans).
   When a recorder captured the run's event stream, the critical path of
   each run rides along as flow events (Perfetto arrows between causally
   linked sends) on synthetic processes next to the wall-clock spans.
   When a wall-clock collector profiled a sharded run (--par-profile),
   its per-domain tracks (pid 0) merge in on the same clock: their
   timestamps are rebased to the span collector's epoch, so domain busy
   slices line up under the algorithm spans that ran them. *)
let write_spans ?recorder ?par spans obs =
  match (spans, obs) with
  | Some path, Some o ->
      let flows =
        match recorder with
        | None -> []
        | Some r ->
            List.concat_map Analyze.flow_events
              (Analyze.of_events (Trace.Recorder.events r))
      in
      let par_events =
        match par with
        | None -> []
        | Some pp -> Par_profile.chrome_events ~t0:(Obs.epoch_s o) pp
      in
      let doc =
        match (par_events @ flows, Obs.to_chrome_json o) with
        | [], doc -> doc
        | extra, Json.Obj fields ->
            Json.Obj
              (List.map
                 (function
                   | "traceEvents", Json.List evs ->
                       ("traceEvents", Json.List (evs @ extra))
                   | field -> field)
                 fields)
        | _, doc -> doc
      in
      write_json path doc ~describe:(fun () ->
          Printf.printf "spans: wrote %s (%d spans, max depth %d)\n" path
            (Obs.span_count o) (Obs.max_depth o))
  | _ -> ()

(* Write the wall-clock collector's lcs-par-profile/1 report
   (--par-profile OUT.json), with the speedup-loss decomposition echoed
   on stdout so the headline numbers need no JSON spelunking. *)
let write_par_profile path pp =
  match path with
  | None -> ()
  | Some path ->
      let d = Par_profile.decomposition pp in
      write_json path (Par_profile.to_json pp) ~describe:(fun () ->
          Printf.printf
            "par-profile: wrote %s (%d domains, %d rounds, imbalance %.2f; wall \
             %.4fs = parallel %.4f + imbalance %.4f + barrier %.4f + serial %.4f \
             + other %.4f)\n"
            path (Par_profile.domains pp) (Par_profile.rounds pp)
            (Par_profile.imbalance pp) d.Par_profile.d_wall_s
            d.Par_profile.d_parallel_s d.Par_profile.d_imbalance_s
            d.Par_profile.d_barrier_s d.Par_profile.d_serial_s
            d.Par_profile.d_other_s)

(* Tracing harness: a recorder + profile pair tee'd into one tracer, or
   nothing when the report does not need them. [mode] selects the
   profile's accounting mode (--sketch). *)
let tracing ?mode g ~on =
  if not on then (None, None, None)
  else
    let recorder = Trace.Recorder.create () in
    let profile = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
    let tracer =
      Trace.tee [ Trace.Profile.tracer profile; Trace.Recorder.tracer recorder ]
    in
    (Some recorder, Some profile, Some tracer)

(* --- streaming traces (--trace FILE.jsonl) ------------------------------ *)

(* Trace output format by extension, mirroring the graph loader's .bin
   convention: a .jsonl suffix selects the line-delimited streaming sink
   (lcs-trace-stream/1), anything else the in-memory JSON run report. *)
let is_stream path = Filename.check_suffix path ".jsonl"

let run_meta ~command ~protocol ~seed g =
  [
    ("command", Json.String command);
    ("protocol", Json.String protocol);
    ("seed", Json.Int seed);
    ("n", Json.Int (Graph.n g));
    ("m", Json.Int (Graph.m g));
  ]

let open_stream g ~command ~protocol ~seed path =
  match Trace.Stream.create ~meta:(run_meta ~command ~protocol ~seed g) path with
  | sink -> sink
  | exception Sys_error msg ->
      Printf.eprintf "lcs: cannot write %s: %s\n" path msg;
      exit 1

(* Streaming tracing harness: the congestion profile plus the
   line-delimited sink — no in-memory recorder, so resident memory stays
   O(1) in the event count. *)
let stream_tracing ?mode g ~command ~protocol ~seed path =
  let sink = open_stream g ~command ~protocol ~seed path in
  let profile = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
  (sink, profile, Trace.tee [ Trace.Profile.tracer profile; Trace.Stream.tracer sink ])

(* Close a sink after one final snapshot, so `lcs top` always has the
   end-of-run vital signs even when no cadence was requested. *)
let finish_stream path sink profile =
  Trace.Stream.snapshot sink
    (Trace.Flight.of_profile ~round:(Trace.Profile.rounds profile) profile);
  Trace.Stream.close sink;
  Printf.printf
    "trace: streamed %s (%d events, %d snapshots; %d words over %d edges \
     in %d rounds)\n"
    path
    (Trace.Stream.events_written sink)
    (Trace.Stream.snapshots_written sink)
    (Trace.Profile.total_words profile)
    (Trace.Profile.edges_used profile)
    (Trace.Profile.rounds profile)
