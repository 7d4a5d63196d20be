(* Shared trace and report output for lcs_cli subcommands. A traced run
   writes one lcs-trace-stream/2 file: the header (command, protocol,
   seed, n, m), the events, a final snapshot, and a report line
   (per-command extras, profile, spans/metrics/ledger), so `pa`,
   `shortcut` and `mst` cannot drift apart. *)

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

(* The header every trace stream opens with. *)
let run_meta ~command ~protocol ~seed g =
  [
    ("command", Json.String command);
    ("protocol", Json.String protocol);
    ("seed", Json.Int seed);
    ("n", Json.Int (Graph.n g));
    ("m", Json.Int (Graph.m g));
  ]

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
   When a wall-clock collector profiled the run (--par-profile), its
   per-domain tracks (pid 0) merge in on the same clock: their timestamps
   are rebased to the span collector's epoch, so domain busy slices line
   up under the algorithm spans that ran them. A span collector does not
   trace its run, so a sharded run shows one track per domain. *)
let write_spans ?par spans obs =
  match (spans, obs) with
  | Some path, Some o ->
      let doc =
        match (par, Obs.to_chrome_json o) with
        | Some pp, Json.Obj fields ->
            let extra = Par_profile.chrome_events ~t0:(Obs.epoch_s o) pp in
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

(* --- trace streams (--trace PATH) --------------------------------------- *)

let open_stream meta path =
  match Trace.Stream.create ~meta path with
  | sink -> sink
  | exception Sys_error msg ->
      Printf.eprintf "lcs: cannot write %s: %s\n" path msg;
      exit 1

(* Tracing harness: under --trace, the stream [sink], so resident memory
   stays O(1) in the event count, teed with the congestion profile its
   report line holds; nothing otherwise, so the run stays untraced.
   [mode] selects the profile's accounting mode (--sketch). *)
let tracing ?mode sink g =
  match sink with
  | None -> (None, None)
  | Some sink ->
      let profile = Trace.Profile.create ?mode ~edges:(Graph.m g) () in
      ( Some profile,
        Some (Trace.tee [ Trace.Profile.tracer profile; Trace.Stream.tracer sink ]) )

(* Close a sink after one final snapshot, so `lcs top` always has the
   end-of-run vital signs even when no cadence was requested, and after
   the run's [report] line when there is one. *)
let finish_stream ?report path sink profile =
  Trace.Stream.snapshot sink
    (Trace.Flight.of_profile ~round:(Trace.Profile.rounds profile) profile);
  Option.iter (Trace.Stream.report sink) report;
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
