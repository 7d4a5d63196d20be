(* Tests for the span/metrics/ledger layer: spans must be well-nested and
   never raise, an installed collector must not perturb the run it
   observes, and the Chrome trace-event export must round-trip through
   [Util.Json.of_string] with well-formed [ph]/[ts]/[dur] fields. *)

open Core

let check = Alcotest.check
let case = Alcotest.test_case

let grid_shortcut () =
  let g = Generators.grid ~rows:6 ~cols:6 in
  let partition = Partition.grid_rows g ~rows:6 ~cols:6 in
  let tree = Bfs.tree g ~root:0 in
  (g, (Boost.full partition ~tree).Boost.shortcut)

(* --- span discipline ----------------------------------------------------- *)

let span_none_is_identity () =
  let calls = ref 0 in
  let r = Obs.span None "phase" (fun () -> incr calls; 41 + 1) in
  check Alcotest.int "result" 42 r;
  check Alcotest.int "body ran once" 1 !calls;
  (* Imperative variants are no-ops without a collector. *)
  Obs.enter None "x";
  Obs.exit None;
  Obs.note None "k" (Obs.Int 1);
  Obs.add_rounds None 3

let span_closes_on_exception () =
  let o = Obs.create () in
  let obs = Some o in
  (try
     Obs.span obs "outer" (fun () ->
         Obs.span obs "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check Alcotest.int "both spans closed" 0 (Obs.open_depth o);
  check Alcotest.int "both spans recorded" 2 (Obs.span_count o);
  (* A stray exit on a quiesced collector is ignored, not an error. *)
  Obs.exit obs;
  check Alcotest.int "stray exit ignored" 0 (Obs.open_depth o)

let rounds_propagate_to_parent () =
  let o = Obs.create () in
  let obs = Some o in
  Obs.span obs "parent" (fun () ->
      Obs.add_rounds obs 5;
      Obs.span obs "child" (fun () -> Obs.add_rounds obs 7));
  let by_name n = List.find (fun s -> s.Obs.name = n) (Obs.spans o) in
  check Alcotest.int "child rounds" 7 (by_name "child").Obs.rounds;
  check Alcotest.int "parent rounds inclusive" 12 (by_name "parent").Obs.rounds

(* Random enter/exit scripts: the recorded tree must match a reference
   stack interpretation — every exit closes the innermost open span. *)
let spans_well_nested =
  QCheck.Test.make ~name:"spans are well-nested under random enter/exit"
    ~count:200
    QCheck.(small_list (int_bound 2))
    (fun script ->
      let o = Obs.create () in
      let obs = Some o in
      (* Reference model: stack of span names. *)
      let model = ref [] and expected = ref [] and fresh = ref 0 in
      let push () =
        let name = Printf.sprintf "s%d" !fresh in
        incr fresh;
        model := name :: !model;
        Obs.enter obs name
      in
      let pop () =
        (match !model with
        | top :: rest ->
            model := rest;
            expected := (top, List.length rest) :: !expected
        | [] -> ());
        (* Always issue the exit — on an empty stack it must be ignored. *)
        Obs.exit obs
      in
      List.iter (fun op -> if op = 0 then push () else pop ()) script;
      while !model <> [] do
        pop ()
      done;
      let spans = Obs.spans o in
      Obs.open_depth o = 0
      && List.length spans = List.length !expected
      (* Exit order = recorded close order is not exposed, but names,
         depths and parent links fully determine the nesting. *)
      && List.for_all
           (fun s ->
             List.mem (s.Obs.name, s.Obs.depth) !expected
             && (if s.Obs.depth = 0 then s.Obs.parent = -1
                 else
                   match
                     List.find_opt (fun p -> p.Obs.id = s.Obs.parent) spans
                   with
                   | Some p ->
                       p.Obs.depth = s.Obs.depth - 1 && p.Obs.id < s.Obs.id
                   | None -> false)
             (* Wall-clock intervals nest: children within parents. *)
             && (s.Obs.parent = -1
                 ||
                 let p = List.find (fun p -> p.Obs.id = s.Obs.parent) spans in
                 p.Obs.start_s <= s.Obs.start_s
                 && s.Obs.start_s +. s.Obs.dur_s
                    <= p.Obs.start_s +. p.Obs.dur_s +. 1e-9))
           spans)

(* --- an installed collector does not perturb the run --------------------- *)

let collector_is_transparent () =
  let g, sc = grid_shortcut () in
  let values = Array.init (Graph.n g) (fun v -> (v * 131) mod 997) in
  let run obs =
    let recorder = Trace.Recorder.create () in
    let out =
      Sim_aggregate.minimum ?obs
        ~tracer:(Trace.Recorder.tracer recorder)
        (Rng.create 11) sc ~values
    in
    (out, Json.to_string (Trace.Recorder.to_json recorder))
  in
  let plain, events_plain = run None in
  let o = Obs.create () in
  let observed, events_observed = run (Some o) in
  check Alcotest.bool "same minima" true
    (plain.Sim_aggregate.minima = observed.Sim_aggregate.minima);
  check Alcotest.int "same rounds" plain.Sim_aggregate.stats.Simulator.rounds
    observed.Sim_aggregate.stats.Simulator.rounds;
  check Alcotest.int "same words" plain.Sim_aggregate.stats.Simulator.words
    observed.Sim_aggregate.stats.Simulator.words;
  check Alcotest.string "event-identical" events_plain events_observed;
  check Alcotest.bool "collector recorded spans" true (Obs.span_count o > 0)

let pa_ledger_has_bounds () =
  let g, sc = grid_shortcut () in
  let values = Array.init (Graph.n g) (fun v -> (v * 17) mod 401) in
  let o = Obs.create () in
  let _ = Sim_aggregate.minimum ~obs:o (Rng.create 5) sc ~values in
  let metrics = List.map (fun e -> e.Obs.metric) (Obs.ledger o) in
  check Alcotest.bool "rounds entry" true (List.mem "rounds" metrics);
  check Alcotest.bool "congestion entry" true (List.mem "congestion" metrics);
  List.iter
    (fun e ->
      check Alcotest.bool "predicted positive" true (e.Obs.predicted > 0.);
      check Alcotest.bool "observed non-negative" true (e.Obs.observed >= 0.))
    (Obs.ledger o)

(* --- MST span tree ------------------------------------------------------- *)

let mst_spans () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let w = Weights.random_distinct (Rng.create 2) g in
  let o = Obs.create () in
  let result = Mst.boruvka ~obs:o ~seed:7 w in
  check Alcotest.bool "mst correct" true (result.Mst.edges = Kruskal.mst w);
  check Alcotest.bool "at least 3 nesting levels" true (Obs.max_depth o >= 3);
  let names = List.map (fun s -> s.Obs.name) (Obs.spans o) in
  List.iter
    (fun n -> check Alcotest.bool n true (List.mem n names))
    [ "mst"; "boruvka"; "boruvka.phase"; "pa"; "pa.epoch" ];
  (o, g)

let mst_chrome_roundtrip () =
  let o, _ = mst_spans () in
  let doc = Obs.to_chrome_json o in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "chrome JSON does not re-parse: %s" e
  | Ok reparsed -> (
      match Json.member "traceEvents" reparsed with
      | Some (Json.List events) ->
          check Alcotest.int "one event per span" (Obs.span_count o)
            (List.length events);
          List.iter
            (fun e ->
              (match Json.member "ph" e with
              | Some (Json.String "X") -> ()
              | other ->
                  Alcotest.failf "ph must be \"X\", got %s"
                    (match other with
                    | Some j -> Json.to_string j
                    | None -> "<absent>"));
              let non_negative_number key =
                match Json.member key e with
                | Some (Json.Float f) ->
                    check Alcotest.bool (key ^ " >= 0") true (f >= 0.)
                | Some (Json.Int i) ->
                    check Alcotest.bool (key ^ " >= 0") true (i >= 0)
                | _ -> Alcotest.failf "%s must be a number" key
              in
              non_negative_number "ts";
              non_negative_number "dur";
              match Json.member "name" e with
              | Some (Json.String n) ->
                  check Alcotest.bool "name non-empty" true (String.length n > 0)
              | _ -> Alcotest.fail "name must be a string")
            events
      | _ -> Alcotest.fail "traceEvents must be an array")

(* --- metrics registry ---------------------------------------------------- *)

let metrics_registry () =
  let o = Obs.create () in
  let obs = Some o in
  Obs.count obs "merges" 2;
  Obs.count obs "merges" 3;
  Obs.gauge obs "congestion" 4.;
  Obs.gauge obs "congestion" 6.;
  List.iter (fun x -> Obs.observe obs "rounds" x) [ 1.; 2.; 3.; 4. ];
  let doc = Obs.metrics_to_json o in
  let counter =
    Option.bind (Json.member "counters" doc) (Json.member "merges")
  in
  check Alcotest.bool "counter accumulates" true (counter = Some (Json.Int 5));
  let g = Option.bind (Json.member "gauges" doc) (Json.member "congestion") in
  check Alcotest.bool "gauge last-write-wins" true (g = Some (Json.Float 6.));
  (match
     Option.bind (Json.member "histograms" doc) (Json.member "rounds")
   with
  | Some h ->
      check Alcotest.bool "histogram has p99" true (Json.member "p99" h <> None)
  | None -> Alcotest.fail "histogram missing");
  (* The table export flattens the same registry. *)
  let rendered = Table.render (Obs.metrics_table o) in
  check Alcotest.bool "table mentions merges" true
    (String.length rendered > 0)

(* --- Stats percentiles --------------------------------------------------- *)

let percentiles_monotone =
  QCheck.Test.make ~name:"Stats summary: p50 <= p90 <= p99 <= max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) (float_range 0. 1000.))
    (fun samples ->
      let s = Stats.summarize (Array.of_list samples) in
      s.Stats.min <= s.Stats.p50
      && s.Stats.p50 <= s.Stats.p90
      && s.Stats.p90 <= s.Stats.p99
      && s.Stats.p99 <= s.Stats.max
      && s.Stats.median = s.Stats.p50)

let summary_to_json_fields () =
  let s = Stats.summarize [| 3.; 1.; 2.; 4. |] in
  let doc = Stats.summary_to_json s in
  List.iter
    (fun key ->
      check Alcotest.bool (key ^ " present") true (Json.member key doc <> None))
    [ "count"; "mean"; "stddev"; "min"; "max"; "p50"; "p90"; "p99" ]

(* --- bounded-memory sketches ------------------------------------------------ *)

module Ss = Lcs_util.Sketch.Space_saving
module Qn = Lcs_util.Sketch.Quantile

let exact_counts stream =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, w) ->
      Hashtbl.replace tbl k (w + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    stream;
  tbl

let stream_gen = QCheck.(list (pair (int_bound 50) (int_range 1 20)))

(* When the distinct keys fit the budget Space-Saving degenerates to exact
   counting: no evictions, zero overcounts. *)
let ss_exact_under_budget =
  QCheck.Test.make ~name:"space-saving: exact when keys fit the budget"
    ~count:200
    QCheck.(list (pair (int_bound 7) (int_range 1 9)))
    (fun stream ->
      let ss = Ss.create 8 in
      List.iter (fun (k, w) -> Ss.add ss k w) stream;
      let tbl = exact_counts stream in
      Ss.evictions ss = 0
      && Ss.max_overcount ss = 0
      && List.for_all
           (fun (k, est, err) -> err = 0 && Hashtbl.find_opt tbl k = Some est)
           (Ss.entries ss))

(* The deterministic Space-Saving bounds, against brute-force counts:
   est - err <= truth <= est for every tracked key, and every key whose
   true count exceeds total/budget is guaranteed tracked — the superset
   half of the top-k guarantee. *)
let ss_bounds_hold =
  QCheck.Test.make ~name:"space-saving: overcount bounds + heavy hitters"
    ~count:300 stream_gen
    (fun stream ->
      let cap = 8 in
      let ss = Ss.create cap in
      List.iter (fun (k, w) -> Ss.add ss k w) stream;
      let tbl = exact_counts stream in
      let total = List.fold_left (fun a (_, w) -> a + w) 0 stream in
      let entries = Ss.entries ss in
      let tracked k = List.exists (fun (k', _, _) -> k' = k) entries in
      Ss.total ss = total
      && List.for_all
           (fun (k, est, err) ->
             let truth = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
             est - err <= truth && truth <= est)
           entries
      && Hashtbl.fold
           (fun k truth ok -> ok && (truth * cap <= total || tracked k))
           tbl true)

let qn_values_gen = QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 2_000_000))

(* Quantile estimates land in the bucket holding the true ranked value, so
   the error is bounded by the bucket width: value-relative [accuracy]
   (plus one for the integer midpoint). *)
let qn_relative_error =
  QCheck.Test.make ~name:"quantile: estimates within relative accuracy"
    ~count:200 qn_values_gen
    (fun vs ->
      let q = Qn.create ~accuracy:0.05 () in
      List.iter (Qn.add q) vs;
      let arr = Array.of_list (List.sort compare vs) in
      let n = Array.length arr in
      let acc = Qn.accuracy q in
      List.for_all
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
          let truth = arr.(rank - 1) in
          let est = Qn.quantile q p in
          abs_float (float_of_int (est - truth))
          <= (acc *. float_of_int truth) +. 1.)
        [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ])

(* The integer log-bucketing makes merging an exact bucket-wise sum: a
   merged sketch is indistinguishable from one fed the concatenation. *)
let qn_merge_exact =
  QCheck.Test.make ~name:"quantile: shard-merge equals single-stream"
    ~count:200
    QCheck.(pair (list (int_range 0 2_000_000)) (list (int_range 0 2_000_000)))
    (fun (v1, v2) ->
      let a = Qn.create ~accuracy:0.05 ()
      and b = Qn.create ~accuracy:0.05 ()
      and whole = Qn.create ~accuracy:0.05 () in
      List.iter (Qn.add a) v1;
      List.iter (Qn.add b) v2;
      List.iter (Qn.add whole) (v1 @ v2);
      Qn.merge_into ~into:a b;
      Qn.buckets a = Qn.buckets whole
      && Qn.count a = Qn.count whole
      && Qn.sum a = Qn.sum whole
      && (Qn.count whole = 0
         || Qn.min_value a = Qn.min_value whole
            && Qn.max_value a = Qn.max_value whole
            && List.for_all
                 (fun p -> Qn.quantile a p = Qn.quantile whole p)
                 [ 0.1; 0.5; 0.9 ]))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      spans_well_nested;
      percentiles_monotone;
      ss_exact_under_budget;
      ss_bounds_hold;
      qn_relative_error;
      qn_merge_exact;
    ]

let suite =
  [
    case "span: None is identity" `Quick span_none_is_identity;
    case "span: closes on exception" `Quick span_closes_on_exception;
    case "span: rounds propagate" `Quick rounds_propagate_to_parent;
    case "collector: transparent" `Quick collector_is_transparent;
    case "pa: ledger has congestion+rounds" `Quick pa_ledger_has_bounds;
    case "mst: span tree >= 3 levels" `Quick (fun () -> ignore (mst_spans ()));
    case "mst: chrome JSON round-trips" `Quick mst_chrome_roundtrip;
    case "metrics: registry + export" `Quick metrics_registry;
    case "stats: summary_to_json fields" `Quick summary_to_json_fields;
  ]
  @ props
