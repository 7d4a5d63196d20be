module Json = Lcs_util.Json
module Stats = Lcs_util.Stats
module Table = Lcs_util.Table

type value = Int of int | Float of float | Str of string

type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  start_s : float;
  dur_s : float;
  alloc_words : float;
  rounds : int;
  notes : (string * value) list;
}

(* An open span. Wall clock and allocation are sampled at the boundaries;
   rounds are attributed explicitly and roll up to the parent on close. *)
type frame = {
  f_id : int;
  f_parent : int;
  f_depth : int;
  f_name : string;
  f_start : float;
  f_words : float;
  mutable f_rounds : int;
  mutable f_notes : (string * value) list;  (* reversed *)
}

type metric_kind =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of float list ref  (* samples, reversed *)

type ledger_entry = {
  lspan : string;
  metric : string;
  predicted : float;
  observed : float;
}

type t = {
  t0 : float;
  mutable next_id : int;
  mutable stack : frame list;
  mutable closed : span list;  (* reversed close order *)
  mutable deepest : int;
  metrics : (string, metric_kind) Hashtbl.t;
  mutable metric_names : string list;  (* reversed registration order *)
  mutable entries : ledger_entry list;  (* reversed *)
}

let now () = Unix.gettimeofday ()
let epoch_s o = o.t0

let create () =
  {
    t0 = now ();
    next_id = 0;
    stack = [];
    closed = [];
    deepest = 0;
    metrics = Hashtbl.create 16;
    metric_names = [];
    entries = [];
  }

(* --- spans ---------------------------------------------------------------- *)

let enter_some o name =
  let parent, depth =
    match o.stack with [] -> (-1, 0) | f :: _ -> (f.f_id, f.f_depth + 1)
  in
  let fr =
    {
      f_id = o.next_id;
      f_parent = parent;
      f_depth = depth;
      f_name = name;
      f_start = now ();
      f_words = Gc.minor_words ();
      f_rounds = 0;
      f_notes = [];
    }
  in
  o.next_id <- o.next_id + 1;
  if depth + 1 > o.deepest then o.deepest <- depth + 1;
  o.stack <- fr :: o.stack

let exit_some o =
  match o.stack with
  | [] -> ()  (* mismatched exit: observability never raises *)
  | fr :: rest ->
      o.stack <- rest;
      (match rest with p :: _ -> p.f_rounds <- p.f_rounds + fr.f_rounds | [] -> ());
      o.closed <-
        {
          id = fr.f_id;
          parent = fr.f_parent;
          depth = fr.f_depth;
          name = fr.f_name;
          start_s = fr.f_start -. o.t0;
          dur_s = now () -. fr.f_start;
          alloc_words = Gc.minor_words () -. fr.f_words;
          rounds = fr.f_rounds;
          notes = List.rev fr.f_notes;
        }
        :: o.closed

let enter obs name = match obs with None -> () | Some o -> enter_some o name
let exit obs = match obs with None -> () | Some o -> exit_some o

let span obs name f =
  match obs with
  | None -> f ()
  | Some o ->
      enter_some o name;
      Fun.protect ~finally:(fun () -> exit_some o) f

let note obs key v =
  match obs with
  | None -> ()
  | Some o -> (
      match o.stack with
      | [] -> ()
      | fr :: _ -> fr.f_notes <- (key, v) :: fr.f_notes)

let add_rounds obs r =
  match obs with
  | None -> ()
  | Some o -> ( match o.stack with [] -> () | fr :: _ -> fr.f_rounds <- fr.f_rounds + r)

(* --- metrics registry ----------------------------------------------------- *)

let metric o name make =
  match Hashtbl.find_opt o.metrics name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.add o.metrics name m;
      o.metric_names <- name :: o.metric_names;
      m

let count obs name n =
  match obs with
  | None -> ()
  | Some o -> (
      match metric o name (fun () -> Counter (ref 0)) with
      | Counter r -> r := !r + n
      | Gauge _ | Histogram _ -> ())

let gauge obs name v =
  match obs with
  | None -> ()
  | Some o -> (
      match metric o name (fun () -> Gauge (ref v)) with
      | Gauge r -> r := v
      | Counter _ | Histogram _ -> ())

let observe obs name v =
  match obs with
  | None -> ()
  | Some o -> (
      match metric o name (fun () -> Histogram (ref [])) with
      | Histogram r -> r := v :: !r
      | Counter _ | Gauge _ -> ())

(* --- bound ledger --------------------------------------------------------- *)

let current_path o =
  String.concat "/" (List.rev_map (fun fr -> fr.f_name) o.stack)

let bound obs ~metric ~predicted ~observed =
  match obs with
  | None -> ()
  | Some o ->
      o.entries <- { lspan = current_path o; metric; predicted; observed } :: o.entries

(* --- introspection -------------------------------------------------------- *)

let spans o = List.sort (fun a b -> compare a.id b.id) o.closed
let span_count o = List.length o.closed
let open_depth o = List.length o.stack
let max_depth o = o.deepest
let ledger o = List.rev o.entries

(* --- exporters ------------------------------------------------------------ *)

let value_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s

let notes_to_json notes =
  Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) notes)

let span_to_json s =
  Json.Obj
    [
      ("id", Json.Int s.id);
      ("parent", Json.Int s.parent);
      ("depth", Json.Int s.depth);
      ("name", Json.String s.name);
      ("start_s", Json.Float s.start_s);
      ("dur_s", Json.Float s.dur_s);
      ("alloc_minor_words", Json.Float s.alloc_words);
      ("rounds", Json.Int s.rounds);
      ("notes", notes_to_json s.notes);
    ]

let spans_to_json o = Json.List (List.map span_to_json (spans o))

let summary_of_samples samples =
  Stats.summarize (Array.of_list (List.rev samples))

let metrics_to_json o =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt o.metrics name with
      | Some (Counter r) -> counters := (name, Json.Int !r) :: !counters
      | Some (Gauge r) -> gauges := (name, Json.Float !r) :: !gauges
      | Some (Histogram r) when !r <> [] ->
          histograms :=
            (name, Stats.summary_to_json (summary_of_samples !r)) :: !histograms
      | Some (Histogram _) | None -> ())
    (List.rev o.metric_names);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms));
    ]

let ledger_to_json o =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("span", Json.String e.lspan);
             ("metric", Json.String e.metric);
             ("predicted", Json.Float e.predicted);
             ("observed", Json.Float e.observed);
             ( "ratio",
               if e.predicted > 0. then Json.Float (e.observed /. e.predicted)
               else Json.Null );
           ])
       (ledger o))

(* Chrome trace-event format: one complete ("ph": "X") event per span,
   microsecond timestamps relative to the collector's creation. All spans
   share pid/tid 1 — the tree structure is carried by the nesting of the
   [ts, ts+dur] intervals, which the stack discipline guarantees. *)
let to_chrome_json o =
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String "lcs");
            ("ph", Json.String "X");
            ("ts", Json.Float (s.start_s *. 1e6));
            ("dur", Json.Float (s.dur_s *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                ([
                   ("rounds", Json.Int s.rounds);
                   ("alloc_minor_words", Json.Float s.alloc_words);
                   ("depth", Json.Int s.depth);
                 ]
                @ List.map (fun (k, v) -> (k, value_to_json v)) s.notes) );
          ])
      (spans o)
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let metrics_table o =
  let t =
    Table.create ~title:"metrics"
      [ ("metric", Table.Left); ("kind", Table.Left); ("value", Table.Right) ]
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt o.metrics name with
      | Some (Counter r) -> Table.add_row t [ name; "counter"; string_of_int !r ]
      | Some (Gauge r) -> Table.add_row t [ name; "gauge"; Table.fmt_float !r ]
      | Some (Histogram r) when !r <> [] ->
          let s = summary_of_samples !r in
          List.iter
            (fun (stat, v) -> Table.add_row t [ name; stat; Table.fmt_float v ])
            [
              ("count", float_of_int s.Stats.count);
              ("mean", s.Stats.mean);
              ("p50", s.Stats.p50);
              ("p90", s.Stats.p90);
              ("p99", s.Stats.p99);
              ("max", s.Stats.max);
            ]
      | Some (Histogram _) | None -> ())
    (List.rev o.metric_names);
  t
