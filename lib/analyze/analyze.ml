(* Offline causal analysis of recorded traces: rebuild the
   message-dependency DAG from the Send/Duplicate events' id/parents
   fields (trace schema v2), extract the critical path — the causal chain
   whose last arrival forces the round count — and decompose the observed
   rounds into transit (dilation-bound) and queueing (congestion-bound)
   waits. The decomposition telescopes exactly:

     startup + sum(transit_i) + sum(queueing_i) + tail = rounds

   with startup = (first send round) - 1, transit_i = arrival_i - send_i,
   queueing_i = send_i - arrival_{i-1}, tail = rounds + 1 - last arrival
   (a message sent in round r is delivered at round r + 1 + delay; a
   fault-free last-round send therefore has tail 0). All four terms are
   non-negative on fault-free traces, which is the per-run shape of the
   paper's O(congestion + dilation * log n) round bound (Def 2.1/2.2). *)

module Json = Lcs_util.Json
module Trace = Lcs_congest.Trace

type msg = {
  id : int;
  round : int;  (** send round *)
  arrival : int;  (** round + 1 + injected delay *)
  src : int;
  dst : int;
  edge : int;
  words : int;
  parents : int list;
  part : int;
  phase : string;
  duplicate : bool;
}

type hop = {
  hop_msg : msg;
  transit : int;  (** arrival - send round *)
  queue_wait : int;  (** send round - gate (latest parent arrival, or 1) *)
}

type decomposition = {
  startup : int;
  transit_total : int;
  queueing_total : int;
  tail : int;
}

type part_stat = {
  ps_part : int;  (** -1 collects untagged messages *)
  ps_messages : int;
  ps_words : int;
  ps_transit : int;
  ps_queue_total : int;
  ps_queue_max : int;
}

type phase_stat = {
  ph_phase : string;  (** "" collects untagged messages *)
  ph_messages : int;
  ph_words : int;
  ph_queue_total : int;
}

type run = {
  index : int;  (** 0-based position in a multi-run trace *)
  rounds : int;
  messages : int;  (** Send + Duplicate events, tagged or not *)
  traced_words : int;
  faulty : bool;
  path : hop list;  (** source first, terminal last; [] without v2 ids *)
  decomposition : decomposition;
  exact : bool;
  parts : part_stat list;
  phases : phase_stat list;
}

let decomposition_total d =
  d.startup + d.transit_total + d.queueing_total + d.tail

(* --- Segmentation --------------------------------------------------------- *)

(* Ids restart at 1 for every simulated run, so a recorder shared by
   several runs (the MST pipeline's phases) holds several id spaces; each
   [Round_start {round = 1}] opens a new one. *)
let segment events =
  let flush cur segs =
    match cur with [] -> segs | _ -> List.rev cur :: segs
  in
  let rec go cur segs = function
    | [] -> List.rev (flush cur segs)
    | (Trace.Round_start { round = 1; _ } as ev) :: rest ->
        go [ ev ] (flush cur segs) rest
    | ev :: rest -> go (ev :: cur) segs rest
  in
  go [] [] events

(* --- Per-segment analysis ------------------------------------------------- *)

(* The gate of a message: the round at which its latest-arriving causal
   parent was delivered — it could not have been sent earlier. Sourceless
   messages are gated by the start of round 1. Parent ids are structurally
   smaller than the child's (ids are drawn in trace order); anything else
   comes from a malformed hand-built trace and is ignored, which also
   makes the backwards walk strictly decreasing, hence terminating. *)
let valid_parents m = List.filter (fun p -> p > 0 && p < m.id) m.parents

let gate_of tbl m =
  List.fold_left
    (fun acc p ->
      match Hashtbl.find_opt tbl p with
      | Some pm -> max acc pm.arrival
      | None -> acc)
    1 (valid_parents m)

let analyze_segment ~index events =
  let tbl : (int, msg) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let rounds = ref 0 in
  let messages = ref 0 in
  let traced_words = ref 0 in
  let faulty = ref false in
  (* A Delayed event always follows the Send/Duplicate it stretches, with
     nothing for another message in between — both simulator cores emit
     them back to back — so it applies to the last id seen. *)
  let last_id = ref 0 in
  let add ~duplicate ~round ~src ~dst ~edge ~words ~id ~parents ~part ~phase =
    incr messages;
    traced_words := !traced_words + words;
    if round > !rounds then rounds := round;
    if id > 0 then begin
      Hashtbl.replace tbl id
        {
          id;
          round;
          arrival = round + 1;
          src;
          dst;
          edge;
          words;
          parents;
          part;
          phase;
          duplicate;
        };
      last_id := id;
      order := id :: !order
    end
  in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Round_start { round; _ } -> if round > !rounds then rounds := round
      | Trace.Round_end { round; _ } -> if round > !rounds then rounds := round
      | Trace.Halt { round; _ } -> if round > !rounds then rounds := round
      | Trace.Send { round; src; dst; edge; words; id; parents; part; phase } ->
          add ~duplicate:false ~round ~src ~dst ~edge ~words ~id ~parents ~part
            ~phase
      | Trace.Duplicate { round; src; dst; edge; words; id; parents; part; phase }
        ->
          faulty := true;
          add ~duplicate:true ~round ~src ~dst ~edge ~words ~id ~parents ~part
            ~phase
      | Trace.Delayed { delay; _ } -> (
          faulty := true;
          match Hashtbl.find_opt tbl !last_id with
          | Some m ->
              Hashtbl.replace tbl !last_id
                { m with arrival = m.round + 1 + delay }
          | None -> ())
      | Trace.Drop _ | Trace.Link_down _ | Trace.Crash _ -> faulty := true)
    events;
  let ids = List.rev !order in
  (* Terminal: latest arrival, ties to the largest id (the later event). *)
  let later a b =
    match Hashtbl.find_opt tbl a, Hashtbl.find_opt tbl b with
    | Some ma, Some mb ->
        if mb.arrival > ma.arrival || (mb.arrival = ma.arrival && b > a) then b
        else a
    | Some _, None -> a
    | _ -> b
  in
  let path =
    match ids with
    | [] -> []
    | first :: rest ->
        let terminal = List.fold_left later first rest in
        (* Walk back through the latest-arriving parent of each hop. *)
        let rec back id acc =
          match Hashtbl.find_opt tbl id with
          | None -> acc
          | Some m -> (
              match valid_parents m with
              | [] ->
                  { hop_msg = m; transit = m.arrival - m.round; queue_wait = m.round - 1 }
                  :: acc
              | p :: ps ->
                  let gate_id = List.fold_left later p ps in
                  let gate =
                    match Hashtbl.find_opt tbl gate_id with
                    | Some pm -> pm.arrival
                    | None -> 1
                  in
                  let hop =
                    {
                      hop_msg = m;
                      transit = m.arrival - m.round;
                      queue_wait = m.round - gate;
                    }
                  in
                  back gate_id (hop :: acc))
        in
        back terminal []
  in
  let decomposition =
    match path with
    | [] ->
        (* No causal chain: all observed rounds are pre-send startup. *)
        { startup = !rounds; transit_total = 0; queueing_total = 0; tail = 0 }
    | first :: _ ->
        let transit_total = List.fold_left (fun acc h -> acc + h.transit) 0 path in
        let queueing_total =
          List.fold_left (fun acc h -> acc + h.queue_wait) 0 path
          - first.queue_wait
        in
        let last = List.nth path (List.length path - 1) in
        {
          startup = first.queue_wait;
          transit_total;
          queueing_total;
          tail = !rounds + 1 - last.hop_msg.arrival;
        }
  in
  let exact =
    decomposition_total decomposition = !rounds
    && decomposition.startup >= 0
    && decomposition.queueing_total >= 0
    && decomposition.tail >= 0
    && List.for_all (fun h -> h.queue_wait >= 0 && h.transit >= 1) path
  in
  (* Attribution over every traced message, not just the critical path. *)
  let parts_tbl : (int, part_stat) Hashtbl.t = Hashtbl.create 16 in
  let phases_tbl : (string, phase_stat) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match Hashtbl.find_opt tbl id with
      | None -> ()
      | Some m ->
          let q = m.round - gate_of tbl m in
          let t = m.arrival - m.round in
          let ps =
            match Hashtbl.find_opt parts_tbl m.part with
            | Some ps -> ps
            | None ->
                {
                  ps_part = m.part;
                  ps_messages = 0;
                  ps_words = 0;
                  ps_transit = 0;
                  ps_queue_total = 0;
                  ps_queue_max = 0;
                }
          in
          Hashtbl.replace parts_tbl m.part
            {
              ps with
              ps_messages = ps.ps_messages + 1;
              ps_words = ps.ps_words + m.words;
              ps_transit = ps.ps_transit + t;
              ps_queue_total = ps.ps_queue_total + q;
              ps_queue_max = max ps.ps_queue_max q;
            };
          let ph =
            match Hashtbl.find_opt phases_tbl m.phase with
            | Some ph -> ph
            | None ->
                {
                  ph_phase = m.phase;
                  ph_messages = 0;
                  ph_words = 0;
                  ph_queue_total = 0;
                }
          in
          Hashtbl.replace phases_tbl m.phase
            {
              ph with
              ph_messages = ph.ph_messages + 1;
              ph_words = ph.ph_words + m.words;
              ph_queue_total = ph.ph_queue_total + q;
            })
    ids;
  let parts =
    Hashtbl.fold (fun _ ps acc -> ps :: acc) parts_tbl []
    |> List.sort (fun a b -> compare a.ps_part b.ps_part)
  in
  let phases =
    Hashtbl.fold (fun _ ph acc -> ph :: acc) phases_tbl []
    |> List.sort (fun a b -> compare a.ph_phase b.ph_phase)
  in
  {
    index;
    rounds = !rounds;
    messages = !messages;
    traced_words = !traced_words;
    faulty = !faulty;
    path;
    decomposition;
    exact;
    parts;
    phases;
  }

let of_events events =
  List.mapi (fun index seg -> analyze_segment ~index seg) (segment events)

(* --- JSON input ----------------------------------------------------------- *)

let events_of_json doc =
  let arr =
    match doc with
    | Json.List _ -> Ok doc
    | Json.Obj _ -> (
        match Json.member "events" doc with
        | Some (Json.List _ as l) -> Ok l
        | Some _ -> Error "\"events\" is not an array"
        | None -> Error "no \"events\" array (was the trace recorded without --trace?)")
    | _ -> Error "expected a trace report object or an event array"
  in
  match arr with
  | Error _ as e -> e
  | Ok (Json.List items) ->
      (* A report object carries the run's [n] and [m], which bound the
         events' ids exactly as a stream header does. *)
      let check = Trace.checker ~meta:doc () in
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        (* A capped recorder ends its stream with a {"t":"truncated",
           "dropped":N} marker — metadata, not an event; skip it. *)
        | item :: rest
          when Json.member "t" item = Some (Json.String "truncated") ->
            go (i + 1) acc rest
        | item :: rest -> (
            match
              Result.bind (Trace.event_of_json item) (fun ev ->
                  Result.map (fun () -> ev) (check ev))
            with
            | Ok ev -> go (i + 1) (ev :: acc) rest
            | Error e -> Error (Printf.sprintf "events[%d]: %s" i e))
      in
      go 0 [] items
  | Ok _ -> Error "expected a trace report object or an event array"

let of_json doc =
  match events_of_json doc with
  | Error _ as e -> e
  | Ok events -> Ok (of_events events)

(* --- JSON output ---------------------------------------------------------- *)

let hop_to_json h =
  let m = h.hop_msg in
  Json.Obj
    ([
       ("id", Json.Int m.id);
       ("round", Json.Int m.round);
       ("arrival", Json.Int m.arrival);
       ("src", Json.Int m.src);
       ("dst", Json.Int m.dst);
       ("edge", Json.Int m.edge);
       ("transit", Json.Int h.transit);
       ("queue_wait", Json.Int h.queue_wait);
     ]
    @ (if m.part >= 0 then [ ("part", Json.Int m.part) ] else [])
    @ if m.phase <> "" then [ ("phase", Json.String m.phase) ] else [])

let run_to_json r =
  Json.Obj
    [
      ("run", Json.Int r.index);
      ("rounds", Json.Int r.rounds);
      ("messages", Json.Int r.messages);
      ("words", Json.Int r.traced_words);
      ("faulty", Json.Bool r.faulty);
      ( "critical_path",
        Json.Obj
          [
            ("length", Json.Int (List.length r.path));
            ("startup", Json.Int r.decomposition.startup);
            ("transit", Json.Int r.decomposition.transit_total);
            ("queueing", Json.Int r.decomposition.queueing_total);
            ("tail", Json.Int r.decomposition.tail);
            ("exact", Json.Bool r.exact);
            ("hops", Json.List (List.map hop_to_json r.path));
          ] );
      ( "parts",
        Json.List
          (List.map
             (fun ps ->
               Json.Obj
                 [
                   ("part", Json.Int ps.ps_part);
                   ("messages", Json.Int ps.ps_messages);
                   ("words", Json.Int ps.ps_words);
                   ("transit", Json.Int ps.ps_transit);
                   ("queue_total", Json.Int ps.ps_queue_total);
                   ("queue_max", Json.Int ps.ps_queue_max);
                 ])
             r.parts) );
      ( "phases",
        Json.List
          (List.map
             (fun ph ->
               Json.Obj
                 [
                   ("phase", Json.String ph.ph_phase);
                   ("messages", Json.Int ph.ph_messages);
                   ("words", Json.Int ph.ph_words);
                   ("queue_total", Json.Int ph.ph_queue_total);
                 ])
             r.phases) );
    ]

let to_json runs =
  Json.Obj
    [
      ("schema", Json.String "lcs-analyze/1");
      ("runs", Json.List (List.map run_to_json runs));
    ]

(* --- Text rendering ------------------------------------------------------- *)

let to_text r =
  let b = Buffer.create 1024 in
  let d = r.decomposition in
  Buffer.add_string b
    (Printf.sprintf "run %d: %d rounds, %d messages, %d words%s\n" r.index
       r.rounds r.messages r.traced_words
       (if r.faulty then " (faults observed)" else ""));
  Buffer.add_string b
    (Printf.sprintf
       "critical path: %d hops | startup %d + transit %d + queueing %d + tail \
        %d = %d%s\n"
       (List.length r.path) d.startup d.transit_total d.queueing_total d.tail
       (decomposition_total d)
       (if r.exact then " (exact)" else " (INEXACT)"));
  if r.path <> [] then begin
    Buffer.add_string b
      "  id      round->arr   src->dst      edge  queue  part  phase\n";
    List.iter
      (fun h ->
        let m = h.hop_msg in
        Buffer.add_string b
          (Printf.sprintf "  %-7d %4d->%-5d %5d->%-7d %5d %6d %5s  %s\n" m.id
             m.round m.arrival m.src m.dst m.edge h.queue_wait
             (if m.part >= 0 then string_of_int m.part else "-")
             (if m.phase = "" then "-" else m.phase)))
      r.path
  end;
  if r.parts <> [] then begin
    Buffer.add_string b
      "part   messages    words  transit  queue(total)  queue(max)\n";
    List.iter
      (fun ps ->
        Buffer.add_string b
          (Printf.sprintf "%-6s %8d %8d %8d %13d %11d\n"
             (if ps.ps_part >= 0 then string_of_int ps.ps_part else "-")
             ps.ps_messages ps.ps_words ps.ps_transit ps.ps_queue_total
             ps.ps_queue_max))
      r.parts
  end;
  if r.phases <> [] then begin
    Buffer.add_string b "phase          messages    words  queue(total)\n";
    List.iter
      (fun ph ->
        Buffer.add_string b
          (Printf.sprintf "%-14s %8d %8d %13d\n"
             (if ph.ph_phase = "" then "-" else ph.ph_phase)
             ph.ph_messages ph.ph_words ph.ph_queue_total))
      r.phases
  end;
  Buffer.contents b

(* --- Perfetto flow export ------------------------------------------------- *)

(* Critical-path hops as slices on a synthetic per-run process (pid 2 + run
   index, round-scaled timestamps: 1 round = 1000 "us"), with flow arrows
   ("s"/"f" pairs) binding each hop to the next. Kept on separate pids so
   the synthetic round clock never clashes with the wall-clock spans the
   Obs collector writes under pid 1. *)
let flow_scale = 1000

let flow_events r =
  let pid = 2 + r.index in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ( "args",
          Json.Obj
            [
              ( "name",
                Json.String (Printf.sprintf "critical path (run %d)" r.index) );
            ] );
      ]
  in
  let slice h =
    let m = h.hop_msg in
    Json.Obj
      [
        ( "name",
          Json.String (if m.phase = "" then Printf.sprintf "msg %d" m.id else m.phase)
        );
        ("cat", Json.String "critical-path");
        ("ph", Json.String "X");
        ("pid", Json.Int pid);
        ("tid", Json.Int m.src);
        ("ts", Json.Int (m.round * flow_scale));
        ("dur", Json.Int (h.transit * flow_scale));
        ( "args",
          Json.Obj
            [
              ("id", Json.Int m.id);
              ("part", Json.Int m.part);
              ("edge", Json.Int m.edge);
              ("queue_wait", Json.Int h.queue_wait);
            ] );
      ]
  in
  let flow ~i a b =
    let fid = (r.index * 1_000_000) + i in
    let ma = a.hop_msg and mb = b.hop_msg in
    [
      Json.Obj
        [
          ("name", Json.String "cause");
          ("cat", Json.String "causal");
          ("ph", Json.String "s");
          ("id", Json.Int fid);
          ("pid", Json.Int pid);
          ("tid", Json.Int ma.src);
          ("ts", Json.Int ((ma.arrival * flow_scale) - 1));
        ];
      Json.Obj
        [
          ("name", Json.String "cause");
          ("cat", Json.String "causal");
          ("ph", Json.String "f");
          ("bp", Json.String "e");
          ("id", Json.Int fid);
          ("pid", Json.Int pid);
          ("tid", Json.Int mb.src);
          ("ts", Json.Int ((mb.round * flow_scale) + 1));
        ];
    ]
  in
  let rec arrows i = function
    | a :: (b :: _ as rest) -> flow ~i a b @ arrows (i + 1) rest
    | _ -> []
  in
  match r.path with
  | [] -> []
  | path -> (meta :: List.map slice path) @ arrows 0 path
