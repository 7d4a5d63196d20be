module Json = Lcs_util.Json
module Sketch = Lcs_util.Sketch

type event =
  | Round_start of { round : int; live : int }
  | Send of {
      round : int;
      src : int;
      dst : int;
      edge : int;
      words : int;
      id : int;
      parents : int list;
      part : int;
      phase : string;
    }
  | Halt of { round : int; node : int }
  | Round_end of { round : int; max_edge_load : int }
  | Drop of { round : int; src : int; dst : int; edge : int; words : int }
  | Duplicate of {
      round : int;
      src : int;
      dst : int;
      edge : int;
      words : int;
      id : int;
      parents : int list;
      part : int;
      phase : string;
    }
  | Delayed of { round : int; src : int; dst : int; edge : int; delay : int }
  | Link_down of { round : int; edge : int }
  | Crash of { round : int; node : int }

type tracer = event -> unit

(* A plain recursion: [List.iter] would allocate a closure per event. *)
let rec tee tracers event =
  match tracers with
  | [] -> ()
  | t :: rest ->
      t event;
      tee rest event

(* Schema v2: send/duplicate events carry a per-run monotone [id], the
   causal [parents] ids, and — only when set — the source's [part] and
   [phase] labels. All other kinds keep the v1 shape. *)
let causal_fields ~id ~parents ~part ~phase =
  [
    ("id", Json.Int id);
    ("parents", Json.List (List.map (fun p -> Json.Int p) parents));
  ]
  @ (if part >= 0 then [ ("part", Json.Int part) ] else [])
  @ if phase <> "" then [ ("phase", Json.String phase) ] else []

let event_to_json = function
  | Round_start { round; live } ->
      Json.Obj [ ("t", Json.String "round_start"); ("round", Json.Int round); ("live", Json.Int live) ]
  | Send { round; src; dst; edge; words; id; parents; part; phase } ->
      Json.Obj
        ([
           ("t", Json.String "send");
           ("round", Json.Int round);
           ("src", Json.Int src);
           ("dst", Json.Int dst);
           ("edge", Json.Int edge);
           ("words", Json.Int words);
         ]
        @ causal_fields ~id ~parents ~part ~phase)
  | Halt { round; node } ->
      Json.Obj [ ("t", Json.String "halt"); ("round", Json.Int round); ("node", Json.Int node) ]
  | Round_end { round; max_edge_load } ->
      Json.Obj
        [
          ("t", Json.String "round_end");
          ("round", Json.Int round);
          ("max_edge_load", Json.Int max_edge_load);
        ]
  | Drop { round; src; dst; edge; words } ->
      Json.Obj
        [
          ("t", Json.String "drop");
          ("round", Json.Int round);
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("edge", Json.Int edge);
          ("words", Json.Int words);
        ]
  | Duplicate { round; src; dst; edge; words; id; parents; part; phase } ->
      Json.Obj
        ([
           ("t", Json.String "duplicate");
           ("round", Json.Int round);
           ("src", Json.Int src);
           ("dst", Json.Int dst);
           ("edge", Json.Int edge);
           ("words", Json.Int words);
         ]
        @ causal_fields ~id ~parents ~part ~phase)
  | Delayed { round; src; dst; edge; delay } ->
      Json.Obj
        [
          ("t", Json.String "delayed");
          ("round", Json.Int round);
          ("src", Json.Int src);
          ("dst", Json.Int dst);
          ("edge", Json.Int edge);
          ("delay", Json.Int delay);
        ]
  | Link_down { round; edge } ->
      Json.Obj
        [ ("t", Json.String "link_down"); ("round", Json.Int round); ("edge", Json.Int edge) ]
  | Crash { round; node } ->
      Json.Obj
        [ ("t", Json.String "crash"); ("round", Json.Int round); ("node", Json.Int node) ]

let event_of_json j =
  let int ?default key =
    match Json.member key j with
    | Some (Json.Int i) -> Ok i
    | Some _ -> Error (Printf.sprintf "field %S is not an integer" key)
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "missing field %S" key))
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  (* v1 traces carry no causal fields; default them so old events still
     parse ([checker] then refuses a send whose id is 0). *)
  let causal () =
    let* id = int ~default:0 "id" in
    let* part = int ~default:(-1) "part" in
    let phase =
      match Json.member "phase" j with Some (Json.String s) -> s | _ -> ""
    in
    let* parents =
      match Json.member "parents" j with
      | None -> Ok []
      | Some (Json.List l) ->
          let* rev =
            List.fold_left
              (fun acc v ->
                let* acc = acc in
                match v with
                | Json.Int i -> Ok (i :: acc)
                | _ -> Error "non-integer parent id")
              (Ok []) l
          in
          Ok (List.rev rev)
      | Some _ -> Error "\"parents\" is not a list"
    in
    Ok (id, parents, part, phase)
  in
  match Json.member "t" j with
  | Some (Json.String "round_start") ->
      let* round = int "round" in
      let* live = int "live" in
      Ok (Round_start { round; live })
  | Some (Json.String "send") ->
      let* round = int "round" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* edge = int "edge" in
      let* words = int "words" in
      let* id, parents, part, phase = causal () in
      Ok (Send { round; src; dst; edge; words; id; parents; part; phase })
  | Some (Json.String "halt") ->
      let* round = int "round" in
      let* node = int "node" in
      Ok (Halt { round; node })
  | Some (Json.String "round_end") ->
      let* round = int "round" in
      let* max_edge_load = int "max_edge_load" in
      Ok (Round_end { round; max_edge_load })
  | Some (Json.String "drop") ->
      let* round = int "round" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* edge = int "edge" in
      let* words = int "words" in
      Ok (Drop { round; src; dst; edge; words })
  | Some (Json.String "duplicate") ->
      let* round = int "round" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* edge = int "edge" in
      let* words = int "words" in
      let* id, parents, part, phase = causal () in
      Ok (Duplicate { round; src; dst; edge; words; id; parents; part; phase })
  | Some (Json.String "delayed") ->
      let* round = int "round" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* edge = int "edge" in
      let* delay = int "delay" in
      Ok (Delayed { round; src; dst; edge; delay })
  | Some (Json.String "link_down") ->
      let* round = int "round" in
      let* edge = int "edge" in
      Ok (Link_down { round; edge })
  | Some (Json.String "crash") ->
      let* round = int "round" in
      let* node = int "node" in
      Ok (Crash { round; node })
  | Some (Json.String other) -> Error ("unknown event kind " ^ other)
  | _ -> Error "event object has no \"t\" field"

(* What the events read so far allow of the next one: node ids below the
   metadata's [n] and edge ids below its [m] (unchecked when absent), no
   round before the run's latest, and a message id of at least 1 whose
   parents are earlier ids. *)
let checker ?(meta = Json.Null) () =
  let bound key = match Json.member key meta with Some (Json.Int v) -> v | _ -> -1 in
  let n = bound "n" and m = bound "m" in
  let latest = ref 0 in
  let exception Out_of_bounds of string in
  let fail fmt = Printf.ksprintf (fun msg -> raise (Out_of_bounds msg)) fmt in
  let bounded field v name bound =
    if v < 0 then fail "negative %s %d" field v
    else if bound >= 0 && v >= bound then fail "%s %d not below %s = %d" field v name bound
  in
  let node field v = bounded field v "n" n and edge e = bounded "edge" e "m" m in
  let check ev =
    let round =
      match ev with
      | Round_start { round; _ } | Round_end { round; _ } -> round
      | Send { round; src; dst; edge = e; words; _ }
      | Duplicate { round; src; dst; edge = e; words; _ }
      | Drop { round; src; dst; edge = e; words } ->
          node "src" src;
          node "dst" dst;
          edge e;
          if words < 0 then fail "negative words %d" words;
          round
      | Delayed { round; src; dst; edge = e; _ } ->
          node "src" src;
          node "dst" dst;
          edge e;
          round
      | Link_down { round; edge = e } ->
          edge e;
          round
      | Halt { round; node = v } | Crash { round; node = v } ->
          node "node" v;
          round
    in
    (match ev with
    | Send { id; parents; _ } | Duplicate { id; parents; _ } ->
        if id < 1 then fail "id %d below 1" id;
        List.iter
          (fun p -> if p < 1 || p >= id then fail "parent %d of id %d is not an earlier id" p id)
          parents
    | _ -> ());
    if round < 1 then fail "round %d below 1" round;
    (* A run opens with its round-1 [Round_start] — where [Analyze] cuts
       a stream into runs — and its rounds never decrease after it. *)
    (match ev with Round_start { round = 1; _ } -> latest := 1 | _ -> ());
    if round < !latest then fail "round %d after round %d" round !latest;
    latest := round
  in
  fun ev -> match check ev with () -> Ok () | exception Out_of_bounds e -> Error e

(* --- growable int array -------------------------------------------------- *)

(* Stdlib Dynarray arrives in OCaml 5.2; this is the minimal int-only
   subset the collectors need. *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let ensure b i =
    if i >= Array.length b.data then begin
      let cap = ref (Array.length b.data) in
      while i >= !cap do
        cap := 2 * !cap
      done;
      let data = Array.make !cap 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    if i >= b.len then b.len <- i + 1

  let add b i v =
    ensure b i;
    b.data.(i) <- b.data.(i) + v

  let set_max b i v =
    ensure b i;
    if v > b.data.(i) then b.data.(i) <- v

  let get b i = if i < b.len then b.data.(i) else 0
  let to_array b = Array.sub b.data 0 b.len
end

(* --- Recorder ------------------------------------------------------------ *)

module Recorder = struct
  type t = { mutable events : event list; mutable length : int }

  let create () = { events = []; length = 0 }

  let tracer r event =
    r.events <- event :: r.events;
    r.length <- r.length + 1

  let events r = List.rev r.events
  let length r = r.length
end

(* --- Profile ------------------------------------------------------------- *)

module Profile = struct
  type mode = Exact | Sketch of int

  (* Per-edge accounting is the only O(m) part of a profile; everything
     else is O(rounds). Exact mode keeps the historical dense counter
     array; Sketch mode replaces it with a Space-Saving table of [budget]
     counters plus a quantile summary of the estimates displaced from it
     ("episodes"), so the profile of a 10^8-edge run stays resident in a
     few pages instead of reclaiming the heap the Bigarray CSR freed. *)
  type acc =
    | Exact_acc of Ibuf.t  (* per host edge id, both directions summed *)
    | Sketch_acc of {
        ss : Sketch.Space_saving.t;
        evicted : Sketch.Quantile.t;
      }

  type t = {
    acc : acc;
    edge_hint : int;  (* host [Graph.m] at creation; sizes sketch exports *)
    round_words : Ibuf.t;  (* words sent in each round; index = round - 1 *)
    round_max : Ibuf.t;  (* per-round max single-edge-direction load *)
    halt_rounds : Ibuf.t;  (* nodes halting in each round *)
    mutable rounds : int;
    mutable total_words : int;
    mutable total_messages : int;
    (* Injected-fault accounting, all zero on fault-free runs so the JSON
       export stays byte-identical to the pre-fault schema. *)
    mutable dropped : int;
    mutable link_down_drops : int;
    mutable duplicated : int;
    mutable delayed : int;
    mutable crashed : int;
  }

  let sketch_threshold = 1_000_000
  let default_budget = 4096
  let histogram_accuracy = 0.25

  let create ?mode ?edges () =
    let mode =
      match mode with
      | Some m -> m
      | None -> (
          (* Past [sketch_threshold] host edges the dense array would
             dominate the run's heap, so big graphs profile through the
             default sketch budget unless the caller insists on Exact. *)
          match edges with
          | Some m when m > sketch_threshold -> Sketch default_budget
          | _ -> Exact)
    in
    let acc =
      match mode with
      | Exact ->
          let edge_words = Ibuf.create () in
          (match edges with
          | Some m when m > 0 -> Ibuf.ensure edge_words (m - 1)
          | _ -> ());
          Exact_acc edge_words
      | Sketch budget ->
          let evicted = Sketch.Quantile.create ~accuracy:histogram_accuracy () in
          let ss =
            Sketch.Space_saving.create
              ~on_evict:(fun _key est -> Sketch.Quantile.add evicted est)
              (max 1 budget)
          in
          Sketch_acc { ss; evicted }
    in
    {
      acc;
      edge_hint = (match edges with Some m when m > 0 -> m | _ -> 0);
      round_words = Ibuf.create ();
      round_max = Ibuf.create ();
      halt_rounds = Ibuf.create ();
      rounds = 0;
      total_words = 0;
      total_messages = 0;
      dropped = 0;
      link_down_drops = 0;
      duplicated = 0;
      delayed = 0;
      crashed = 0;
    }

  let mode p =
    match p.acc with
    | Exact_acc _ -> Exact
    | Sketch_acc { ss; _ } -> Sketch (Sketch.Space_saving.capacity ss)

  (* A transmission that crosses the wire and is delivered: a Send, or a
     Duplicate, whose extra copy counts as traffic exactly like a Send. *)
  let carry p ~round ~edge ~words =
    (match p.acc with
    | Exact_acc b -> Ibuf.add b edge words
    | Sketch_acc { ss; _ } -> Sketch.Space_saving.add ss edge words);
    Ibuf.add p.round_words (round - 1) words;
    p.total_words <- p.total_words + words;
    p.total_messages <- p.total_messages + 1;
    if round > p.rounds then p.rounds <- round

  let tracer p = function
    | Round_start { round; _ } -> if round > p.rounds then p.rounds <- round
    | Send { round; edge; words; _ } -> carry p ~round ~edge ~words
    | Halt { round; _ } -> Ibuf.add p.halt_rounds (round - 1) 1
    | Round_end { round; max_edge_load } ->
        Ibuf.set_max p.round_max (round - 1) max_edge_load;
        if round > p.rounds then p.rounds <- round
    | Duplicate { round; edge; words; _ } ->
        carry p ~round ~edge ~words;
        p.duplicated <- p.duplicated + 1
    (* The other fault events are bookkeeping about words that did NOT
       flow (or nodes that died). *)
    | Drop _ -> p.dropped <- p.dropped + 1
    | Link_down _ -> p.link_down_drops <- p.link_down_drops + 1
    | Delayed _ -> p.delayed <- p.delayed + 1
    | Crash _ -> p.crashed <- p.crashed + 1

  let rounds p = p.rounds
  let total_words p = p.total_words
  let total_messages p = p.total_messages

  let edge_words p =
    match p.acc with
    | Exact_acc b -> Ibuf.to_array b
    | Sketch_acc { ss; _ } ->
        (* Estimates for the tracked keys only (zero elsewhere), dense up
           to the creation-time edge count so per-edge consumers
           (Quality.traffic) see the same shape as Exact mode. *)
        let entries = Sketch.Space_saving.entries ss in
        let maxk = List.fold_left (fun m (k, _, _) -> max m k) (-1) entries in
        let a = Array.make (max (maxk + 1) p.edge_hint) 0 in
        List.iter (fun (k, est, _) -> a.(k) <- est) entries;
        a

  let dropped p = p.dropped + p.link_down_drops
  let fault_events p = p.dropped + p.link_down_drops + p.duplicated + p.delayed + p.crashed
  let halts p = Array.fold_left ( + ) 0 (Ibuf.to_array p.halt_rounds)

  let load_curve p =
    let curve = Ibuf.to_array p.round_words in
    if Array.length curve >= p.rounds then curve
    else Array.init p.rounds (Ibuf.get p.round_words)

  let round_max_load p =
    let curve = Ibuf.to_array p.round_max in
    if Array.length curve >= p.rounds then curve
    else Array.init p.rounds (Ibuf.get p.round_max)

  let edges_used p =
    match p.acc with
    | Exact_acc _ ->
        Array.fold_left (fun acc w -> if w > 0 then acc + 1 else acc) 0 (edge_words p)
    | Sketch_acc { ss; evicted } ->
        (* Tracked keys plus eviction episodes: an upper estimate (an edge
           evicted and re-admitted is counted once per episode). *)
        Sketch.Space_saving.size ss + Sketch.Quantile.count evicted

  let top_edges ?(k = 10) p =
    match p.acc with
    | Exact_acc _ ->
        let loaded = ref [] in
        Array.iteri (fun e w -> if w > 0 then loaded := (e, w) :: !loaded) (edge_words p);
        let sorted =
          List.sort
            (fun (e1, w1) (e2, w2) -> if w1 <> w2 then compare w2 w1 else compare e1 e2)
            !loaded
        in
        List.filteri (fun i _ -> i < k) sorted
    | Sketch_acc { ss; _ } -> Sketch.Space_saving.top ~k ss

  (* Equal-width bins stop carrying information once per-edge totals span
     orders of magnitude (at a 10^8-word maximum, "bucket 1" would cover
     1 .. 12.5 million words); past this bound the exact path switches to
     the same octave-scaled bins the quantile sketch produces. *)
  let equal_width_max = 1_000_000

  let histogram ?(buckets = 8) p =
    if buckets < 1 then invalid_arg "Trace.Profile.histogram: buckets";
    match p.acc with
    | Sketch_acc { ss; evicted } ->
        let q = Sketch.Quantile.create ~accuracy:histogram_accuracy () in
        Sketch.Quantile.merge_into ~into:q evicted;
        List.iter
          (fun (_, est, _) -> Sketch.Quantile.add q est)
          (Sketch.Space_saving.entries ss);
        Sketch.Quantile.buckets q
    | Exact_acc b ->
        let words = Ibuf.to_array b in
        let max_w = Array.fold_left max 0 words in
        if max_w = 0 then []
        else if max_w > equal_width_max then begin
          let q = Sketch.Quantile.create ~accuracy:histogram_accuracy () in
          Array.iter (fun w -> if w > 0 then Sketch.Quantile.add q w) words;
          Sketch.Quantile.buckets q
        end
        else begin
          let width = max 1 ((max_w + buckets - 1) / buckets) in
          let nbuckets = ((max_w - 1) / width) + 1 in
          let counts = Array.make nbuckets 0 in
          Array.iter
            (fun w ->
              if w > 0 then begin
                let b = (w - 1) / width in
                counts.(b) <- counts.(b) + 1
              end)
            words;
          List.init nbuckets (fun b -> ((b * width) + 1, (b + 1) * width, counts.(b)))
        end

  let to_json ?(top_k = 10) p =
    let pair (a, b) = Json.List [ Json.Int a; Json.Int b ] in
    let int_array a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a)) in
    let edge_pairs =
      let acc = ref [] in
      Array.iteri (fun e w -> if w > 0 then acc := (e, w) :: !acc) (edge_words p);
      List.rev !acc
    in
    let fault_fields =
      (* Present only when faults were observed: fault-free profiles keep
         the exact pre-fault JSON schema, byte for byte. *)
      if fault_events p = 0 then []
      else
        [
          ( "faults",
            Json.Obj
              [
                ("dropped", Json.Int p.dropped);
                ("link_down_drops", Json.Int p.link_down_drops);
                ("duplicated", Json.Int p.duplicated);
                ("delayed", Json.Int p.delayed);
                ("crashed", Json.Int p.crashed);
              ] );
        ]
    in
    (* The Exact layout (and byte sequence) is the historical one; Sketch
       mode prefixes a "mode" marker, reports per-entry overcount bounds
       right next to "top_edges", and appends the sketch parameters. *)
    let mode_prefix, overcount_field, sketch_field =
      match p.acc with
      | Exact_acc _ -> ([], [], [])
      | Sketch_acc { ss; evicted } ->
          let module Ss = Sketch.Space_saving in
          let top = List.filteri (fun i _ -> i < top_k) (Ss.entries ss) in
          ( [ ("mode", Json.String "sketch") ],
            [
              ( "top_edges_overcount",
                Json.List (List.map (fun (_, _, err) -> Json.Int err) top) );
            ],
            [
              ( "sketch",
                Json.Obj
                  [
                    ("budget", Json.Int (Ss.capacity ss));
                    ("tracked", Json.Int (Ss.size ss));
                    ("evictions", Json.Int (Ss.evictions ss));
                    ("max_overcount", Json.Int (Ss.max_overcount ss));
                    ("threshold", Json.Int (Ss.threshold ss));
                    ( "quantile_accuracy",
                      Json.Float (Sketch.Quantile.accuracy evicted) );
                  ] );
            ] )
    in
    Json.Obj
      (mode_prefix
      @ [
          ("rounds", Json.Int p.rounds);
          ("total_words", Json.Int p.total_words);
          ("total_messages", Json.Int p.total_messages);
          ("edges_used", Json.Int (edges_used p));
          ("edge_words", Json.List (List.map pair edge_pairs));
          ("top_edges", Json.List (List.map pair (top_edges ~k:top_k p)));
        ]
      @ overcount_field
      @ [
          ("load_curve", int_array (load_curve p));
          ("round_max_load", int_array (round_max_load p));
          ( "histogram",
            Json.List
              (List.map
                 (fun (lo, hi, count) ->
                   Json.Obj
                     [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int count) ])
                 (histogram p)) );
        ]
      @ sketch_field
      @ fault_fields)
end

(* --- Flight recorder ------------------------------------------------------ *)

(* Periodic compact snapshots of a live run: enough to see where a long
   big-graph run is and what it is congesting on, without any per-event
   retention. Snapshots travel on the same line-delimited stream as
   events ([{"t": "snapshot", ...}] lines) and are surfaced by
   [lcs_cli top]. *)
module Flight = struct
  type snapshot = {
    round : int;
    words : int;  (* cumulative *)
    messages : int;  (* cumulative *)
    halted : int;  (* nodes halted so far *)
    top : (int * int) list;  (* current heavy hitters, (edge, words) *)
    queues : int array;  (* pending deliveries per shard at the barrier *)
  }

  let to_json s =
    Json.Obj
      [
        ("t", Json.String "snapshot");
        ("round", Json.Int s.round);
        ("words", Json.Int s.words);
        ("messages", Json.Int s.messages);
        ("halted", Json.Int s.halted);
        ( "top",
          Json.List
            (List.map (fun (e, w) -> Json.List [ Json.Int e; Json.Int w ]) s.top) );
        ( "queues",
          Json.List (Array.to_list (Array.map (fun q -> Json.Int q) s.queues)) );
      ]

  let of_json j =
    let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
    let int key =
      match Json.member key j with
      | Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "snapshot field %S missing or not an integer" key)
    in
    let* round = int "round" in
    let* words = int "words" in
    let* messages = int "messages" in
    let* halted = int "halted" in
    let* top =
      match Json.member "top" j with
      | Some (Json.List l) ->
          List.fold_left
            (fun acc v ->
              let* acc = acc in
              match v with
              | Json.List [ Json.Int e; Json.Int w ] -> Ok ((e, w) :: acc)
              | _ -> Error "snapshot \"top\" entry is not an [edge, words] pair")
            (Ok []) l
          |> Result.map List.rev
      | _ -> Error "snapshot has no \"top\" list"
    in
    let* queues =
      match Json.member "queues" j with
      | Some (Json.List l) ->
          List.fold_left
            (fun acc v ->
              let* acc = acc in
              match v with
              | Json.Int q -> Ok (q :: acc)
              | _ -> Error "snapshot \"queues\" entry is not an integer")
            (Ok []) l
          |> Result.map (fun l -> Array.of_list (List.rev l))
      | _ -> Error "snapshot has no \"queues\" list"
    in
    Ok { round; words; messages; halted; top; queues }

  let of_profile ?(k = 10) ?(queues = [||]) ~round p =
    {
      round;
      words = Profile.total_words p;
      messages = Profile.total_messages p;
      halted = Profile.halts p;
      top = Profile.top_edges ~k p;
      queues;
    }

  (* The shard whose range [bounds.(s), bounds.(s + 1)) holds [v]; a node
     outside every range counts toward the nearest end shard. *)
  let shard_of bounds v =
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if v < bounds.(mid) then search lo mid else search mid hi
    in
    search 0 (Array.length bounds - 1)

  (* A delivery is pending at the round's barrier when the round's send or
     duplicate reached the next round's inbox: every one of them to a live
     or halted node (a crashed one yields a [Drop] instead), less those a
     [Delayed] event holds back. *)
  let tracer ~every ~bounds profile emit =
    if every < 1 then invalid_arg "Trace.Flight.tracer: every";
    if Array.length bounds < 2 then invalid_arg "Trace.Flight.tracer: bounds";
    let queues = Array.make (Array.length bounds - 1) 0 in
    let count v delta =
      let s = shard_of bounds v in
      queues.(s) <- queues.(s) + delta
    in
    function
    | Send { dst; _ } | Duplicate { dst; _ } -> count dst 1
    | Delayed { dst; _ } -> count dst (-1)
    | Round_end { round; _ } ->
        if round mod every = 0 then
          emit (of_profile ~queues:(Array.copy queues) ~round profile);
        Array.fill queues 0 (Array.length queues) 0
    | Round_start _ | Halt _ | Drop _ | Link_down _ | Crash _ -> ()
end

(* --- Streaming sink / reader --------------------------------------------- *)

module Stream = struct
  let schema = "lcs-trace-stream/2"

  (* The line set before the report line: a /1 file is a /2 file without
     one, and reads as such. *)
  let schema_v1 = "lcs-trace-stream/1"

  type sink = {
    oc : out_channel;
    mutable events : int;
    mutable snapshots : int;
    mutable closed : bool;
  }

  let write_line sink j =
    output_string sink.oc (Json.to_string ~minify:true j);
    output_char sink.oc '\n'

  let create ?(meta = []) path =
    let sink = { oc = open_out_bin path; events = 0; snapshots = 0; closed = false } in
    write_line sink (Json.Obj (("schema", Json.String schema) :: meta));
    sink

  let tracer sink ev =
    sink.events <- sink.events + 1;
    write_line sink (event_to_json ev)

  let snapshot sink s =
    sink.snapshots <- sink.snapshots + 1;
    write_line sink (Flight.to_json s)

  let report sink fields = write_line sink (Json.Obj (("t", Json.String "report") :: fields))

  let events_written sink = sink.events
  let snapshots_written sink = sink.snapshots

  let close sink =
    if not sink.closed then begin
      sink.closed <- true;
      close_out sink.oc
    end

  type line =
    | Meta of Json.t
    | Event of event
    | Snapshot of Flight.snapshot
    | Report of Json.t

  let parse_line j =
    match Json.member "t" j with
    | Some (Json.String "snapshot") ->
        Result.map (fun s -> Snapshot s) (Flight.of_json j)
    | Some (Json.String "report") -> Ok (Report j)
    | Some _ -> Result.map (fun e -> Event e) (event_of_json j)
    | None -> (
        match Json.member "schema" j with
        | Some (Json.String s) when s = schema || s = schema_v1 -> Ok (Meta j)
        | Some (Json.String s) -> Error ("unexpected stream schema " ^ s)
        | _ -> Error "line is neither an event, a snapshot, a report nor a stream header")

  (* One line at a time — memory stays O(longest line) however large the
     file. The fold stops at the first malformed line and reports its
     number; a trailing partial line (a run killed mid-write) therefore
     surfaces as an error rather than silent truncation. So does an event
     outside the bounds [checker] keeps, which collectors would otherwise
     index out of range, and a line out of place: a header past the first
     line, which would rebind those bounds, and anything after the report
     line, which ends the stream. *)
  let fold path ~init ~f =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let lineno = ref 0 in
            let check = ref (checker ()) in
            let located e = Error (Printf.sprintf "line %d: %s" !lineno e) in
            let rec loop acc at =
              match input_line ic with
              | exception End_of_file -> Ok acc
              | "" ->
                  incr lineno;
                  loop acc at
              | line -> (
                  incr lineno;
                  match (Result.bind (Json.of_string line) parse_line, at) with
                  | Error e, _ -> located e
                  | Ok (Report _), `Ended -> located "second report line"
                  | Ok _, `Ended -> located "nothing may follow the report line"
                  | Ok (Meta _), `Body -> located "stream header after the first line"
                  | Ok (Meta j as l), `Start ->
                      check := checker ~meta:j ();
                      loop (f acc l) `Body
                  | Ok (Event ev as l), _ -> (
                      match !check ev with Ok () -> loop (f acc l) `Body | Error e -> located e)
                  | Ok (Snapshot _ as l), _ -> loop (f acc l) `Body
                  | Ok (Report _ as l), _ -> loop (f acc l) `Ended)
            in
            loop init `Start)

  let replay ?on_meta ?on_snapshot path tr =
    fold path ~init:0 ~f:(fun n l ->
        match l with
        | Event e ->
            tr e;
            n + 1
        | Snapshot s ->
            (match on_snapshot with Some f -> f s | None -> ());
            n
        | Meta j ->
            (match on_meta with Some f -> f j | None -> ());
            n
        | Report _ -> n)
end
