module Graph = Lcs_graph.Graph
module Partition = Lcs_graph.Partition
module Rooted_tree = Lcs_graph.Rooted_tree
module Bitset = Lcs_util.Bitset
module Obs = Lcs_obs.Obs
module Simulator = Lcs_congest.Simulator
module Trace = Lcs_congest.Trace
module Sync_bfs = Lcs_congest.Sync_bfs
module Tree_info = Lcs_congest.Tree_info

type variant =
  | Randomized of { repetitions : int }
  | Deterministic

type outcome = {
  tree : Rooted_tree.t;
  height : int;
  delta : int;
  threshold : int;
  result : Construct.result;
  bfs_stats : Simulator.stats;
  wave_rounds : int;
  wave_messages : int;
  guesses : int;
}

let default_repetitions g =
  let n = max 2 (Graph.n g) in
  let log2 = int_of_float (Float.ceil (log (float_of_int n) /. log 2.)) in
  max 8 (4 * log2)

(* --- Hashing ------------------------------------------------------------ *)

(* A part's r-th hash word: a pure function of (seed, part, r) every node
   can evaluate locally — no communication needed to agree on hashes. The
   value is uniform in [0, 2^53); HASH_EMPTY = 2^53 encodes "no parts in
   this subtree" (acting as min-identity u = 1.0). *)

let hash_bits = 53
let hash_empty = 1 lsl hash_bits

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let part_hash ~seed ~part ~rep =
  let open Int64 in
  let z =
    mix64
      (add
         (mul (of_int seed) 0x9E3779B97F4A7C15L)
         (add (mul (of_int part) 0xD1B54A32D192ED03L) (of_int rep)))
  in
  to_int (shift_right_logical z (64 - hash_bits))

(* Harmonic estimator: with u_r = min over s parts of Uniform(0,1), the
   estimate R / (sum u_r) - 1 concentrates around s. *)
let estimate_count mins =
  let sum =
    Array.fold_left
      (fun acc w -> acc +. (float_of_int w /. float_of_int hash_empty))
      0. mins
  in
  if sum <= 0. then infinity
  else (float_of_int (Array.length mins) /. sum) -. 1.

(* --- The detection wave -------------------------------------------------- *)

(* Message words. *)
let over_flag = min_int
let end_flag = min_int + 1

type phase = Collecting | Streaming | Done

(* What a node merges its children's reports into. *)
type sketch =
  | Mins of { mins : int array; counts : int array }
      (* randomized: running minima, length R, and the data words
         received per port *)
  | Ids of (int, unit) Hashtbl.t  (* deterministic: distinct part ids *)

type wave_state = {
  mutable phase : phase;
  mutable pending : int;  (* children that have not finished reporting *)
  sketch : sketch;
  mutable over_sub : bool;  (* decision for this node's parent edge *)
  mutable stream : int array;
      (* the words to stream upward, fixed at the decision: the minima
         are copied then, because a duplicated word may still reach
         [mins] while the stream drains *)
  mutable sent : int;  (* words of [stream] sent so far *)
  mutable last_cause : int;
      (* causal id of the latest delivery (0 when untraced): the stream
         drains over several rounds, so later sends must link back to the
         arrivals that completed the collection *)
}

let detection_wave_outcome ?(seed = 1) ?domains ?max_rounds ?tracer ?faults ?par_profile
    ~variant
    ~threshold partition info =
  if threshold < 1 then invalid_arg "Distributed.detection_wave: threshold";
  let host = Partition.graph partition in
  let init ctx =
    let v = ctx.Simulator.node in
    let node = info.Tree_info.nodes.(v) in
    let part = Partition.part_of partition v in
    let sketch =
      match variant with
      | Randomized { repetitions } ->
          Mins
            {
              mins =
                Array.init repetitions (fun r ->
                    if part >= 0 then part_hash ~seed ~part ~rep:r else hash_empty);
              counts = Array.make (Array.length ctx.Simulator.neighbors) 0;
            }
      | Deterministic ->
          let ids = Hashtbl.create 8 in
          if part >= 0 then Hashtbl.replace ids part ();
          Ids ids
    in
    {
      phase = Collecting;
      pending = Array.length node.Tree_info.child_ports;
      sketch;
      over_sub = false;
      stream = [||];
      sent = 0;
      last_cause = 0;
    }
  in
  let decide st =
    match st.sketch with
    | Mins { mins; _ } -> estimate_count mins >= float_of_int threshold
    | Ids ids -> Hashtbl.length ids >= threshold
  in
  let payload st =
    match st.sketch with
    | Mins { mins; _ } -> Array.copy mins
    | Ids ids ->
        let ids = Array.of_seq (Hashtbl.to_seq_keys ids) in
        Array.sort Int.compare ids;
        Array.append ids [| end_flag |]
  in
  (* Absorb one child report word. *)
  let absorb st port word =
    if word = over_flag || word = end_flag then st.pending <- st.pending - 1
    else begin
      match st.sketch with
      | Mins { mins; counts } ->
          let r = counts.(port) in
          (* An injected duplicate can stretch a child's stream past
             the R expected words; absorbing it would index past
             [mins]. Corrupted counts still yield a wrong-but-bounded
             estimate, never a crash. *)
          if r < Array.length mins then begin
            counts.(port) <- r + 1;
            if word < mins.(r) then mins.(r) <- word;
            if r + 1 = Array.length mins then st.pending <- st.pending - 1
          end
      | Ids ids -> Hashtbl.replace ids word ()
    end
  in
  (* Send the next stream word; the last one ends the node's wave. A
     stream is never empty: it is the flag, the ids and the end flag, or
     R minima (with R = 0 the estimate is infinite, so the node is over). *)
  let stream_next st mb port =
    Simulator.send mb port st.stream.(st.sent);
    st.sent <- st.sent + 1;
    if st.sent = Array.length st.stream then st.phase <- Done
  in
  let on_round ctx st mb =
    let v = ctx.Simulator.node in
    let node = info.Tree_info.nodes.(v) in
    if Simulator.traced mb then begin
      Simulator.tag mb ~part:(Partition.part_of partition v) ~phase:"wave.stream";
      for i = 0 to Simulator.deliveries mb - 1 do
        st.last_cause <- max st.last_cause (Simulator.cause mb i)
      done
    end;
    (* Absorb child reports. *)
    for i = 0 to Simulator.deliveries mb - 1 do
      absorb st (Simulator.port mb i) (Simulator.payload mb i)
    done;
    let port = node.Tree_info.parent_port in
    (match st.phase with
    | Collecting ->
        (* [<=]: duplicated flag words can push [pending] below zero; the
           node must still decide rather than wait forever. *)
        if st.pending <= 0 then begin
          st.over_sub <- port >= 0 && decide st;
          if port < 0 then st.phase <- Done
          else begin
            st.phase <- Streaming;
            st.stream <- (if st.over_sub then [| over_flag |] else payload st);
            stream_next st mb port
          end
        end
    | Streaming ->
        (* Later stream words are queue-drain sends: caused by the
           arrivals that completed collection, not this round's inbox. *)
        if Simulator.traced mb && st.last_cause > 0 then
          Simulator.parents mb [ st.last_cause ];
        stream_next st mb port
    | Done -> ());
    st
  in
  let program =
    {
      Simulator.init;
      on_round;
      is_halted = (fun st -> st.phase = Done);
      (* A collecting node with reports outstanding waits for them; a node
         ready to decide, or streaming, sends every round until done. *)
      wake =
        (fun st ->
          match st.phase with
          | Collecting when st.pending > 0 -> max_int
          | Collecting | Streaming -> Simulator.every_round
          | Done -> max_int);
      msg_words = (fun _ -> 1);
    }
  in
  let result =
    Lcs_congest.Simulator.run_outcome ?domains ?max_rounds ?tracer ?faults
      ?par_profile host
      program
  in
  let over_of_states states =
    let over = Bitset.create (Graph.m host) in
    Array.iteri
      (fun v st ->
        if st.over_sub then begin
          (* The decision concerns v's parent edge. *)
          let port = info.Tree_info.nodes.(v).Tree_info.parent_port in
          if port >= 0 then begin
            let adj = Graph.ports host v in
            Bitset.add over (Graph.Row.edge adj port)
          end
        end)
      states
    ;
    over
  in
  match result with
  | Simulator.Finished (states, stats) -> Ok (over_of_states states, stats)
  | Simulator.Out_of_rounds (states, p) ->
      let pending =
        let acc = ref [] in
        Array.iteri (fun v st -> if st.phase <> Done then acc := v :: !acc) states;
        List.rev !acc
      in
      Error (pending, p.Simulator.partial_stats)

let detection_wave ?domains ?par_profile ~variant ~threshold partition info =
  match detection_wave_outcome ?domains ?par_profile ~variant ~threshold partition info with
  | Ok (over, stats) -> (over, stats)
  | Error (_pending, partial) -> raise (Simulator.Round_limit partial.Simulator.rounds)

(* --- The pipeline ---------------------------------------------------------- *)

module Fault = Lcs_congest.Fault
module Outcome_t = Lcs_congest.Outcome

type report = {
  constructed : outcome option;  (** [Some] when the pipeline finished *)
  failed_stage : string option;  (** ["bfs"] or ["wave"] when it did not *)
  unjoined : int list;  (** nodes the BFS stage failed to reach *)
  pipeline_rounds : int;  (** simulator rounds across all stages run *)
  validated : bool option;
      (** [Deterministic] only: accepted wave's [O] equals the centralized
          construction's for the same threshold *)
}

(* The one pipeline behind both entry points: the BFS, then the δ-doubling
   wave search, each stage under its own round cap. A crashed node never
   halts, so a degraded stage always spends its whole budget: the caps are
   generous for the fault-free case, not a pipeline-wide ceiling. [Error]
   carries the report and degradation of the stage that stopped short. *)
let pipeline ?obs ~seed ~variant ?domains ?tracer ?faults ?par_profile partition ~root =
  let host = Partition.graph partition in
  Obs.span obs "distributed" @@ fun () ->
  let bfs =
    Obs.span obs "distributed.bfs" (fun () ->
        (* [run_outcome]'s default cap, 4n + 64. *)
        let o = Sync_bfs.run_outcome ?domains ?tracer ?faults ?par_profile host ~root in
        let b = Outcome_t.value o in
        Obs.add_rounds obs b.Sync_bfs.stats.Simulator.rounds;
        Obs.note obs "height" (Obs.Int b.Sync_bfs.height);
        o)
  in
  match bfs with
  | Outcome_t.Degraded (b, d) ->
      Error
        ( {
            constructed = None;
            failed_stage = Some "bfs";
            unjoined = b.Sync_bfs.unjoined;
            pipeline_rounds = b.Sync_bfs.stats.Simulator.rounds;
            validated = None;
          },
          d )
  | Outcome_t.Complete b -> (
      let tree = match b.Sync_bfs.tree with Some t -> t | None -> assert false in
      let height = b.Sync_bfs.height and bfs_stats = b.Sync_bfs.stats in
      let info = Tree_info.of_tree host tree in
      let d = max 1 height in
      let wave_rounds = ref 0 in
      let wave_messages = ref 0 in
      let guesses = ref 0 in
      let rec search delta =
        incr guesses;
        let threshold = 8 * delta * d in
        (* Words per report: R minima, or at most threshold + 1 ids. *)
        let payload =
          match variant with
          | Randomized { repetitions } -> repetitions
          | Deterministic -> threshold + 1
        in
        let wave =
          Obs.span obs "distributed.wave" (fun () ->
              Obs.note obs "delta" (Obs.Int delta);
              Obs.note obs "threshold" (Obs.Int threshold);
              let wave =
                detection_wave_outcome ~seed:(seed + !guesses) ?domains
                  ~max_rounds:(256 + (8 * d * max payload 4))
                  ?tracer ?faults ?par_profile ~variant ~threshold partition info
              in
              (match wave with
              | Ok (_, stats) ->
                  Obs.add_rounds obs stats.Simulator.rounds;
                  (* A wave buffers up the tree then streams its payload:
                     O(D + payload) rounds. *)
                  Obs.bound obs ~metric:"rounds"
                    ~predicted:(float_of_int (d + payload + 8))
                    ~observed:(float_of_int stats.Simulator.rounds)
              | Error _ -> ());
              wave)
        in
        match wave with
        | Error (pending, partial) ->
            wave_rounds := !wave_rounds + partial.Simulator.rounds;
            Error pending
        | Ok (over, stats) ->
            wave_rounds := !wave_rounds + stats.Simulator.rounds;
            wave_messages := !wave_messages + stats.Simulator.messages;
            let result =
              Construct.with_fixed_overcongested ?obs partition ~tree ~over ~threshold
                ~block_budget:(8 * delta)
            in
            if Construct.succeeded result then Ok (over, result, delta, threshold)
            else search (2 * delta)
      in
      let searched = search 1 in
      let rounds = bfs_stats.Simulator.rounds + !wave_rounds in
      match searched with
      | Error pending ->
          Error
            ( {
                constructed = None;
                failed_stage = Some "wave";
                unjoined = [];
                pipeline_rounds = rounds;
                validated = None;
              },
              {
                Outcome_t.crashed =
                  (match faults with None -> [] | Some inj -> Fault.crashed_nodes inj);
                unresponsive = [];
                affected = pending;
                out_of_rounds = true;
                rounds;
              } )
      | Ok (over, result, delta, threshold) ->
          Obs.note obs "guesses" (Obs.Int !guesses);
          Ok
            ( over,
              {
                tree;
                height;
                delta;
                threshold;
                result;
                bfs_stats;
                wave_rounds = !wave_rounds;
                wave_messages = !wave_messages;
                guesses = !guesses;
              } ))

let variant_or_default host = function
  | Some v -> v
  | None -> Randomized { repetitions = default_repetitions host }

let construct ?obs ?(seed = 1) ?variant ?domains ?tracer ?par_profile partition ~root =
  let variant = variant_or_default (Partition.graph partition) variant in
  match pipeline ?obs ~seed ~variant ?domains ?tracer ?par_profile partition ~root with
  | Ok (_, constructed) -> constructed
  | Error (_, d) -> raise (Simulator.Round_limit d.Outcome_t.rounds)

let construct_outcome ?(seed = 1) ?variant ?domains ?tracer ?faults ?par_profile partition
    ~root =
  let host = Partition.graph partition in
  let variant = variant_or_default host variant in
  match pipeline ~seed ~variant ?domains ?tracer ?faults ?par_profile partition ~root with
  | Error (report, d) -> Outcome_t.Degraded (report, d)
  | Ok (over, constructed) ->
      let validated =
        match variant with
        | Randomized _ -> None
        | Deterministic ->
            let central =
              Construct.run partition ~tree:constructed.tree
                ~threshold:constructed.threshold ~block_budget:(8 * constructed.delta)
            in
            let m = Graph.m host in
            let same = ref true in
            for e = 0 to m - 1 do
              if Bitset.mem over e <> Bitset.mem central.Construct.overcongested e then
                same := false
            done;
            Some !same
      in
      let rounds = constructed.bfs_stats.Simulator.rounds + constructed.wave_rounds in
      let report =
        {
          constructed = Some constructed;
          failed_stage = None;
          unjoined = [];
          pipeline_rounds = rounds;
          validated;
        }
      in
      let deg =
        {
          Outcome_t.crashed =
            (match faults with None -> [] | Some inj -> Fault.crashed_nodes inj);
          unresponsive = [];
          affected = [];
          out_of_rounds = false;
          rounds;
        }
      in
      (* A failed validation degrades the outcome even though no node
         is individually damaged: the constructed O itself is wrong. *)
      if Outcome_t.is_clean deg && validated <> Some false then Outcome_t.Complete report
      else Outcome_t.Degraded (report, deg)
