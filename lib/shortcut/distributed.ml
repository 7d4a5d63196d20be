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

type wave_state = {
  phase : phase;
  pending : int;  (* children that have not finished reporting *)
  child_count : int array;  (* data words received, per port *)
  mins : int array;  (* randomized: running minima, length R *)
  ids : (int, unit) Hashtbl.t;  (* deterministic: distinct part ids *)
  over_sub : bool;  (* decision for this node's parent edge *)
  queue : int list;  (* words left to stream upward *)
  last_cause : int;
      (* causal id of the latest delivery (0 when untraced): the stream
         drains over several rounds, so later sends must link back to the
         arrivals that completed the collection *)
}

let detection_wave_outcome ?(seed = 1) ?domains ?max_rounds ?tracer ?faults ?par_profile
    ~variant
    ~threshold partition info =
  if threshold < 1 then invalid_arg "Distributed.detection_wave: threshold";
  let host = Partition.graph partition in
  let repetitions = match variant with Randomized { repetitions } -> repetitions | Deterministic -> 0 in
  let init ctx =
    let v = ctx.Simulator.node in
    let node = info.Tree_info.nodes.(v) in
    let part = Partition.part_of partition v in
    let mins =
      Array.init repetitions (fun r ->
          if part >= 0 then part_hash ~seed ~part ~rep:r else hash_empty)
    in
    let ids = Hashtbl.create 8 in
    if variant = Deterministic && part >= 0 then Hashtbl.replace ids part ();
    {
      phase = Collecting;
      pending = Array.length node.Tree_info.child_ports;
      child_count = Array.make (Array.length ctx.Simulator.neighbors) 0;
      mins;
      ids;
      over_sub = false;
      queue = [];
      last_cause = 0;
    }
  in
  let decide st =
    match variant with
    | Randomized _ -> estimate_count st.mins >= float_of_int threshold
    | Deterministic -> Hashtbl.length st.ids >= threshold
  in
  let payload st =
    match variant with
    | Randomized _ -> Array.to_list st.mins
    | Deterministic ->
        let ids = Hashtbl.fold (fun id () acc -> id :: acc) st.ids [] in
        List.sort compare ids @ [ end_flag ]
  in
  (* Absorb one child report word. *)
  let absorb st port word =
    if word = over_flag then { st with pending = st.pending - 1 }
    else if word = end_flag then { st with pending = st.pending - 1 }
    else begin
      match variant with
      | Randomized { repetitions } ->
          let r = st.child_count.(port) in
          (* An injected duplicate can stretch a child's stream past
             the R expected words; absorbing it would index past
             [mins]. Corrupted counts still yield a wrong-but-bounded
             estimate, never a crash. *)
          if r >= repetitions then st
          else begin
            st.child_count.(port) <- r + 1;
            if word < st.mins.(r) then st.mins.(r) <- word;
            if r + 1 = repetitions then { st with pending = st.pending - 1 } else st
          end
      | Deterministic ->
          Hashtbl.replace st.ids word ();
          st
    end
  in
  let on_round ctx st mb =
    let v = ctx.Simulator.node in
    let node = info.Tree_info.nodes.(v) in
    let st =
      if Trace.Cause.enabled () then begin
        Trace.Cause.tag ~part:(Partition.part_of partition v) ~phase:"wave.stream";
        let ids = Trace.Cause.inbox () in
        if Array.length ids > 0 then
          { st with last_cause = Array.fold_left max st.last_cause ids }
        else st
      end
      else st
    in
    (* Absorb child reports. *)
    let st = ref st in
    for i = 0 to Simulator.deliveries mb - 1 do
      st := absorb !st (Simulator.port mb i) (Simulator.payload mb i)
    done;
    let st = !st in
    match st.phase with
    | Collecting ->
        (* [<=]: duplicated flag words can push [pending] below zero; the
           node must still decide rather than wait forever. *)
        if st.pending <= 0 then begin
          let over_sub = node.Tree_info.parent_port >= 0 && decide st in
          let queue =
            if node.Tree_info.parent_port < 0 then []
            else if over_sub then [ over_flag ]
            else payload st
          in
          let st = { st with phase = Streaming; over_sub; queue } in
          match st.queue with
          | [] -> { st with phase = Done }
          | w :: rest ->
              Simulator.send mb node.Tree_info.parent_port w;
              let st = { st with queue = rest } in
              if rest = [] then { st with phase = Done } else st
        end
        else st
    | Streaming -> (
        match st.queue with
        | [] -> { st with phase = Done }
        | w :: rest ->
            (* Later stream words are queue-drain sends: caused by the
               arrivals that completed collection, not this round's inbox. *)
            if Trace.Cause.enabled () && st.last_cause > 0 then
              Trace.Cause.parents [ st.last_cause ];
            Simulator.send mb node.Tree_info.parent_port w;
            let st = { st with queue = rest } in
            if rest = [] then { st with phase = Done } else st)
    | Done -> st
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

let detection_wave ?seed ?domains ?max_rounds ?tracer ?faults ?par_profile ~variant
    ~threshold
    partition info =
  match
    detection_wave_outcome ?seed ?domains ?max_rounds ?tracer ?faults ?par_profile
      ~variant
      ~threshold partition info
  with
  | Ok (over, stats) -> (over, stats)
  | Error (_pending, partial) -> raise (Simulator.Round_limit partial.Simulator.rounds)

(* --- Full pipeline ------------------------------------------------------- *)

let construct ?obs ?(seed = 1) ?variant ?(max_rounds = 2_000_000)
    ?(initial_delta = 1) ?domains ?tracer ?par_profile partition ~root =
  let host = Partition.graph partition in
  let variant =
    match variant with
    | Some v -> v
    | None -> Randomized { repetitions = default_repetitions host }
  in
  Obs.span obs "distributed" (fun () ->
      let tree, height, bfs_stats =
        Obs.span obs "distributed.bfs" (fun () ->
            let tree, height, stats =
              Sync_bfs.run ?domains ~max_rounds ?tracer ?par_profile host ~root
            in
            Obs.add_rounds obs stats.Simulator.rounds;
            Obs.note obs "height" (Obs.Int height);
            (tree, height, stats))
      in
      let info = Tree_info.of_tree host tree in
      let d = max 1 height in
      let payload =
        match variant with
        | Randomized { repetitions } -> repetitions
        | Deterministic -> 0 (* threshold-dependent; noted per wave *)
      in
      let wave_rounds = ref 0 in
      let wave_messages = ref 0 in
      let guesses = ref 0 in
      let rec search delta =
        incr guesses;
        let threshold = 8 * delta * d in
        let over, stats =
          Obs.span obs "distributed.wave" (fun () ->
              Obs.note obs "delta" (Obs.Int delta);
              Obs.note obs "threshold" (Obs.Int threshold);
              let over, stats =
                detection_wave ~seed:(seed + !guesses) ?domains ~max_rounds ?tracer
                  ?par_profile
                  ~variant ~threshold partition info
              in
              Obs.add_rounds obs stats.Simulator.rounds;
              (* A wave buffers up the tree then streams its payload:
                 O(D + payload) rounds (payload = threshold + 1 words per
                 deterministic report). *)
              let per_wave =
                if payload > 0 then payload else threshold + 1
              in
              Obs.bound obs ~metric:"rounds"
                ~predicted:(float_of_int (d + per_wave + 8))
                ~observed:(float_of_int stats.Simulator.rounds);
              (over, stats))
        in
        wave_rounds := !wave_rounds + stats.Simulator.rounds;
        wave_messages := !wave_messages + stats.Simulator.messages;
        let result =
          Construct.with_fixed_overcongested ?obs partition ~tree ~over ~threshold
            ~block_budget:(8 * delta)
        in
        if Construct.succeeded result then (result, delta, threshold)
        else search (2 * delta)
      in
      let result, delta, threshold = search initial_delta in
      Obs.note obs "guesses" (Obs.Int !guesses);
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
      })

(* --- Fault-tolerant pipeline --------------------------------------------- *)

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

let construct_outcome ?(seed = 1) ?variant ?(max_rounds = 2_000_000) ?(initial_delta = 1)
    ?domains ?tracer ?faults ?par_profile partition ~root =
  let host = Partition.graph partition in
  let variant =
    match variant with
    | Some v -> v
    | None -> Randomized { repetitions = default_repetitions host }
  in
  let crashed () =
    match faults with None -> [] | Some inj -> Fault.crashed_nodes inj
  in
  (* Per-stage round caps: a crashed node never halts, so a degraded
     stage always spends its whole budget — the budget must be "generous
     for the fault-free case", not the pipeline-wide 2M ceiling. *)
  let bfs_cap = min max_rounds ((4 * Graph.n host) + 64) in
  match
    Sync_bfs.run_outcome ?domains ~max_rounds:bfs_cap ?tracer ?faults ?par_profile host
      ~root
  with
  | Lcs_congest.Outcome.Degraded (b, d) ->
      Outcome_t.Degraded
        ( {
            constructed = None;
            failed_stage = Some "bfs";
            unjoined = b.Sync_bfs.unjoined;
            pipeline_rounds = b.Sync_bfs.stats.Simulator.rounds;
            validated = None;
          },
          d )
  | Lcs_congest.Outcome.Complete b ->
      let tree =
        match b.Sync_bfs.tree with Some t -> t | None -> assert false
      in
      let height = b.Sync_bfs.height in
      let bfs_stats = b.Sync_bfs.stats in
      let info = Tree_info.of_tree host tree in
      let d = max 1 height in
      let wave_rounds = ref 0 in
      let wave_messages = ref 0 in
      let guesses = ref 0 in
      let rec search delta =
        incr guesses;
        let threshold = 8 * delta * d in
        let payload =
          match variant with
          | Randomized { repetitions } -> repetitions
          | Deterministic -> threshold + 1
        in
        let wave_cap = min max_rounds (256 + (8 * d * max payload 4)) in
        match
          detection_wave_outcome ~seed:(seed + !guesses) ?domains ~max_rounds:wave_cap
            ?par_profile
            ?tracer ?faults ~variant ~threshold partition info
        with
        | Error (pending, partial) ->
            wave_rounds := !wave_rounds + partial.Simulator.rounds;
            Error pending
        | Ok (over, stats) -> (
            wave_rounds := !wave_rounds + stats.Simulator.rounds;
            wave_messages := !wave_messages + stats.Simulator.messages;
            let result =
              Construct.with_fixed_overcongested partition ~tree ~over ~threshold
                ~block_budget:(8 * delta)
            in
            if Construct.succeeded result then Ok (over, result, delta, threshold)
            else search (2 * delta))
      in
      (match search initial_delta with
      | Error pending ->
          Outcome_t.Degraded
            ( {
                constructed = None;
                failed_stage = Some "wave";
                unjoined = [];
                pipeline_rounds = bfs_stats.Simulator.rounds + !wave_rounds;
                validated = None;
              },
              {
                Outcome_t.crashed = crashed ();
                unresponsive = [];
                affected = pending;
                out_of_rounds = true;
                rounds = bfs_stats.Simulator.rounds + !wave_rounds;
              } )
      | Ok (over, result, delta, threshold) ->
          let validated =
            match variant with
            | Randomized _ -> None
            | Deterministic ->
                let central =
                  Construct.run partition ~tree ~threshold ~block_budget:(8 * delta)
                in
                let m = Graph.m host in
                let same = ref true in
                for e = 0 to m - 1 do
                  if Bitset.mem over e <> Bitset.mem central.Construct.overcongested e
                  then same := false
                done;
                Some !same
          in
          let constructed =
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
            }
          in
          let rounds = bfs_stats.Simulator.rounds + !wave_rounds in
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
              Outcome_t.crashed = crashed ();
              unresponsive = [];
              affected = [];
              out_of_rounds = false;
              rounds;
            }
          in
          (* A failed validation degrades the outcome even though no node
             is individually damaged: the constructed O itself is wrong. *)
          if Outcome_t.is_clean deg && validated <> Some false then
            Outcome_t.Complete report
          else Outcome_t.Degraded (report, deg))
