module Graph = Lcs_graph.Graph
module Rooted_tree = Lcs_graph.Rooted_tree

type msg =
  | Join of int  (** sender's BFS depth *)
  | Child  (** "you are my parent" *)
  | Height of int  (** max absolute depth in the sender's subtree *)
  | Gheight of int  (** global height, broadcast down *)

type phase =
  | Idle  (** not yet joined *)
  | Announce  (** joined; must announce next round *)
  | Collect  (** waiting the two rounds for Child notifications *)
  | Gather  (** waiting for Height from children *)
  | Wait_height  (** sent Height up; waiting for Gheight *)
  | Finished

type state = {
  phase : phase;
  dist : int;
  parent_port : int;
  children : int list;  (** ports *)
  reported : int list;  (** child ports whose Height was absorbed *)
  heights_needed : int;
  best_height : int;
  global_height : int;
  announce_clock : int;  (** the round this node announced *)
  join_cause : int;
      (** causal id of the adopted Join message (0 when untraced or at the
          root) — the announce-clock timer fires two rounds later, so the
          causal link must be carried in state *)
}

let initial is_root _ctx =
  {
    phase = (if is_root then Announce else Idle);
    dist = (if is_root then 0 else -1);
    parent_port = -1;
    children = [];
    reported = [];
    heights_needed = -1;
    best_height = -1;
    global_height = -1;
    announce_clock = -1;
    join_cause = 0;
  }

let words = function Join _ | Child | Height _ | Gheight _ -> 1

(* [idx] is the inbox position of the message being absorbed, threaded as
   a plain argument so [absorb] stays a static closure with no shared
   scratch: a module-level ref would race under the sharded core
   (the simulator activates nodes of different shards concurrently), and
   a per-activation [ref] would put three words on the minor heap for
   every activation of every untraced run. The duplicate guards compare
   ports with [List.memq]: ports are ints, so physical equality is their
   equality, without a polymorphic compare per child. *)
let absorb mb st idx port msg =
  match msg with
  | Join d ->
      if st.dist < 0 then
        {
          st with
          dist = d + 1;
          parent_port = port;
          phase = Announce;
          join_cause = Simulator.cause mb idx;
        }
      else st
  | Child ->
      (* Idempotent against injected duplicates: registering the same
         port twice would later fan two Gheight copies through one
         port in one round, breaching the bandwidth budget. *)
      if List.memq port st.children then st
      else { st with children = port :: st.children }
  | Height h ->
      if List.memq port st.reported then st
      else
        {
          st with
          reported = port :: st.reported;
          best_height = max st.best_height h;
          heights_needed = st.heights_needed - 1;
        }
  | Gheight h -> { st with global_height = h }

let rec absorb_all mb st idx =
  if idx = Simulator.deliveries mb then st
  else
    absorb_all mb
      (absorb mb st idx (Simulator.port mb idx) (Simulator.payload mb idx))
      (idx + 1)

let rec send_each mb msg = function
  | [] -> ()
  | port :: rest ->
      Simulator.send mb port msg;
      send_each mb msg rest

let on_round ctx state mb =
  let round = Simulator.round ctx in
  (* 1. Absorb messages. *)
  let state = absorb_all mb state 0 in
  (* 2. Act according to phase. *)
  let degree = Array.length ctx.Simulator.neighbors in
  match state.phase with
  | Idle -> state
  | Announce ->
      (* The adopted Join arrived this very round, but the inbox may also
         hold announcements we did not adopt — declare the real cause. *)
      if Simulator.traced mb then begin
        Simulator.tag mb ~part:(-1) ~phase:"bfs.announce";
        if state.join_cause > 0 then Simulator.parents mb [ state.join_cause ]
      end;
      (* Child to the parent first, then Join on every other port, last
         port first: the fingerprint suite pins this send order. *)
      if state.parent_port >= 0 then Simulator.send mb state.parent_port Child;
      let join = Join state.dist in
      for port = degree - 1 downto 0 do
        if port <> state.parent_port then Simulator.send mb port join
      done;
      { state with phase = Collect; announce_clock = round }
  | Collect ->
      (* Children's Child messages arrive exactly two rounds after our
         announcement: they hear us in round announce+1 and notify in round
         announce+2. *)
      if round >= state.announce_clock + 2 then begin
        let nchildren = List.length state.children in
        if nchildren = 0 then
          if state.parent_port < 0 then
            (* Root with no children: trivial single-node tree. *)
            { state with phase = Finished; global_height = 0 }
          else begin
            (* Timer-gated: caused by the Join adopted two rounds ago, not
               by anything in this round's (empty) inbox. *)
            if Simulator.traced mb then begin
              Simulator.tag mb ~part:(-1) ~phase:"bfs.height";
              if state.join_cause > 0 then Simulator.parents mb [ state.join_cause ]
            end;
            Simulator.send mb state.parent_port (Height state.dist);
            { state with phase = Wait_height }
          end
        else { state with phase = Gather; heights_needed = nchildren; best_height = state.dist }
      end
      else state
  | Gather ->
      if state.heights_needed = 0 then
        if state.parent_port < 0 then begin
          (* Root: learned the height; broadcast down. The triggering
             Height messages arrived this round — inbox default is right. *)
          Simulator.tag mb ~part:(-1) ~phase:"bfs.gheight";
          send_each mb (Gheight state.best_height) state.children;
          { state with phase = Finished; global_height = state.best_height }
        end
        else begin
          Simulator.tag mb ~part:(-1) ~phase:"bfs.height";
          Simulator.send mb state.parent_port (Height state.best_height);
          { state with phase = Wait_height }
        end
      else state
  | Wait_height ->
      if state.global_height >= 0 then begin
        Simulator.tag mb ~part:(-1) ~phase:"bfs.gheight";
        send_each mb (Gheight state.global_height) state.children;
        { state with phase = Finished }
      end
      else state
  | Finished -> state

(* Only an announcement and the Child-collection timer act without mail;
   every other phase waits for a message. *)
let wake st =
  match st.phase with
  | Announce -> Simulator.every_round
  | Collect -> st.announce_clock + 2
  | Idle | Gather | Wait_height | Finished -> max_int

let make_program ~root =
  {
    Simulator.init = (fun ctx -> initial (ctx.Simulator.node = root) ctx);
    on_round;
    is_halted = (fun st -> st.phase = Finished);
    wake;
    msg_words = words;
  }

let parents_of_states g states =
  let n = Graph.n g in
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  Array.iteri
    (fun v st ->
      if st.parent_port >= 0 then begin
        let adj = Graph.ports g v in
        let w, e = Graph.Row.pair adj st.parent_port in
        parent.(v) <- w;
        parent_edge.(v) <- e
      end)
    states;
  (parent, parent_edge)

(* --- Entry points ---------------------------------------------------------- *)

type report = {
  tree : Rooted_tree.t option;  (** [Some] only when every node joined *)
  parent : int array;  (** [-1] at the root and at unjoined nodes *)
  dist : int array;  (** BFS depth; [-1] at unjoined nodes *)
  height : int;  (** global height as known at the root; [-1] if unknown *)
  unjoined : int list;  (** nodes that never joined the tree, ascending *)
  stats : Simulator.stats;
}

let run_outcome ?domains ?tracer ?faults ?par_profile g ~root =
  (* The wave protocol counts exact round offsets (Child notifications
     arrive announce+2), so it cannot ride on the Reliable ARQ, which
     stretches the clock: it runs raw, and any injected loss degrades the
     result honestly instead of corrupting it. *)
  let n = Graph.n g in
  let states, stats, degradation =
    Simulator.settle ?faults
      (Simulator.run_outcome ?domains ~max_rounds:((4 * n) + 64) ?tracer ?faults
         ?par_profile g (make_program ~root))
  in
  let parent, parent_edge = parents_of_states g states in
  let dist = Array.map (fun (st : state) -> st.dist) states in
  let unjoined = ref [] in
  for v = n - 1 downto 0 do
    if dist.(v) < 0 then unjoined := v :: !unjoined
  done;
  let unjoined = !unjoined in
  (* Validate what did join: each joined non-root node's parent must be
     joined one level shallower. Lost Join messages can delay adoption but
     never violate this (a node adopts the first announcement it hears,
     whose sender's depth it copies verbatim), so a violation marks the
     node affected rather than trusting the partial tree. *)
  let invalid = ref [] in
  for v = n - 1 downto 0 do
    if v <> root && dist.(v) >= 0 then begin
      let p = parent.(v) in
      if p < 0 || dist.(p) <> dist.(v) - 1 then invalid := v :: !invalid
    end
  done;
  let invalid = !invalid in
  let tree =
    if unjoined = [] && invalid = [] then
      Some (Rooted_tree.create ~root ~parent ~parent_edge)
    else None
  in
  let height = states.(root).global_height in
  let affected = List.sort_uniq compare (unjoined @ invalid) in
  Outcome.classify
    { tree; parent; dist; height; unjoined; stats }
    { degradation with Outcome.affected }

let run ?domains ?tracer ?par_profile g ~root =
  match run_outcome ?domains ?tracer ?par_profile g ~root with
  | Outcome.Complete { tree = Some tree; height; stats; _ } -> (tree, height, stats)
  | o -> raise (Simulator.Round_limit (Outcome.value o).stats.Simulator.rounds)
