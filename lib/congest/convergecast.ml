type state = { acc : int; waiting : int; sent : bool }

let run ?tracer g info ~values ~combine =
  let program =
    {
      Simulator.init =
        (fun ctx ->
          let v = ctx.Simulator.node in
          let node = info.Tree_info.nodes.(v) in
          {
            acc = values.(v);
            waiting = Array.length node.Tree_info.child_ports;
            sent = false;
          });
      on_round =
        (fun ctx st mb ->
          let st = ref st in
          for i = 0 to Simulator.deliveries mb - 1 do
            st :=
              { !st with acc = combine !st.acc (Simulator.payload mb i); waiting = !st.waiting - 1 }
          done;
          let st = !st in
          let node = info.Tree_info.nodes.(ctx.Simulator.node) in
          if st.waiting = 0 && not st.sent then begin
            (* The last child contribution arrived this round (leaves fire
               with an empty inbox), so the inbox default parents are
               already exact. *)
            Simulator.tag mb ~part:(-1) ~phase:"convergecast";
            if node.Tree_info.parent_port >= 0 then
              Simulator.send mb node.Tree_info.parent_port st.acc;
            { st with sent = true }
          end
          else st)
      ;
      is_halted = (fun st -> st.sent);
      (* Leaves fire at once; an inner node waits for its children. *)
      wake =
        (fun st -> if st.waiting = 0 && not st.sent then Simulator.every_round else max_int);
      msg_words = (fun _ -> 1);
    }
  in
  let states, stats = Simulator.run ?tracer g program in
  (states.(info.Tree_info.root).acc, stats)

(* --- Fault-tolerant entry point ------------------------------------------ *)

type msg = Probe | Val of int

(* Outcome-mode state. [got] records which child ports have delivered, so
   the post-run tree walk can tell exactly which subtrees made it into
   each accumulator; the probe machinery exists because ARQ dead-link
   detection only fires on the *sender* side — a parent that never sends
   to a crashed child would wait on it forever, so it probes pending
   children until they report (or the channel dies). *)
type ostate = {
  o_acc : int;
  o_waiting : int;
  o_sent : bool;
  got : bool array;  (* per port: delivered a Val *)
  excluded : bool array;  (* per child port: given up (dead channel) *)
  o_clock : int;
}

let probe_interval = 8

let outcome_program info ~values ~combine =
  let is_child info v port =
    Array.exists (fun p -> p = port) info.Tree_info.nodes.(v).Tree_info.child_ports
  in
  {
    Simulator.init =
      (fun ctx ->
        let v = ctx.Simulator.node in
        let node = info.Tree_info.nodes.(v) in
        let degree = Array.length ctx.Simulator.neighbors in
        {
          o_acc = values.(v);
          o_waiting = Array.length node.Tree_info.child_ports;
          o_sent = false;
          got = Array.make degree false;
          excluded = Array.make degree false;
          o_clock = 0;
        });
    on_round =
      (fun ctx st mb ->
        let v = ctx.Simulator.node in
        let st = ref { st with o_clock = st.o_clock + 1 } in
        for i = 0 to Simulator.deliveries mb - 1 do
          let port = Simulator.port mb i in
          match Simulator.payload mb i with
          | Probe -> ()
          | Val x ->
              if not (!st.got.(port) || !st.excluded.(port)) then begin
                !st.got.(port) <- true;
                st := { !st with o_acc = combine !st.o_acc x; o_waiting = !st.o_waiting - 1 }
              end
        done;
        let st = !st in
        let node = info.Tree_info.nodes.(v) in
        let forward = st.o_waiting = 0 && not st.o_sent in
        if forward && node.Tree_info.parent_port >= 0 then
          Simulator.send mb node.Tree_info.parent_port (Val st.o_acc);
        (* Keep probing children that have neither reported nor been
           written off: the probes are what lets the ARQ notice a dead
           channel on an edge the convergecast itself never uses downward.
           They follow the report, last child first: the fingerprint
           suite pins this send order. *)
        if (st.o_clock - 1) mod probe_interval = 0 then begin
          let children = node.Tree_info.child_ports in
          for c = Array.length children - 1 downto 0 do
            let p = children.(c) in
            if not (st.got.(p) || st.excluded.(p)) then Simulator.send mb p Probe
          done
        end;
        if forward then { st with o_sent = true } else st)
    ;
    (* A node that has forwarded may still be probing? No: waiting = 0
       means every child reported or was excluded, so no probes remain. *)
    is_halted = (fun st -> st.o_sent);
    (* The probe timer keeps its own clock. *)
    wake = Simulator.always;
    msg_words = (fun _ -> 1);
  }
  |> fun program -> (program, is_child)

type report = {
  total : int;  (** the root's accumulator *)
  included : int list;  (** nodes whose values reached the root, ascending *)
  excluded : int list;  (** nodes whose values did not, ascending *)
  validated : bool;  (** [total] equals the sequential combine of [included] *)
  rstats : Simulator.stats;
  retransmissions : int;
}

let run_outcome ?tracer ?faults g info ~values ~combine =
  let max_rounds = 1_024 + (32 * (info.Tree_info.height + 1)) in
  let program, is_child = outcome_program info ~values ~combine in
  let on_dead ctx st ~port =
    (* Channel to a child died: stop waiting for that subtree. *)
    let v = ctx.Simulator.node in
    if is_child info v port && (not st.got.(port)) && not st.excluded.(port) then begin
      st.excluded.(port) <- true;
      { st with o_waiting = st.o_waiting - 1 }
    end
    else st
  in
  let states, rstats, degradation =
    Simulator.settle ?faults
      (Simulator.run_outcome ~max_rounds ?tracer ?faults g (Reliable.wrap ~on_dead program))
  in
  let retransmissions = Reliable.retransmissions states in
  let unresponsive = Reliable.dead_links states in
  let states = Reliable.inner_states states in
  let root = info.Tree_info.root in
  let n = Array.length states in
  (* A node's value reached the root iff every child→parent hop on its
     root path delivered: walk the tree top-down following got flags. *)
  let included = Array.make n false in
  included.(root) <- true;
  let rec visit v =
    Array.iter
      (fun p ->
        if states.(v).got.(p) then begin
          let w = Lcs_graph.Graph.Row.neighbor (Lcs_graph.Graph.ports g v) p in
          included.(w) <- true;
          visit w
        end)
      info.Tree_info.nodes.(v).Tree_info.child_ports
  in
  visit root;
  let inc = ref [] and exc = ref [] in
  for v = n - 1 downto 0 do
    if included.(v) then inc := v :: !inc else exc := v :: !exc
  done;
  let included = !inc and excluded = !exc in
  let expected =
    match included with
    | [] -> values.(root)
    | v0 :: rest -> List.fold_left (fun acc v -> combine acc values.(v)) values.(v0) rest
  in
  let total = states.(root).o_acc in
  let validated = total = expected in
  let affected = if validated then excluded else List.init n Fun.id in
  Outcome.classify
    { total; included; excluded; validated; rstats; retransmissions }
    { degradation with Outcome.unresponsive; affected }
