type state = { value : int option; sent : bool }

let program info ~value =
  {
    Simulator.init =
      (fun ctx ->
        if ctx.Simulator.node = info.Tree_info.root then
          { value = Some value; sent = false }
        else { value = None; sent = false });
    on_round =
      (fun ctx st mb ->
        let st =
          match st.value with
          | None when Simulator.deliveries mb > 0 ->
              { st with value = Some (Simulator.payload mb 0) }
          | _ -> st
        in
        match st.value with
        | Some v when not st.sent ->
            (* The triggering delivery (if any) arrived this round, so the
               inbox default parents are already exact. *)
            Trace.Cause.tag ~part:(-1) ~phase:"broadcast";
            Array.iter
              (fun p -> Simulator.send mb p v)
              info.Tree_info.nodes.(ctx.Simulator.node).Tree_info.child_ports;
            { st with sent = true }
        | _ -> st)
    ;
    is_halted = (fun st -> st.sent);
    (* Only a node holding the value has anything to do without mail. *)
    wake =
      (fun st ->
        match st.value with
        | Some _ when not st.sent -> Simulator.every_round
        | _ -> max_int);
    msg_words = (fun _ -> 1);
  }

let run ?tracer g info ~value =
  let program = program info ~value in
  let states, stats = Simulator.run ?tracer g program in
  let values =
    Array.map
      (fun st -> match st.value with Some v -> v | None -> invalid_arg "Broadcast: unreached")
      states
  in
  (values, stats)

type report = {
  values : int option array;
  unreached : int list;
  stats : Simulator.stats;
  retransmissions : int;
}

let run_outcome ?tracer ?faults ?(reliable = true) ?config g info ~value =
  let max_rounds = 1_024 + (32 * (info.Tree_info.height + 1)) in
  let inner = program info ~value in
  let extract result of_states retrans_of dead_of =
    match result with
    | Simulator.Finished (states, stats) ->
        (of_states states, retrans_of states, dead_of states, false, stats)
    | Simulator.Out_of_rounds (states, p) ->
        (of_states states, retrans_of states, dead_of states, true, p.Simulator.partial_stats)
  in
  let inner_states, retransmissions, unresponsive, out_of_rounds, stats =
    if reliable then
      let wrapped = Reliable.wrap ?config inner in
      extract
        (Simulator.run_outcome ~max_rounds ?tracer ?faults g wrapped)
        Reliable.inner_states Reliable.retransmissions Reliable.dead_links
    else
      extract
        (Simulator.run_outcome ~max_rounds ?tracer ?faults g inner)
        Fun.id
        (fun _ -> 0)
        (fun _ -> [])
  in
  let values = Array.map (fun st -> st.value) inner_states in
  (* A node is affected if it never got the value — or, should a value
     ever diverge from the root's, if it got a wrong one: degradation
     must mean omission, never silent corruption. *)
  let affected = ref [] in
  Array.iteri
    (fun v o ->
      match o with
      | Some x when x = value -> ()
      | Some _ | None -> affected := v :: !affected)
    values;
  let affected = List.rev !affected in
  let crashed = match faults with None -> [] | Some inj -> Fault.crashed_nodes inj in
  let report = { values; unreached = affected; stats; retransmissions } in
  Outcome.classify report
    {
      Outcome.crashed;
      unresponsive;
      affected;
      out_of_rounds;
      rounds = stats.Simulator.rounds;
    }
