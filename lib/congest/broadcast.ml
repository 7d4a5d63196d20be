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
            Simulator.tag mb ~part:(-1) ~phase:"broadcast";
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

type report = {
  values : int option array;
  unreached : int list;
  stats : Simulator.stats;
  retransmissions : int;
}

let run_outcome ?tracer ?faults ?(reliable = true) ?config g info ~value =
  let max_rounds = 1_024 + (32 * (info.Tree_info.height + 1)) in
  let inner = program info ~value in
  let inner_states, retransmissions, unresponsive, stats, degradation =
    if reliable then
      let states, stats, d =
        Simulator.settle ?faults
          (Simulator.run_outcome ~max_rounds ?tracer ?faults g (Reliable.wrap ?config inner))
      in
      ( Reliable.inner_states states,
        Reliable.retransmissions states,
        Reliable.dead_links states,
        stats,
        d )
    else
      let states, stats, d =
        Simulator.settle ?faults (Simulator.run_outcome ~max_rounds ?tracer ?faults g inner)
      in
      (states, 0, [], stats, d)
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
  Outcome.classify
    { values; unreached = affected; stats; retransmissions }
    { degradation with Outcome.unresponsive; affected }

let run ?tracer g info ~value =
  match run_outcome ?tracer ~reliable:false g info ~value with
  | Outcome.Complete r -> (Array.map Option.get r.values, r.stats)
  | Outcome.Degraded (_, d) -> raise (Simulator.Round_limit d.Outcome.rounds)
