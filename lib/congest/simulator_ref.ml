(* The pre-CSR simulator core, kept as the differential baseline for
   Simulator. The message plane is deliberately the historical one — a
   fresh Hashtbl of (node, port) budget keys every round, cons-cell
   inboxes reversed per node per round — because the point of this module
   is to preserve those semantics (and that allocation profile) for the
   equivalence tests and the allocation benchmarks to compare against. It
   steps the same mailbox-typed programs as Simulator: one mailbox, filled
   from a node's inbox list before its step and read back after it.

   Behavioral fixes that change observable semantics must land here and in
   simulator.ml together; the differential suite enforces the lockstep.

   Wake hints are deliberately NOT honoured here: this core steps every
   live node in every round and instead checks each hint — a node stepped
   while its hint says it is asleep, with an empty inbox, must send nothing
   and must not halt. An oracle that skipped sleeping nodes could not catch
   a dishonest hint; this one turns the differential suite into a proof
   that the production core's skipping (and fast-forwarding) is
   unobservable. *)

module Graph = Lcs_graph.Graph

type ctx = Simulator.ctx = {
  node : int;
  neighbors : int array;
  neighbor_edges : int array;
  clock : Simulator.round_cell;
}

type ('state, 'msg) program = ('state, 'msg) Simulator.program = {
  init : ctx -> 'state;
  on_round : ctx -> 'state -> 'msg Simulator.mailbox -> 'state;
  is_halted : 'state -> bool;
  wake : 'state -> int;
  msg_words : 'msg -> int;
}

type stats = Simulator.stats = {
  rounds : int;
  messages : int;
  words : int;
  max_edge_load : int;
}

type partial = Simulator.partial = {
  partial_stats : stats;
  unhalted : int list;
  crashed_nodes : int list;
}

type 'state run_result = 'state Simulator.run_result =
  | Finished of 'state array * stats
  | Out_of_rounds of 'state array * partial

let make_ctx g clock v =
  let adj = Graph.adj_list g v in
  {
    node = v;
    neighbors = Array.of_list (List.map fst adj);
    neighbor_edges = Array.of_list (List.map snd adj);
    clock;
  }

(* reverse_ports.(v).(p) is the port at neighbor [w = neighbors.(p)] that
   leads back to [v]; precomputed so delivery is O(1) per message. *)
let reverse_ports ctxs =
  let n = Array.length ctxs in
  let port_of_edge = Hashtbl.create (4 * n) in
  Array.iteri
    (fun v ctx ->
      Array.iteri (fun p e -> Hashtbl.replace port_of_edge (v, e) p) ctx.neighbor_edges)
    ctxs;
  Array.map
    (fun ctx ->
      Array.mapi
        (fun p w -> Hashtbl.find port_of_edge (w, ctx.neighbor_edges.(p)))
        ctx.neighbors)
    ctxs

let run_outcome ?(bandwidth = 1) ?(max_rounds = 100_000) ?tracer ?faults g program =
  if bandwidth < 1 then invalid_arg "Simulator.run: bandwidth";
  let n = Graph.n g in
  (* The shared round cell, kept in lockstep with the production core. *)
  let clock, set_round = Simulator.round_cell () in
  let ctxs = Array.init n (make_ctx g clock) in
  let rev = reverse_ports ctxs in
  (* The run owns the ambient Cause state: ids restart at 1 and are drawn
     in trace-event order, which both cores emit identically. *)
  Trace.Cause.start_run ~enabled:(tracer <> None);
  let states = Array.map program.init ctxs in
  let halted = Array.map program.is_halted states in
  let live = ref (Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 halted) in
  (* inboxes.(v) holds (port, causal id, msg) in reversed arrival order;
     the id is 0 when the run is untraced. *)
  let inboxes : (int * int * 'msg) list array = Array.make n [] in
  let next_inboxes : (int * int * 'msg) list array = Array.make n [] in
  (* Fault bookkeeping; untouched (and unallocated beyond the array) when
     [faults] is absent, so the fault-free path stays byte-identical. *)
  let crashed = Array.make n false in
  (* arrival round -> (dst, port, id, src, edge, words, msg) in reversed
     scheduling order; src/edge/words ride along so a crash-time purge can
     report what it discarded. *)
  let delayed : (int, (int * int * int * int * int * int * 'msg) list) Hashtbl.t =
    Hashtbl.create 16
  in
  (* A crashed node's pending delayed deliveries are discarded with it:
     each one is traced as a Drop and counted against the injector, in
     ascending arrival-round then scheduling order, so the trace never
     shows traffic consumed by a dead node. *)
  let purge_delayed_to inj v ~round =
    let pending_rounds = Hashtbl.fold (fun r _ acc -> r :: acc) delayed [] in
    List.iter
      (fun r ->
        let entries = Hashtbl.find delayed r in
        let kept, dropped =
          List.partition (fun (dst, _, _, _, _, _, _) -> dst <> v) entries
        in
        if dropped <> [] then begin
          Hashtbl.replace delayed r kept;
          List.iter
            (fun (_, _, _, src, edge, words, _) ->
              Fault.note_to_crashed inj;
              match tracer with
              | None -> ()
              | Some t -> t (Trace.Drop { round; src; dst = v; edge; words }))
            (List.rev dropped)
        end)
      (List.sort compare pending_rounds)
  in
  let rounds = ref 0 in
  let messages = ref 0 in
  let words = ref 0 in
  let max_edge_load = ref 0 in
  (* Tracing bookkeeping lives behind the option so the untraced hot path
     pays one branch per message and nothing else. *)
  let round_max = ref 0 in
  let out_of_rounds = ref false in
  let mb = Simulator.mailbox () in
  (* Every live node steps every round, whatever its wake hint says; a
     step the hint declared asleep is checked instead (see the header). *)
  while !live > 0 && not !out_of_rounds do
    if !rounds >= max_rounds then out_of_rounds := true
    else begin
      incr rounds;
      set_round !rounds;
      (match tracer with
      | None -> ()
      | Some t ->
          round_max := 0;
          t (Trace.Round_start { round = !rounds; live = !live }));
      (match faults with
      | None -> ()
      | Some inj ->
          (* Crashes fire at the start of the round: the node neither steps
             nor receives from now on. *)
          List.iter
            (fun v ->
              if v >= 0 && v < n && not crashed.(v) then begin
                crashed.(v) <- true;
                if not halted.(v) then decr live;
                inboxes.(v) <- [];
                (match tracer with
                | None -> ()
                | Some t -> t (Trace.Crash { round = !rounds; node = v }));
                purge_delayed_to inj v ~round:!rounds
              end)
            (Fault.crashes_at inj ~round:!rounds);
          (* Deliveries whose extra latency expires this round join the
             inboxes after the synchronous ones. *)
          match Hashtbl.find_opt delayed !rounds with
          | None -> ()
          | Some arrivals ->
              Hashtbl.remove delayed !rounds;
              List.iter
                (fun (dst, port, id, _src, _edge, _words, msg) ->
                  if not (halted.(dst) || crashed.(dst)) then
                    inboxes.(dst) <- (port, id, msg) :: inboxes.(dst))
                (List.rev arrivals));
      (* Per-round, per-(node, port) word budget. *)
      let budget = Hashtbl.create 64 in
      for v = 0 to n - 1 do
        if not (halted.(v) || crashed.(v)) then begin
          let inbox_r = inboxes.(v) in
          inboxes.(v) <- [];
          let asleep = inbox_r = [] && program.wake states.(v) > !rounds in
          Simulator.clear mb;
          List.iter (fun (p, _, m) -> Simulator.deliver mb p m) (List.rev inbox_r);
          (match tracer with
          | None -> ()
          | Some _ ->
              (* [inbox_r] is newest-first; fill the ids array back-to-front
                 so it parallels the mailbox's arrival order. *)
              let k = List.length inbox_r in
              let ids = Array.make k 0 in
              let i = ref (k - 1) in
              List.iter
                (fun (_, id, _) ->
                  ids.(!i) <- id;
                  decr i)
                inbox_r;
              Trace.Cause.activate ids);
          let state = program.on_round ctxs.(v) states.(v) mb in
          let sends = Simulator.sent mb in
          if asleep && (sends > 0 || program.is_halted state) then
            invalid_arg
              (Printf.sprintf
                 "Simulator_ref: dishonest wake hint: node %d %s in round %d while asleep"
                 v
                 (if sends > 0 then "sent" else "halted")
                 !rounds);
          states.(v) <- state;
          for i = 0 to sends - 1 do
            let port = Simulator.sent_port mb i and msg = Simulator.sent_payload mb i in
            begin
              let ctx = ctxs.(v) in
              if port < 0 || port >= Array.length ctx.neighbors then
                invalid_arg "Simulator: bad port";
              let size = program.msg_words msg in
              if size < 1 then invalid_arg "Simulator: msg_words must be >= 1";
              let key = (v, port) in
              let used = match Hashtbl.find_opt budget key with Some u -> u | None -> 0 in
              let used = used + size in
              if used > bandwidth then
                raise
                  (Simulator.Bandwidth_exceeded
                     { node = v; port; round = !rounds; words = used; limit = bandwidth });
              Hashtbl.replace budget key used;
              if used > !max_edge_load then max_edge_load := used;
              let w = ctx.neighbors.(port) in
              let back = rev.(v).(port) in
              let edge = ctx.neighbor_edges.(port) in
              (* The causal declaration is consumed once per outgoing
                 message, in send order, even when the network then drops
                 it — otherwise the per-port FIFO would drift at
                 bandwidth > 1. *)
              let cparents, cpart, cphase =
                match tracer with
                | None -> ([], -1, "")
                | Some _ -> Trace.Cause.take ~port
              in
              match faults with
              | None ->
                  incr messages;
                  words := !words + size;
                  let id =
                    match tracer with
                    | None -> 0
                    | Some t ->
                        if used > !round_max then round_max := used;
                        let id = Trace.Cause.fresh_id () in
                        t
                          (Trace.Send
                             {
                               round = !rounds;
                               src = v;
                               dst = w;
                               edge;
                               words = size;
                               id;
                               parents = cparents;
                               part = cpart;
                               phase = cphase;
                             });
                        id
                  in
                  next_inboxes.(w) <- (back, id, msg) :: next_inboxes.(w)
              | Some inj ->
                  (* The transmission consumed its slot on the wire either
                     way (the budget above); what the network then does to
                     it is the injector's verdict. *)
                  if crashed.(w) then begin
                    Fault.note_to_crashed inj;
                    match tracer with
                    | None -> ()
                    | Some t ->
                        if used > !round_max then round_max := used;
                        t (Trace.Drop { round = !rounds; src = v; dst = w; edge; words = size })
                  end
                  else begin
                    match Fault.transmission inj ~round:!rounds ~edge with
                    | Fault.Lose Fault.Random_loss -> (
                        match tracer with
                        | None -> ()
                        | Some t ->
                            if used > !round_max then round_max := used;
                            t
                              (Trace.Drop
                                 { round = !rounds; src = v; dst = w; edge; words = size }))
                    | Fault.Lose Fault.Link_is_down -> (
                        match tracer with
                        | None -> ()
                        | Some t ->
                            if used > !round_max then round_max := used;
                            t (Trace.Link_down { round = !rounds; edge }))
                    | Fault.Deliver delays ->
                        List.iteri
                          (fun i delay ->
                            incr messages;
                            words := !words + size;
                            let id =
                              match tracer with
                              | None -> 0
                              | Some t ->
                                  if used > !round_max then round_max := used;
                                  let id = Trace.Cause.fresh_id () in
                                  if i = 0 then
                                    t
                                      (Trace.Send
                                         {
                                           round = !rounds;
                                           src = v;
                                           dst = w;
                                           edge;
                                           words = size;
                                           id;
                                           parents = cparents;
                                           part = cpart;
                                           phase = cphase;
                                         })
                                  else
                                    t
                                      (Trace.Duplicate
                                         {
                                           round = !rounds;
                                           src = v;
                                           dst = w;
                                           edge;
                                           words = size;
                                           id;
                                           parents = cparents;
                                           part = cpart;
                                           phase = cphase;
                                         });
                                  if delay > 0 then
                                    t
                                      (Trace.Delayed
                                         { round = !rounds; src = v; dst = w; edge; delay });
                                  id
                            in
                            if delay = 0 then
                              next_inboxes.(w) <- (back, id, msg) :: next_inboxes.(w)
                            else begin
                              let at = !rounds + 1 + delay in
                              let pending =
                                match Hashtbl.find_opt delayed at with
                                | Some l -> l
                                | None -> []
                              in
                              Hashtbl.replace delayed at
                                ((w, back, id, v, edge, size, msg) :: pending)
                            end)
                          delays
                  end
            end
          done;
          (match tracer with
          | None -> ()
          | Some _ -> Trace.Cause.deactivate ());
          if program.is_halted state then begin
            halted.(v) <- true;
            decr live;
            match tracer with
            | None -> ()
            | Some t -> t (Trace.Halt { round = !rounds; node = v })
          end
        end
        else inboxes.(v) <- []
      done;
      for v = 0 to n - 1 do
        inboxes.(v) <- next_inboxes.(v);
        next_inboxes.(v) <- []
      done;
      match tracer with
      | None -> ()
      | Some t -> t (Trace.Round_end { round = !rounds; max_edge_load = !round_max })
    end
  done;
  let stats =
    { rounds = !rounds; messages = !messages; words = !words; max_edge_load = !max_edge_load }
  in
  if !out_of_rounds then begin
    let unhalted = ref [] in
    for v = n - 1 downto 0 do
      if not (halted.(v) || crashed.(v)) then unhalted := v :: !unhalted
    done;
    let crashed_nodes =
      match faults with None -> [] | Some inj -> Fault.crashed_nodes inj
    in
    Out_of_rounds (states, { partial_stats = stats; unhalted = !unhalted; crashed_nodes })
  end
  else Finished (states, stats)

let run ?bandwidth ?max_rounds ?tracer ?faults g program =
  match run_outcome ?bandwidth ?max_rounds ?tracer ?faults g program with
  | Finished (states, stats) -> (states, stats)
  | Out_of_rounds (_, partial) -> raise (Simulator.Round_limit partial.partial_stats.rounds)
