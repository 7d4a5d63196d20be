type config = {
  rto : int;
  rto_max : int;
  max_retries : int;
  linger : int;
}

(* linger > rto_max: a neighbor's retransmissions are at most rto_max
   rounds apart, so a node that stays [linger] quiet rounds past drained
   cannot halt inside a gap and orphan a retransmission it should re-ack. *)
let default_config = { rto = 4; rto_max = 32; max_retries = 8; linger = 40 }

(* Stop-and-wait ARQ with an alternating bit per (node, port) direction.
   One word of bandwidth suffices for the control plane: acks piggyback on
   data frames when there is a payload to carry and travel alone (one
   word) otherwise, so a wrapped bandwidth-1 protocol still fits in
   bandwidth max(1, inner words). *)
type 'msg frame = {
  ack : bool option;  (* ack for the neighbor's data bit *)
  data : (bool * 'msg) option;  (* (sequence bit, payload) *)
}

(* An inner send's causal declaration, resolved when the inner step
   returns. The frame that carries the message carries it, on every
   transmission. *)
type decl = { parents : int list; part : int; phase : string }

let untagged = { parents = []; part = -1; phase = "" }

type 'msg port_state = {
  outq : 'msg Queue.t;
  decls : decl Queue.t;  (* parallel to [outq] in traced runs, else empty *)
  mutable send_bit : bool;
  mutable inflight : 'msg option;
  mutable inflight_decl : decl;
  mutable sent_at : int;
  mutable rto : int;
  mutable tries : int;
  mutable recv_bit : bool;  (* bit expected next from the neighbor *)
  mutable ack_due : bool option;
  mutable dead : bool;
}

type ('state, 'msg) state = {
  mutable inner : 'state;
  mutable inner_halted : bool;
  box : 'msg Simulator.mailbox;  (* the inner program's *)
  ports : 'msg port_state array;
  neighbors : int array;  (* ctx copy, for post-run reporting *)
  node : int;
  mutable clock : int;
  mutable quiet : int;
  mutable retrans : int;
  mutable done_ : bool;
}

let new_port () =
  {
    outq = Queue.create ();
    decls = Queue.create ();
    send_bit = false;
    inflight = None;
    inflight_decl = untagged;
    sent_at = 0;
    rto = 0;
    tries = 0;
    recv_bit = false;
    ack_due = None;
    dead = false;
  }

let wrap ?(config = default_config) ?on_dead (inner : ('s, 'm) Simulator.program) :
    (('s, 'm) state, 'm frame) Simulator.program =
  if config.rto < 1 || config.rto_max < config.rto || config.max_retries < 1
     || config.linger < 1
  then invalid_arg "Reliable.wrap: config";
  let init ctx =
    let st = inner.init ctx in
    {
      inner = st;
      inner_halted = inner.is_halted st;
      box = Simulator.mailbox ();
      ports = Array.init (Array.length ctx.Simulator.neighbors) (fun _ -> new_port ());
      neighbors = Array.copy ctx.Simulator.neighbors;
      node = ctx.Simulator.node;
      clock = 0;
      quiet = 0;
      retrans = 0;
      done_ = false;
    }
  in
  let on_round ctx s mb =
    s.clock <- s.clock + 1;
    (* 1. Absorb incoming frames: match acks against our in-flight bit,
       deliver fresh data to the inner program's mailbox with the id of
       the frame that carried it, re-ack stale duplicates. *)
    let box = s.box in
    let traced = Simulator.traced mb in
    Simulator.clear box ~traced;
    for i = 0 to Simulator.deliveries mb - 1 do
      let port = Simulator.port mb i and frame = Simulator.payload mb i in
      let ps = s.ports.(port) in
      if not ps.dead then begin
        (match frame.ack with
        | Some b when Option.is_some ps.inflight && b = ps.send_bit ->
            ps.inflight <- None;
            ps.send_bit <- not ps.send_bit;
            ps.tries <- 0
        | _ -> ());
        match frame.data with
        | Some (b, m) when b = ps.recv_bit ->
            Simulator.deliver box ~cause:(Simulator.cause mb i) port m;
            ps.recv_bit <- not ps.recv_bit;
            ps.ack_due <- Some b
        | Some (b, _) ->
            (* duplicate of an already-delivered message: its ack was
               lost, so re-ack without re-delivering *)
            ps.ack_due <- Some b
        | None -> ()
      end
    done;
    (* 2. Give up on neighbors that never acked max_retries attempts. *)
    let newly_dead = ref [] in
    Array.iteri
      (fun port ps ->
        if
          (not ps.dead)
          && Option.is_some ps.inflight
          && s.clock - ps.sent_at >= ps.rto
          && ps.tries >= config.max_retries
        then begin
          ps.dead <- true;
          ps.inflight <- None;
          Queue.clear ps.outq;
          Queue.clear ps.decls;
          newly_dead := port :: !newly_dead
        end)
      s.ports;
    List.iter
      (fun port ->
        match on_dead with
        | None -> ()
        | Some f -> s.inner <- f ctx s.inner ~port)
      (List.rev !newly_dead);
    (* 3. Step the wrapped protocol (it sees a slowed-down clock but the
       same happens-before order); its sends queue behind the ARQ. *)
    if not s.inner_halted then begin
      let st = inner.on_round ctx s.inner box in
      s.inner <- st;
      s.inner_halted <- inner.is_halted st;
      for i = 0 to Simulator.sent box - 1 do
        let ps = s.ports.(Simulator.sent_port box i) in
        if not ps.dead then begin
          Queue.push (Simulator.sent_payload box i) ps.outq;
          if traced then
            Queue.push
              {
                parents = Simulator.sent_parents box i;
                part = Simulator.sent_part box i;
                phase = Simulator.sent_phase box i;
              }
              ps.decls
        end
      done
    end;
    (* 4. Compose outgoing frames: at most one per port per round, in
       port order. A data frame carries its message's declaration; an
       ack-only frame is the step's own, untagged, caused by every frame
       it received. *)
    Array.iteri
      (fun port ps ->
        if not ps.dead then begin
          let data =
            match ps.inflight with
            | None ->
                if Queue.is_empty ps.outq then None
                else begin
                  let m = Queue.pop ps.outq in
                  if Simulator.traced mb then ps.inflight_decl <- Queue.pop ps.decls;
                  ps.inflight <- Some m;
                  ps.sent_at <- s.clock;
                  ps.tries <- 1;
                  ps.rto <- config.rto;
                  Some (ps.send_bit, m)
                end
            | Some m ->
                if s.clock - ps.sent_at >= ps.rto then begin
                  ps.sent_at <- s.clock;
                  ps.tries <- ps.tries + 1;
                  ps.rto <- min (2 * ps.rto) config.rto_max;
                  s.retrans <- s.retrans + 1;
                  Some (ps.send_bit, m)
                end
                else None
          in
          let ack = ps.ack_due in
          ps.ack_due <- None;
          match (data, ack) with
          | None, None -> ()
          | Some _, _ when Simulator.traced mb ->
              let d = ps.inflight_decl in
              Simulator.emit mb port ~parents:d.parents ~part:d.part ~phase:d.phase { ack; data }
          | _ -> Simulator.send mb port { ack; data }
        end)
      s.ports;
    (* 5. Quiescence: the inner protocol halted and every channel is dead
       or drained. Linger before halting so a neighbor whose ack we lost
       can still get its retransmission re-acked — halting immediately
       would turn every lost ack into a spurious dead link. *)
    let drained =
      s.inner_halted
      && Simulator.deliveries mb = 0
      && Array.for_all
           (fun ps -> ps.dead || (Option.is_none ps.inflight && Queue.is_empty ps.outq))
           s.ports
    in
    if drained then s.quiet <- s.quiet + 1 else s.quiet <- 0;
    if drained && s.quiet >= config.linger then s.done_ <- true;
    s
  in
  {
    Simulator.init;
    on_round;
    is_halted = (fun s -> s.done_);
    (* Retransmission timers and the linger count run on every round. *)
    wake = Simulator.always;
    msg_words =
      (fun f -> match f.data with Some (_, m) -> inner.msg_words m | None -> 1);
  }

let inner_states states = Array.map (fun s -> s.inner) states

let dead_links states =
  Array.fold_left
    (fun acc s ->
      let here = ref [] in
      Array.iteri
        (fun port ps -> if ps.dead then here := (s.node, s.neighbors.(port)) :: !here)
        s.ports;
      List.rev_append !here acc)
    [] states
  |> List.sort compare

let retransmissions states = Array.fold_left (fun acc s -> acc + s.retrans) 0 states

let quiesced states =
  Array.for_all
    (fun s ->
      Array.for_all
        (fun ps ->
          ps.dead || (Option.is_none ps.inflight && Queue.is_empty ps.outq && Option.is_none ps.ack_due))
        s.ports)
    states
