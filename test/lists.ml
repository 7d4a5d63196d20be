(* Test programs written against (port, payload) lists. [step f] is the
   mailbox step that hands [f] this step's deliveries as a list, in
   arrival order, and queues the list [f] returns, in its order. *)

module Simulator = Lcs_congest.Simulator

let step f ctx st mb =
  let inbox =
    List.init (Simulator.deliveries mb) (fun i -> (Simulator.port mb i, Simulator.payload mb i))
  in
  let st, out = f ctx st ~inbox in
  List.iter (fun (p, m) -> Simulator.send mb p m) out;
  st
