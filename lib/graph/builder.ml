(* Endpoints accumulate in two flat Bigarray-backed vectors, so building a
   100M-edge graph never materializes a boxed edge list. Deduplication is
   a hash set keyed by the packed pair [u * n + v] (u < v); generators
   that guarantee distinct edges use [create_streaming] and skip the
   table — the path used at 10^7-node scale, where the table would be the
   only heap-resident O(m) structure left. *)

module Intvec = Lcs_util.Intvec

type t = {
  n : int;
  seen : (int, unit) Hashtbl.t option;  (* None: caller guarantees uniqueness *)
  ends_u : Intvec.t;
  ends_v : Intvec.t;
}

let make ~dedup ~n =
  if n < 0 then invalid_arg "Builder.create";
  {
    n;
    seen = (if dedup then Some (Hashtbl.create 64) else None);
    ends_u = Intvec.create ();
    ends_v = Intvec.create ();
  }

let create ~n = make ~dedup:true ~n
let create_streaming ~n = make ~dedup:false ~n

let key t u v = (u * t.n) + v

let add_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Builder.add_edge: endpoint out of range";
  if u = v then invalid_arg "Builder.add_edge: self-loop";
  let u, v = if u < v then (u, v) else (v, u) in
  match t.seen with
  | Some seen ->
      let k = key t u v in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        Intvec.push t.ends_u u;
        Intvec.push t.ends_v v
      end
  | None ->
      Intvec.push t.ends_u u;
      Intvec.push t.ends_v v

let mem_edge t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n || u = v then false
  else
    let u, v = if u < v then (u, v) else (v, u) in
    match t.seen with
    | Some seen -> Hashtbl.mem seen (key t u v)
    | None ->
        (* No table to ask in streaming mode; scan. *)
        let m = Intvec.length t.ends_u in
        let rec go e =
          e < m
          && ((Intvec.unsafe_get t.ends_u e = u && Intvec.unsafe_get t.ends_v e = v)
             || go (e + 1))
        in
        go 0

let edge_count t = Intvec.length t.ends_u

let graph t =
  Graph.of_endpoints ~what:"Builder.graph" ~n:t.n (Intvec.freeze t.ends_u)
    (Intvec.freeze t.ends_v)
