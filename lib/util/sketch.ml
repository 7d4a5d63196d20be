(* Bounded-memory streaming summaries. See sketch.mli for the guarantees;
   implementation notes inline. *)

(* Position of the most significant set bit of [v > 0]. *)
let msb v =
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

module Space_saving = struct
  (* Entry records are reused across evictions (the classic stream-summary
     trick): displacing the minimum rewrites its [key]/[count]/[err] in
     place, so the table never allocates past [capacity] entries. *)
  type entry = { mutable key : int; mutable count : int; mutable err : int }

  (* The minimum is found through a lazy-deletion binary min-heap of
     [(count snapshot, entry)] pairs: every count change pushes a fresh
     pair and leaves the stale ones in place. A pair is valid iff its
     snapshot still equals the entry's count — counts only ever grow (an
     eviction rewrites the entry to [min + w > min]), so equality
     identifies the latest push. The heap is compacted back to one pair
     per entry whenever it outgrows 4x capacity, keeping memory O(c). *)
  type t = {
    cap : int;
    tbl : (int, entry) Hashtbl.t;
    mutable total : int;
    mutable evictions : int;
    mutable hcnt : int array;
    mutable hent : entry array;
    mutable hlen : int;
    on_evict : (int -> int -> unit) option;
  }

  let dummy_entry = { key = -1; count = -1; err = 0 }

  let create ?on_evict cap =
    if cap < 1 then invalid_arg "Sketch.Space_saving.create: capacity";
    {
      cap;
      tbl = Hashtbl.create (2 * cap);
      total = 0;
      evictions = 0;
      hcnt = Array.make 16 0;
      hent = Array.make 16 dummy_entry;
      hlen = 0;
      on_evict;
    }

  let capacity t = t.cap
  let size t = Hashtbl.length t.tbl
  let total t = t.total
  let evictions t = t.evictions

  let heap_swap t i j =
    let c = t.hcnt.(i) and e = t.hent.(i) in
    t.hcnt.(i) <- t.hcnt.(j);
    t.hent.(i) <- t.hent.(j);
    t.hcnt.(j) <- c;
    t.hent.(j) <- e

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.hcnt.(i) < t.hcnt.(parent) then begin
        heap_swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < t.hlen && t.hcnt.(l) < t.hcnt.(i) then l else i in
    let m = if r < t.hlen && t.hcnt.(r) < t.hcnt.(m) then r else m in
    if m <> i then begin
      heap_swap t i m;
      sift_down t m
    end

  let rec heap_push t c e =
    if t.hlen = Array.length t.hcnt then begin
      if t.hlen > 4 * t.cap then compact t
      else begin
        let n = 2 * t.hlen in
        let hcnt = Array.make n 0 and hent = Array.make n dummy_entry in
        Array.blit t.hcnt 0 hcnt 0 t.hlen;
        Array.blit t.hent 0 hent 0 t.hlen;
        t.hcnt <- hcnt;
        t.hent <- hent
      end;
      heap_push t c e
    end
    else begin
      t.hcnt.(t.hlen) <- c;
      t.hent.(t.hlen) <- e;
      t.hlen <- t.hlen + 1;
      sift_up t (t.hlen - 1)
    end

  and compact t =
    t.hlen <- 0;
    Hashtbl.iter (fun _ e -> heap_push t e.count e) t.tbl

  let heap_pop t =
    let c = t.hcnt.(0) and e = t.hent.(0) in
    t.hlen <- t.hlen - 1;
    if t.hlen > 0 then begin
      t.hcnt.(0) <- t.hcnt.(t.hlen);
      t.hent.(0) <- t.hent.(t.hlen);
      sift_down t 0
    end;
    (c, e)

  (* Pop (and return) the entry with the smallest current count, skipping
     stale snapshots. Only called when the table is non-empty, so a valid
     pair always exists. *)
  let rec pop_min t =
    let c, e = heap_pop t in
    if c = e.count then e else pop_min t

  (* Same, without removing the valid minimum. *)
  let rec peek_min t =
    let c = t.hcnt.(0) and e = t.hent.(0) in
    if c = e.count then e
    else begin
      ignore (heap_pop t);
      peek_min t
    end

  let add t key w =
    if w < 0 then invalid_arg "Sketch.Space_saving.add: negative weight";
    if w > 0 then begin
      t.total <- t.total + w;
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          e.count <- e.count + w;
          heap_push t e.count e
      | None ->
          if Hashtbl.length t.tbl < t.cap then begin
            let e = { key; count = w; err = 0 } in
            Hashtbl.add t.tbl key e;
            heap_push t w e
          end
          else begin
            let e = pop_min t in
            (match t.on_evict with Some f -> f e.key e.count | None -> ());
            t.evictions <- t.evictions + 1;
            Hashtbl.remove t.tbl e.key;
            let floor = e.count in
            e.key <- key;
            e.err <- floor;
            e.count <- floor + w;
            Hashtbl.add t.tbl key e;
            heap_push t e.count e
          end
    end

  let estimate t key =
    match Hashtbl.find_opt t.tbl key with
    | Some e -> Some (e.count, e.err)
    | None -> None

  let entries t =
    let acc = Hashtbl.fold (fun _ e acc -> (e.key, e.count, e.err) :: acc) t.tbl [] in
    List.sort
      (fun (k1, c1, _) (k2, c2, _) ->
        if c1 <> c2 then compare c2 c1 else compare k1 k2)
      acc

  let top ?(k = 10) t =
    List.filteri (fun i _ -> i < k) (List.map (fun (key, c, _) -> (key, c)) (entries t))

  let threshold t =
    if Hashtbl.length t.tbl < t.cap || t.hlen = 0 then 0 else (peek_min t).count

  let max_overcount t = Hashtbl.fold (fun _ e m -> max m e.err) t.tbl 0
end

module Quantile = struct
  type t = {
    s : int;  (* sub-buckets per octave = 2^s *)
    mutable counts : int array;  (* bucket index -> occurrences *)
    mutable used : int;  (* highest touched index + 1 *)
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
  }

  let create ?(accuracy = 0.01) () =
    let accuracy = Float.max 1e-4 (Float.min 0.5 accuracy) in
    let s = ref 1 in
    while 1.0 /. float_of_int (1 lsl !s) > accuracy do
      incr s
    done;
    {
      s = !s;
      counts = Array.make 64 0;
      used = 0;
      count = 0;
      sum = 0;
      min_v = max_int;
      max_v = 0;
    }

  let accuracy t = 1.0 /. float_of_int (1 lsl t.s)

  (* Values below [2 * 2^s] get width-1 buckets (exact); from there each
     power-of-two octave [2^p, 2^(p+1)) splits into [2^s] equal
     sub-buckets, so bucket width relative to its values never exceeds
     [2^-s]. Pure integer math: bit-stable across platforms, unlike
     [log]-based bucketing. *)
  let index t v =
    let two_s = 2 lsl t.s in
    if v < two_s then v
    else begin
      let p = msb v in
      let shift = p - t.s in
      let offset = (v - (1 lsl p)) lsr shift in
      two_s + (((p - t.s - 1) lsl t.s) + offset)
    end

  let bounds t i =
    let two_s = 2 lsl t.s in
    if i < two_s then (i, i)
    else begin
      let j = i - two_s in
      let block = j lsr t.s and offset = j land ((1 lsl t.s) - 1) in
      let shift = block + 1 in
      let lo = (1 lsl (block + t.s + 1)) + (offset lsl shift) in
      (lo, lo + (1 lsl shift) - 1)
    end

  let add t v =
    if v < 0 then invalid_arg "Sketch.Quantile.add: negative value";
    let i = index t v in
    if i >= Array.length t.counts then begin
      let cap = ref (Array.length t.counts) in
      while i >= !cap do
        cap := 2 * !cap
      done;
      let counts = Array.make !cap 0 in
      Array.blit t.counts 0 counts 0 t.used;
      t.counts <- counts
    end;
    t.counts.(i) <- t.counts.(i) + 1;
    if i >= t.used then t.used <- i + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  let count t = t.count
  let sum t = t.sum
  let min_value t = if t.count = 0 then 0 else t.min_v
  let max_value t = t.max_v

  let quantile t q =
    if t.count = 0 then 0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let needed = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
      let cum = ref 0 and i = ref 0 and res = ref t.max_v in
      (try
         while !i < t.used do
           if t.counts.(!i) > 0 then begin
             cum := !cum + t.counts.(!i);
             if !cum >= needed then begin
               let lo, hi = bounds t !i in
               res := (lo + hi) / 2;
               raise Exit
             end
           end;
           incr i
         done
       with Exit -> ());
      !res
    end

  let buckets t =
    let acc = ref [] in
    for i = t.used - 1 downto 0 do
      if t.counts.(i) > 0 then begin
        let lo, hi = bounds t i in
        acc := (lo, hi, t.counts.(i)) :: !acc
      end
    done;
    !acc

  let merge_into ~into src =
    if into.s <> src.s then
      invalid_arg "Sketch.Quantile.merge_into: accuracy mismatch";
    if src.used > Array.length into.counts then begin
      let cap = ref (max 1 (Array.length into.counts)) in
      while src.used > !cap do
        cap := 2 * !cap
      done;
      let counts = Array.make !cap 0 in
      Array.blit into.counts 0 counts 0 into.used;
      into.counts <- counts
    end;
    (* Identical bucketing (same [s]), so merging is an exact bucket-wise
       sum: the result is indistinguishable from one sketch fed the
       concatenated streams. The exact extrema and sum merge exactly too. *)
    for i = 0 to src.used - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
    if src.used > into.used then into.used <- src.used;
    into.count <- into.count + src.count;
    into.sum <- into.sum + src.sum;
    if src.count > 0 then begin
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v
    end
end
