(* Wall-clock profiler for the sharded simulator. Recording is strictly
   single-writer: during a phase each domain touches only index [shard]
   of the scratch arrays (and row [shard] of the traffic matrices); the
   main domain derives barrier waits and commits the round's row at the
   barrier, where the crew mutex already orders memory. No simulator
   decision reads a recorded time, so the collector cannot perturb the
   determinism contract. *)

module Json = Lcs_util.Json

let schema = "lcs-par-profile/1"

let now () = Unix.gettimeofday ()

type totals = {
  step_s : float;
  deliver_s : float;
  barrier_s : float;
  messages : int;
  words : int;
  activations : int;
}

type decomposition = {
  d_wall_s : float;
  d_parallel_s : float;
  d_imbalance_s : float;
  d_barrier_s : float;
  d_serial_s : float;
  d_other_s : float;
}

type row = {
  r_round : int;
  r_start : float;  (* seconds since [epoch] *)
  r_step_wall : float;
  r_deliver_wall : float;
  r_serial : float;
  r_step : float array;  (* per shard; length = active shard count *)
  r_deliver : float array;
  r_msgs : int array;
  r_words : int array;
  r_acts : int array;
}

type t = {
  epoch : float;
  mutable cap : int;  (* allocated width; grows at [begin_run] *)
  mutable active : int;  (* max shard count across observed runs *)
  mutable shards : int;  (* the current run's shard count *)
  mutable nruns : int;
  mutable nrounds : int;
  mutable wall : float;
  mutable run_t0 : float;
  (* per-round scratch *)
  mutable round_t0 : float;
  mutable phase_t0 : float;
  mutable step_wall : float;
  mutable deliver_wall : float;
  mutable serial_cur : float;
  mutable cur_step : float array;
  mutable cur_deliver : float array;
  mutable rnd_msgs : int array;
  mutable rnd_words : int array;
  mutable rnd_acts : int array;
  (* accumulators *)
  mutable tot_step : float array;
  mutable tot_deliver : float array;
  mutable tot_barrier : float array;
  mutable tot_msgs : int array;
  mutable tot_words : int array;
  mutable tot_acts : int array;
  mutable serial_total : float;
  mutable tm : int array array;  (* traffic: messages, [src].(dst) *)
  mutable tw : int array array;  (* traffic: words *)
  mutable rows_rev : row list;
}

let create () =
  {
    epoch = now ();
    cap = 0;
    active = 0;
    shards = 0;
    nruns = 0;
    nrounds = 0;
    wall = 0.0;
    run_t0 = 0.0;
    round_t0 = 0.0;
    phase_t0 = 0.0;
    step_wall = 0.0;
    deliver_wall = 0.0;
    serial_cur = 0.0;
    cur_step = [||];
    cur_deliver = [||];
    rnd_msgs = [||];
    rnd_words = [||];
    rnd_acts = [||];
    tot_step = [||];
    tot_deliver = [||];
    tot_barrier = [||];
    tot_msgs = [||];
    tot_words = [||];
    tot_acts = [||];
    serial_total = 0.0;
    tm = [||];
    tw = [||];
    rows_rev = [];
  }

let grow t d =
  if d > t.cap then begin
    let gf a =
      let b = Array.make d 0.0 in
      Array.blit a 0 b 0 t.cap;
      b
    in
    let gi a =
      let b = Array.make d 0 in
      Array.blit a 0 b 0 t.cap;
      b
    in
    let gm m =
      Array.init d (fun i ->
          let r = Array.make d 0 in
          if i < t.cap then Array.blit m.(i) 0 r 0 t.cap;
          r)
    in
    t.cur_step <- gf t.cur_step;
    t.cur_deliver <- gf t.cur_deliver;
    t.tot_step <- gf t.tot_step;
    t.tot_deliver <- gf t.tot_deliver;
    t.tot_barrier <- gf t.tot_barrier;
    t.rnd_msgs <- gi t.rnd_msgs;
    t.rnd_words <- gi t.rnd_words;
    t.rnd_acts <- gi t.rnd_acts;
    t.tot_msgs <- gi t.tot_msgs;
    t.tot_words <- gi t.tot_words;
    t.tot_acts <- gi t.tot_acts;
    t.tm <- gm t.tm;
    t.tw <- gm t.tw;
    t.cap <- d
  end

let begin_run t ~domains =
  if domains < 1 then invalid_arg "Par_profile.begin_run: domains";
  grow t domains;
  if domains > t.active then t.active <- domains;
  t.shards <- domains;
  t.nruns <- t.nruns + 1;
  t.run_t0 <- now ()

let end_run t = t.wall <- t.wall +. (now () -. t.run_t0)

let round_start t =
  t.round_t0 <- now ();
  t.phase_t0 <- t.round_t0;
  t.step_wall <- 0.0;
  t.deliver_wall <- 0.0;
  t.serial_cur <- 0.0;
  for s = 0 to t.shards - 1 do
    t.cur_step.(s) <- 0.0;
    t.cur_deliver.(s) <- 0.0;
    t.rnd_acts.(s) <- 0
  done

let set_step t ~shard v = t.cur_step.(shard) <- v
let set_deliver t ~shard v = t.cur_deliver.(shard) <- v
let set_activations t ~shard k = t.rnd_acts.(shard) <- k

let end_step t =
  let n = now () in
  t.step_wall <- n -. t.round_t0;
  t.phase_t0 <- n

let end_deliver t = t.deliver_wall <- now () -. t.phase_t0
let add_serial t v = t.serial_cur <- t.serial_cur +. v

let record_send t ~src ~dst ~words =
  t.tm.(src).(dst) <- t.tm.(src).(dst) + 1;
  t.tw.(src).(dst) <- t.tw.(src).(dst) + words;
  t.rnd_msgs.(src) <- t.rnd_msgs.(src) + 1;
  t.rnd_words.(src) <- t.rnd_words.(src) + words

(* A row spans the shards of the run that made it, so a shard that sat
   out a narrower run neither waits at its barriers nor thins its
   imbalance. *)
let commit_round t ~round =
  let a = t.shards in
  let step = Array.sub t.cur_step 0 a in
  let deliver = Array.sub t.cur_deliver 0 a in
  let msgs = Array.sub t.rnd_msgs 0 a in
  let words = Array.sub t.rnd_words 0 a in
  let acts = Array.sub t.rnd_acts 0 a in
  for s = 0 to a - 1 do
    t.tot_step.(s) <- t.tot_step.(s) +. step.(s);
    t.tot_deliver.(s) <- t.tot_deliver.(s) +. deliver.(s);
    t.tot_barrier.(s) <-
      t.tot_barrier.(s)
      +. Float.max 0.0 (t.step_wall -. step.(s))
      +. Float.max 0.0 (t.deliver_wall -. deliver.(s));
    t.tot_msgs.(s) <- t.tot_msgs.(s) + msgs.(s);
    t.tot_words.(s) <- t.tot_words.(s) + words.(s);
    t.tot_acts.(s) <- t.tot_acts.(s) + acts.(s);
    t.rnd_msgs.(s) <- 0;
    t.rnd_words.(s) <- 0
  done;
  t.serial_total <- t.serial_total +. t.serial_cur;
  t.rows_rev <-
    {
      r_round = round;
      r_start = t.round_t0 -. t.epoch;
      r_step_wall = t.step_wall;
      r_deliver_wall = t.deliver_wall;
      r_serial = t.serial_cur;
      r_step = step;
      r_deliver = deliver;
      r_msgs = msgs;
      r_words = words;
      r_acts = acts;
    }
    :: t.rows_rev;
  t.nrounds <- t.nrounds + 1

(* --- reading -------------------------------------------------------------- *)

let domains t = t.active
let rounds t = t.nrounds
let wall_s t = t.wall

let totals t =
  Array.init t.active (fun s ->
      {
        step_s = t.tot_step.(s);
        deliver_s = t.tot_deliver.(s);
        barrier_s = t.tot_barrier.(s);
        messages = t.tot_msgs.(s);
        words = t.tot_words.(s);
        activations = t.tot_acts.(s);
      })

let copy_matrix t m = Array.init t.active (fun i -> Array.sub m.(i) 0 t.active)
let traffic_messages t = copy_matrix t t.tm
let traffic_words t = copy_matrix t t.tw

let rows t = List.rev t.rows_rev

(* Busy time = step + deliver; a row's mean/max are over the shards it
   actually ran on. *)
let row_busy r s = r.r_step.(s) +. r.r_deliver.(s)

let row_mean_max r =
  let a = Array.length r.r_step in
  if a = 0 then (0.0, 0.0)
  else begin
    let sum = ref 0.0 and mx = ref 0.0 in
    for s = 0 to a - 1 do
      let b = row_busy r s in
      sum := !sum +. b;
      if b > !mx then mx := b
    done;
    (!sum /. float_of_int a, !mx)
  end

let decomposition t =
  let parallel = ref 0.0 and imbal = ref 0.0 and barrier = ref 0.0 in
  List.iter
    (fun r ->
      let mean, mx = row_mean_max r in
      parallel := !parallel +. mean;
      imbal := !imbal +. (mx -. mean);
      barrier := !barrier +. Float.max 0.0 (r.r_step_wall +. r.r_deliver_wall -. mx))
    t.rows_rev;
  {
    d_wall_s = t.wall;
    d_parallel_s = !parallel;
    d_imbalance_s = !imbal;
    d_barrier_s = !barrier;
    d_serial_s = t.serial_total;
    d_other_s = t.wall -. (!parallel +. !imbal +. !barrier +. t.serial_total);
  }

let imbalance t =
  let sum_mean = ref 0.0 and sum_max = ref 0.0 in
  List.iter
    (fun r ->
      let mean, mx = row_mean_max r in
      sum_mean := !sum_mean +. mean;
      sum_max := !sum_max +. mx)
    t.rows_rev;
  if !sum_mean <= 0.0 then 1.0 else !sum_max /. !sum_mean

let round_imbalance t =
  let rs = rows t in
  let out = Array.make (List.length rs) 1.0 in
  List.iteri
    (fun i r ->
      let mean, mx = row_mean_max r in
      if mean > 0.0 then out.(i) <- mx /. mean)
    rs;
  out

let to_json t =
  let matrix m =
    Json.List
      (Array.to_list
         (Array.map (fun r -> Json.List (Array.to_list (Array.map (fun x -> Json.Int x) r))) m))
  in
  let per_domain =
    Array.to_list
      (Array.mapi
         (fun s (tot : totals) ->
           Json.Obj
             [
               ("domain", Json.Int s);
               ("step_s", Json.Float tot.step_s);
               ("deliver_s", Json.Float tot.deliver_s);
               ("busy_s", Json.Float (tot.step_s +. tot.deliver_s));
               ("barrier_s", Json.Float tot.barrier_s);
               ("messages", Json.Int tot.messages);
               ("words", Json.Int tot.words);
               ("activations", Json.Int tot.activations);
             ])
         (totals t))
  in
  let d = decomposition t in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("domains", Json.Int t.active);
      ("rounds", Json.Int t.nrounds);
      ("runs", Json.Int t.nruns);
      ("wall_s", Json.Float t.wall);
      ("per_domain", Json.List per_domain);
      ( "traffic",
        Json.Obj
          [
            ("messages", matrix (traffic_messages t));
            ("words", matrix (traffic_words t));
          ] );
      ("imbalance", Json.Float (imbalance t));
      ( "round_imbalance",
        Json.List (Array.to_list (Array.map (fun x -> Json.Float x) (round_imbalance t))) );
      ( "decomposition",
        Json.Obj
          [
            ("wall_s", Json.Float d.d_wall_s);
            ("parallel_s", Json.Float d.d_parallel_s);
            ("imbalance_s", Json.Float d.d_imbalance_s);
            ("barrier_s", Json.Float d.d_barrier_s);
            ("serial_s", Json.Float d.d_serial_s);
            ("other_s", Json.Float d.d_other_s);
          ] );
    ]

(* Chrome trace-event export: pid 0 keeps the domain tracks clear of the
   Obs span tree (pid 1) and the causal-analysis flows (pid 2+). *)
let chrome_events ?t0 t =
  let t0 = match t0 with Some x -> x | None -> t.epoch in
  let us x = Json.Float (x *. 1e6) in
  let meta name tid args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let slice ~name ~cat ~tid ~ts ~dur ~args =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String cat);
        ("ph", Json.String "X");
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("ts", us ts);
        ("dur", us dur);
        ("args", Json.Obj args);
      ]
  in
  let header =
    meta "process_name" 0 [ ("name", Json.String "parallel simulator") ]
    :: List.init t.active (fun s ->
           meta "thread_name" s [ ("name", Json.String (Printf.sprintf "domain %d" s)) ])
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  List.iter
    (fun r ->
      let base = t.epoch -. t0 +. r.r_start in
      let a = Array.length r.r_step in
      let round_arg = ("round", Json.Int r.r_round) in
      for s = 0 to a - 1 do
        emit
          (slice ~name:"step" ~cat:"par" ~tid:s ~ts:base ~dur:r.r_step.(s)
             ~args:
               [
                 round_arg;
                 ("messages", Json.Int r.r_msgs.(s));
                 ("words", Json.Int r.r_words.(s));
                 ("activations", Json.Int r.r_acts.(s));
               ]);
        let wait = r.r_step_wall -. r.r_step.(s) in
        if wait > 0.0 then
          emit
            (slice ~name:"barrier" ~cat:"barrier" ~tid:s ~ts:(base +. r.r_step.(s)) ~dur:wait
               ~args:[ round_arg ]);
        if r.r_deliver_wall > 0.0 then begin
          emit
            (slice ~name:"deliver" ~cat:"par" ~tid:s ~ts:(base +. r.r_step_wall)
               ~dur:r.r_deliver.(s) ~args:[ round_arg ]);
          let wait = r.r_deliver_wall -. r.r_deliver.(s) in
          if wait > 0.0 then
            emit
              (slice ~name:"barrier" ~cat:"barrier" ~tid:s
                 ~ts:(base +. r.r_step_wall +. r.r_deliver.(s))
                 ~dur:wait ~args:[ round_arg ])
        end
      done;
      if r.r_serial > 0.0 then
        emit
          (slice ~name:"serial" ~cat:"serial" ~tid:0
             ~ts:(base +. r.r_step_wall +. r.r_deliver_wall)
             ~dur:r.r_serial ~args:[ round_arg ]))
    (rows t);
  header @ List.rev !events
