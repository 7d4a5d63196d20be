module Intvec = Lcs_util.Intvec

(* --- plain text edge lists --------------------------------------------- *)

let to_edge_list g =
  let buf = Buffer.create (16 * Graph.m g) in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun _e u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let to_channel oc g =
  Printf.fprintf oc "%d %d\n" (Graph.n g) (Graph.m g);
  Graph.iter_edges g (fun _e u v -> Printf.fprintf oc "%d %d\n" u v)

let fail_line what line msg =
  invalid_arg (Printf.sprintf "%s: line %d: %s" what line msg)

let is_sep c = c = ' ' || c = '\t' || c = '\r'

let is_blank s start stop =
  let rec go i = i >= stop || (is_sep s.[i] && go (i + 1)) in
  go start

(* Two integers out of s.[start..stop), separated by runs of spaces/tabs
   (and tolerating a trailing \r from CRLF files), with nothing else on
   the line. No substring is allocated. *)
let parse_pair ~what s start stop line =
  let i = ref start in
  let skip_sep () =
    while !i < stop && is_sep s.[!i] do
      incr i
    done
  in
  let parse_int () =
    let sign = if !i < stop && s.[!i] = '-' then ( incr i; -1 ) else 1 in
    if !i >= stop || s.[!i] < '0' || s.[!i] > '9' then
      fail_line what line "expected an integer";
    let v = ref 0 in
    while !i < stop && s.[!i] >= '0' && s.[!i] <= '9' do
      v := (!v * 10) + (Char.code s.[!i] - Char.code '0');
      incr i
    done;
    sign * !v
  in
  skip_sep ();
  let a = parse_int () in
  skip_sep ();
  let b = parse_int () in
  skip_sep ();
  if !i <> stop then fail_line what line "trailing characters after the two fields";
  (a, b)

(* One streaming pass over a line source: header, then exactly [m] edge
   lines (blank lines skipped), every diagnostic carrying its 1-based line
   number. Endpoints go straight into flat vectors — no list of the input
   ever exists. *)
let parse_lines ~what next_line =
  let line_no = ref 0 in
  let rec next_nonblank () =
    match next_line () with
    | None -> None
    | Some (s, start, stop) ->
        incr line_no;
        if is_blank s start stop then next_nonblank ()
        else Some (s, start, stop, !line_no)
  in
  match next_nonblank () with
  | None -> invalid_arg (what ^ ": empty input")
  | Some (s, start, stop, header_line) ->
      let n, m = parse_pair ~what s start stop header_line in
      if n < 0 then fail_line what header_line "negative vertex count";
      if m < 0 then fail_line what header_line "negative edge count";
      let us = Intvec.create ~capacity:(max 16 m) ()
      and vs = Intvec.create ~capacity:(max 16 m) () in
      let count = ref 0 in
      let rec loop () =
        match next_nonblank () with
        | None -> ()
        | Some (s, start, stop, line) ->
            if !count >= m then
              fail_line what line
                (Printf.sprintf "edge %d but the header declares only %d"
                   (!count + 1) m);
            let u, v = parse_pair ~what s start stop line in
            if u < 0 || u >= n || v < 0 || v >= n then
              fail_line what line "endpoint out of range";
            if u = v then fail_line what line "self-loop";
            let u, v = if u < v then (u, v) else (v, u) in
            Intvec.push us u;
            Intvec.push vs v;
            incr count;
            loop ()
      in
      loop ();
      if !count <> m then
        invalid_arg
          (Printf.sprintf "%s: edge count: header declares %d, found %d" what m
             !count);
      Graph.of_endpoints ~what ~n (Intvec.freeze us) (Intvec.freeze vs)

let of_edge_list text =
  let len = String.length text in
  let pos = ref 0 in
  parse_lines ~what:"Graph_io.of_edge_list" (fun () ->
      if !pos >= len then None
      else begin
        let start = !pos in
        let stop =
          match String.index_from_opt text start '\n' with
          | Some nl -> nl
          | None -> len
        in
        pos := stop + 1;
        Some (text, start, stop)
      end)

let of_channel ic =
  parse_lines ~what:"Graph_io.of_channel" (fun () ->
      match input_line ic with
      | s -> Some (s, 0, String.length s)
      | exception End_of_file -> None)

(* --- whole files ------------------------------------------------------- *)

(* Binary mode everywhere: a binary graph (or a text one with pinned line
   endings) must survive round-trips on every platform. *)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* --- binary graphs (schema lcs-graph-bin/1) ---------------------------- *)

(* Layout, all words little-endian int64:

     word 0        magic "lcsgrb1\n" (the schema tag, lcs-graph-bin/1)
     word 1        n
     word 2        m
     words 3..     row_off   (n+1 words)
                   col_nbr   (2m words)
                   col_edge  (2m words)
                   ends_u    (m words)
                   ends_v    (m words)

   The payload sections are exactly the CSR arrays of Graph.t, so on a
   64-bit little-endian platform Unix.map_file hands back graph storage
   directly: read_binary is O(1) copying — five Array1.sub views into one
   mapping. Every value fits in 62 bits (OCaml int), including the magic,
   whose most significant byte is '\n' = 0x0a. Both reads keep 63 bits of
   a word, so a set bit 63 would vanish: the validating read checks the
   raw words' top two bits. *)

let magic = "lcsgrb1\n"

let magic_int =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code magic.[i]
  done;
  !v

let header_words = 3

let file_words ~n ~m = header_words + (n + 1) + (6 * m)

let write_binary path g =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65_536 in
      let flush_if_full () =
        if Buffer.length buf >= 61_440 then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end
      in
      let word x = Buffer.add_int64_le buf (Int64.of_int x) in
      Buffer.add_string buf magic;
      word (Graph.n g);
      word (Graph.m g);
      let section vec =
        Intvec.iter
          (fun x ->
            word x;
            flush_if_full ())
          vec
      in
      section (Graph.csr_offsets g);
      section (Graph.csr_neighbors g);
      section (Graph.csr_edges g);
      let ends_u, ends_v = Graph.csr_endpoints g in
      section ends_u;
      section ends_v;
      Buffer.output_buffer oc buf)

let bad_binary path msg =
  invalid_arg (Printf.sprintf "Graph_io.read_binary: %s: %s" path msg)

(* Section splitter shared by both read paths: [words] is the whole file
   as one int vector (mapped or decoded); returns the graph wrapping five
   O(1) sub-views of it. *)
let graph_of_words path words =
  if Intvec.length words < header_words then bad_binary path "truncated header";
  if Intvec.get words 0 <> magic_int then
    bad_binary path "bad magic (not an lcs-graph-bin/1 file)";
  let n = Intvec.get words 1 and m = Intvec.get words 2 in
  if n < 0 || m < 0 then bad_binary path "negative size in header";
  if Intvec.length words <> file_words ~n ~m then
    bad_binary path
      (Printf.sprintf "size mismatch: header says n=%d m=%d (%d words), file has %d"
         n m (file_words ~n ~m) (Intvec.length words));
  let pos = ref header_words in
  let section len =
    let v = Intvec.sub_view words ~pos:!pos ~len in
    pos := !pos + len;
    v
  in
  let row_off = section (n + 1) in
  let col_nbr = section (2 * m) in
  let col_edge = section (2 * m) in
  let ends_u = section m in
  let ends_v = section m in
  Graph.of_csr_unchecked ~n ~m ~row_off ~col_nbr ~col_edge ~ends_u ~ends_v

let wide_word path i =
  bad_binary path (Printf.sprintf "word %d has bit 62 or 63 set (values fit in 62 bits)" i)

let read_binary_mmap ~validate path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size mod 8 <> 0 then bad_binary path "size is not a whole number of words";
      (* A private (copy-on-write) mapping: the file can never be mutated
         through the graph, and the mapping outlives the fd, which closes
         right here. *)
      let arr = Unix.map_file fd Bigarray.int Bigarray.c_layout false [| size / 8 |] in
      let g = graph_of_words path (Intvec.of_bigarray (Bigarray.array1_of_genarray arr)) in
      if validate then begin
        (* The same file as raw int64 words, whose top bits survive. *)
        let raw =
          Bigarray.array1_of_genarray
            (Unix.map_file fd Bigarray.int64 Bigarray.c_layout false [| size / 8 |])
        in
        for i = 0 to Bigarray.Array1.dim raw - 1 do
          if Int64.shift_right_logical (Bigarray.Array1.unsafe_get raw i) 62 <> 0L then
            wide_word path i
        done
      end;
      g)

let read_binary_stream ~validate path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      if size mod 8 <> 0 then bad_binary path "size is not a whole number of words";
      let total = size / 8 in
      let words = Intvec.make total 0 in
      let chunk = Bytes.create 65_536 in
      let filled = ref 0 and first_wide = ref (-1) in
      while !filled < total do
        let want = min (Bytes.length chunk / 8) (total - !filled) in
        really_input ic chunk 0 (8 * want);
        for i = 0 to want - 1 do
          let x = Bytes.get_int64_le chunk (8 * i) in
          if !first_wide < 0 && Int64.shift_right_logical x 62 <> 0L then
            first_wide := !filled + i;
          Intvec.unsafe_set words (!filled + i) (Int64.to_int x)
        done;
        filled := !filled + want
      done;
      (* The header's checks come first, as on the mapped read. *)
      let g = graph_of_words path words in
      if validate && !first_wide >= 0 then wide_word path !first_wide;
      g)

let read_binary ?(mmap = true) ?(validate = false) path =
  let g =
    (* The mapped sections are byte images of little-endian int64s; on a
       big-endian host fall back to the decoding read. *)
    if mmap && not Sys.big_endian then read_binary_mmap ~validate path
    else read_binary_stream ~validate path
  in
  if validate then Graph.validate g;
  g

(* --- Graphviz ---------------------------------------------------------- *)

let palette =
  [| "lightblue"; "lightsalmon"; "palegreen"; "plum"; "khaki"; "lightcyan";
     "mistyrose"; "honeydew" |]

let to_dot_with_edge_style ?partition g ~style_of_edge =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph G {\n  node [shape=circle];\n";
  for v = 0 to Graph.n g - 1 do
    match partition with
    | Some p when Partition.part_of p v >= 0 ->
        let part = Partition.part_of p v in
        Buffer.add_string buf
          (Printf.sprintf
             "  %d [label=\"%d\\np%d\", style=filled, fillcolor=%s];\n" v v part
             palette.(part mod Array.length palette))
    | _ -> Buffer.add_string buf (Printf.sprintf "  %d;\n" v)
  done;
  Graph.iter_edges g (fun e u v ->
      match style_of_edge e with
      | Some style -> Buffer.add_string buf (Printf.sprintf "  %d -- %d [%s];\n" u v style)
      | None -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_dot ?partition g =
  to_dot_with_edge_style ?partition g ~style_of_edge:(fun _ -> None)
