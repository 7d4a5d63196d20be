type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission ----------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr x =
  if Float.is_nan x then "null"  (* JSON has no NaN *)
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let rec emit ~indent ~level buf v =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          emit ~indent ~level:(level + 1) buf item)
        items;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          escape_to buf key;
          Buffer.add_char buf ':';
          if indent then Buffer.add_char buf ' ';
          emit ~indent ~level:(level + 1) buf value)
        fields;
      nl level;
      Buffer.add_char buf '}'

let to_string ?(minify = false) v =
  let buf = Buffer.create 256 in
  emit ~indent:(not minify) ~level:0 buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let of_string ?(max_depth = 512) s =
  let n = String.length s in
  let pos = ref 0 in
  (* Line/column tracking: newlines seen so far and where the current line
     starts, maintained by advance() so every failure can report a
     position humans can act on instead of a raw byte offset. *)
  let line = ref 1 in
  let line_start = ref 0 in
  let fail msg =
    raise
      (Parse_error
         (Printf.sprintf "%s at line %d, column %d (offset %d)" msg !line
            (!pos - !line_start + 1)
            !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () =
    if !pos < n && s.[!pos] = '\n' then begin
      incr line;
      line_start := !pos + 1
    end;
    incr pos
  in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (match Uchar.of_int code with
              | u -> Buffer.add_utf_8_uchar buf u
              | exception Invalid_argument _ -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          loop ()
      | c -> Buffer.add_char buf c; advance (); loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_float = ref false in
    let continue = ref true in
    while !continue do
      match peek () with
      | Some ('0' .. '9') -> advance ()
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
          is_float := true;
          advance ()
      | _ -> continue := false
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let fields = ref [] in
          let rec loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value (depth + 1) in
            fields := (key, value) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [] in
          let rec loop () =
            let value = parse_value (depth + 1) in
            items := value :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match parse_value 0 with
  | value ->
      skip_ws ();
      if !pos <> n then Error "trailing garbage after JSON value" else Ok value
  | exception Parse_error msg -> Error msg
  | exception Failure msg -> Error msg

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

