(* Text and JSON rendering of the registry, plus a small JSON reader for
   the subset this module emits (used by the bench smoke test and the
   round-trip unit tests; no external JSON dependency). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ---------------- rendering ---------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          (* Control bytes must be escaped; bytes >= 0x7f are escaped too
             so arbitrary (possibly non-UTF-8) name bytes still yield
             pure-ASCII, always-valid JSON.  The parser below reverses
             the mapping for codes < 256. *)
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let rec render_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
      (* NaN / infinities are not valid JSON *)
      if Float.is_finite v then Buffer.add_string buf (number_to_string v)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          render_to buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          render_to buf v)
        fields;
      Buffer.add_char buf '}'

let render j =
  let buf = Buffer.create 256 in
  render_to buf j;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
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
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                (* Codes up to 0xff decode back to the raw byte (the
                   emitter writes every byte >= 0x7f as \u00XX, so this
                   makes arbitrary byte strings round-trip); higher code
                   points become '?'. *)
                Buffer.add_char buf (if code < 256 then Char.chr code else '?');
                pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            advance ();
            loop ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let parse_field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let f = parse_field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (f :: acc)
            | Some '}' ->
                advance ();
                List.rev (f :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_int = function Num v -> Some (int_of_float v) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* ---------------- registry snapshots ---------------- *)

let counters_json () =
  Obj
    (List.map
       (fun (name, v) -> (name, Num (float_of_int v)))
       (Counter.snapshot ()))

let spans_json () =
  Obj
    (List.map
       (fun (path, s) ->
         ( path,
           Obj
             [
               ("count", Num (float_of_int s.Span.count));
               ("total_ms", Num (s.Span.total_ns /. 1e6));
               ("max_ms", Num (s.Span.max_ns /. 1e6));
             ] ))
       (Span.snapshot ()))

let to_json_value () =
  Obj
    [
      ("enabled", Bool (Registry.is_enabled ()));
      ("counters", counters_json ());
      ("spans", spans_json ());
    ]

let to_json () = render (to_json_value ())

let to_text () =
  let buf = Buffer.create 512 in
  let counters = Counter.snapshot () in
  let spans = Span.snapshot () in
  Buffer.add_string buf "== telemetry report ==\n";
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) ->
        if v <> 0 then Buffer.add_string buf (Printf.sprintf "  %-36s %12d\n" name v))
      counters
  end;
  if spans <> [] then begin
    Buffer.add_string buf "spans (total ms | calls | max ms):\n";
    List.iter
      (fun (path, s) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-36s %10.3f | %6d | %9.3f\n" path
             (s.Span.total_ns /. 1e6) s.Span.count (s.Span.max_ns /. 1e6)))
      spans
  end;
  if counters = [] && spans = [] then
    Buffer.add_string buf "  (empty)\n";
  Buffer.contents buf
