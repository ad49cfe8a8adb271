(* Request-scoped trace context.

   One [t] per served request: a 64-bit trace id (derived from the
   engine seed and the request id through SplitMix64, so replaying a
   trace reproduces the same ids bit-for-bit) plus a causally-ordered
   span tree.  Span ids are allocation indices, so [parent < id] always
   holds and the journal schema can check causal order structurally.

   Time is injected ([now], milliseconds): the serve layer passes its
   own clock, which under a virtual clock makes every recorded
   timestamp — and therefore the whole journal — deterministic.

   The context also installs itself as the *ambient* trace of the
   current domain ([with_current]), so deep layers (Robust.Solve rungs,
   Cg iterations) can attach spans and marks without threading a value
   through every signature.  The ambient slot is domain-local storage:
   concurrent requests on different domains never splice into each
   other's trees. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  id : int;  (* allocation index; causal order *)
  parent : int;  (* -1 for a root *)
  name : string;
  start_ms : float;
  mutable dur_ms : float;  (* nan while the span is open *)
  mutable fields : (string * value) list;
}

type t = {
  trace_id : int64;
  now : unit -> float;
  mutable spans_rev : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : span list;  (* innermost open span first *)
}

let derive_id ~seed ~request =
  Prng.Splitmix64.derive (Int64.of_int seed) request

let id_hex id = Printf.sprintf "%016Lx" id

let default_now () = Telemetry.Span.now_ns () /. 1e6

let create ?(now = default_now) ~trace_id () =
  { trace_id; now; spans_rev = []; next_id = 0; stack = [] }

let trace_id t = t.trace_id

let open_span t ?(fields = []) name =
  let parent = match t.stack with [] -> -1 | s :: _ -> s.id in
  let s =
    { id = t.next_id; parent; name; start_ms = t.now (); dur_ms = Float.nan;
      fields }
  in
  t.next_id <- t.next_id + 1;
  t.spans_rev <- s :: t.spans_rev;
  t.stack <- s :: t.stack;
  s

let annotate s fields = s.fields <- s.fields @ fields

let close_span t s =
  if Float.is_nan s.dur_ms then begin
    s.dur_ms <- Float.max 0. (t.now () -. s.start_ms);
    (* pop the stack down to (and including) [s]; spans the caller
       forgot to close are closed with it, so the tree is always total *)
    let rec pop = function
      | [] -> []
      | top :: rest ->
          if top.id = s.id then rest
          else begin
            if Float.is_nan top.dur_ms then
              top.dur_ms <- Float.max 0. (t.now () -. top.start_ms);
            pop rest
          end
    in
    if List.exists (fun sp -> sp.id = s.id) t.stack then
      t.stack <- pop t.stack
  end

let with_span t ?fields name f =
  let s = open_span t ?fields name in
  Fun.protect ~finally:(fun () -> close_span t s) f

(* zero-duration span: a point event in causal position *)
let event t ?fields name =
  let s = open_span t ?fields name in
  s.dur_ms <- 0.;
  t.stack <- (match t.stack with _ :: rest -> rest | [] -> [])

let spans t = List.rev t.spans_rev

(* ---------------- ambient (per-domain) context ---------------- *)

let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get current_key)

let with_current t f =
  let slot = Domain.DLS.get current_key in
  let saved = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := saved) f

let in_span ?fields name f =
  match current () with
  | None -> f ()
  | Some t -> with_span t ?fields name f

let mark ?fields name =
  match current () with None -> () | Some t -> event t ?fields name

let annotate_current fields =
  match current () with
  | None -> ()
  | Some t -> ( match t.stack with [] -> () | s :: _ -> annotate s fields)

(* ---------------- export ---------------- *)

let value_json = function
  | Bool b -> Telemetry.Export.Bool b
  | Int i -> Telemetry.Export.Num (float_of_int i)
  | Float v -> Telemetry.Export.Num v
  | Str s -> Telemetry.Export.Str s

let span_json s =
  let open Telemetry.Export in
  Obj
    [
      ("id", Num (float_of_int s.id));
      ("parent", Num (float_of_int s.parent));
      ("name", Str s.name);
      ("start_ms", Num s.start_ms);
      ("dur_ms", Num (if Float.is_nan s.dur_ms then 0. else s.dur_ms));
      ( "fields",
        Obj (List.map (fun (k, v) -> (k, value_json v)) s.fields) );
    ]

let to_json t =
  Telemetry.Export.Obj
    [
      ("trace", Telemetry.Export.Str (id_hex t.trace_id));
      ("spans", Telemetry.Export.Arr (List.map span_json (spans t)));
    ]

(* ---------------- digest ---------------- *)

let combine h v = Prng.Splitmix64.mix (Int64.logxor (Int64.mul h 0x100000001b3L) v)

let combine_string h s =
  let h = ref (combine h (Int64.of_int (String.length s))) in
  String.iter (fun c -> h := combine !h (Int64.of_int (Char.code c))) s;
  !h

let combine_value h = function
  | Bool b -> combine h (if b then 1L else 0L)
  | Int i -> combine h (Int64.of_int i)
  | Float v -> combine h (Int64.bits_of_float v)
  | Str s -> combine_string h s

let digest t =
  List.fold_left
    (fun h s ->
      let h = combine h (Int64.of_int s.id) in
      let h = combine h (Int64.of_int s.parent) in
      let h = combine_string h s.name in
      let h = combine h (Int64.bits_of_float s.start_ms) in
      let h = combine h (Int64.bits_of_float s.dur_ms) in
      List.fold_left
        (fun h (k, v) -> combine_value (combine_string h k) v)
        h s.fields)
    (combine 0x7ace5eedL t.trace_id)
    (spans t)
