(* Views of a request or connection trace ({!Telemetry.Span.trace}).

   The trace id is derived from the engine seed and the request id
   through SplitMix64, so replaying a run reproduces the same ids
   bit-for-bit.  Node ids are allocation indices, so [parent < id]
   always holds and the journal schema can check causal order
   structurally.  These views live here rather than in [telemetry]
   because they use [Prng.Splitmix64], and [prng] sits above
   [telemetry]. *)

module Span = Telemetry.Span

let derive_id ~seed ~request =
  Prng.Splitmix64.derive (Int64.of_int seed) request

let id_hex id = Printf.sprintf "%016Lx" id

(* ---------------- export ---------------- *)

let value_json = function
  | Span.Bool b -> Telemetry.Export.Bool b
  | Span.Int i -> Telemetry.Export.Num (float_of_int i)
  | Span.Float v -> Telemetry.Export.Num v
  | Span.Str s -> Telemetry.Export.Str s

let span_json (s : Span.node) =
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

let to_json tr =
  Telemetry.Export.Obj
    [
      ("trace", Telemetry.Export.Str (id_hex (Span.trace_id tr)));
      ("spans", Telemetry.Export.Arr (List.map span_json (Span.nodes tr)));
    ]

(* ---------------- digest ---------------- *)

let combine h v = Prng.Splitmix64.mix (Int64.logxor (Int64.mul h 0x100000001b3L) v)

let combine_string h s =
  let h = ref (combine h (Int64.of_int (String.length s))) in
  String.iter (fun c -> h := combine !h (Int64.of_int (Char.code c))) s;
  !h

let combine_value h = function
  | Span.Bool b -> combine h (if b then 1L else 0L)
  | Span.Int i -> combine h (Int64.of_int i)
  | Span.Float v -> combine h (Int64.bits_of_float v)
  | Span.Str s -> combine_string h s

let digest tr =
  List.fold_left
    (fun h (s : Span.node) ->
      let h = combine h (Int64.of_int s.id) in
      let h = combine h (Int64.of_int s.parent) in
      let h = combine_string h s.name in
      let h = combine h (Int64.bits_of_float s.start_ms) in
      let h = combine h (Int64.bits_of_float s.dur_ms) in
      List.fold_left
        (fun h (k, v) -> combine_value (combine_string h k) v)
        h s.fields)
    (combine 0x7ace5eedL (Span.trace_id tr))
    (Span.nodes tr)
