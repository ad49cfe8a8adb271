(** Text and JSON export of the telemetry registry.

    The JSON reader ({!parse}) handles the subset of JSON this module
    emits — objects, arrays, strings, finite numbers, booleans, null —
    so reports can be round-tripped (and the bench smoke test can assert
    its own output parses) without an external JSON dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val render : json -> string
(** Compact (single-line) JSON.  Output is pure ASCII: control bytes and
    every byte >= 0x7f in strings are escaped as [\u00XX], so names
    containing quotes, backslashes, or arbitrary non-ASCII bytes always
    produce valid JSON. *)

val parse : string -> json
(** Raises {!Parse_error} on malformed input.  [\uXXXX] escapes with
    code < 256 decode to the raw byte (making {!render} round-trip
    exactly); higher code points decode to ['?']. *)

val member : string -> json -> json option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val to_float : json -> float option
val to_int : json -> int option
val to_str : json -> string option
val to_bool : json -> bool option

val to_json_value : unit -> json
(** Snapshot of the whole registry:
    [{"enabled": ..., "counters": {...}, "spans": {...}}].
    Span statistics are reported as [{count, total_ms, max_ms}]. *)

val to_json : unit -> string
val to_text : unit -> string
(** Human-readable report: nonzero counters and the span table. *)
