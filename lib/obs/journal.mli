(** Per-request span journal (JSONL) with a running digest and a
    reconciling aggregate.

    Each finished request appends one JSON line: trace id, status,
    latency/queue/cache fields, and the full span tree of its trace
    ({!Telemetry.Span.trace}, rendered by {!Trace_ctx.span_json}): the
    engine's own spans and every library span recorded under the
    request, down to the solver rungs and [cg.solve].  The journal maintains a SplitMix64 digest over the
    exact line bytes (replaying a seeded trace must reproduce it
    bit-for-bit) and a running aggregate using the same {!Histogram}
    implementation as the serve engine, so journal figures reconcile
    exactly with [Engine.stats].  Recording is mutex-protected and safe
    to call from multiple domains. *)

type t

val create : unit -> t

val record :
  t ->
  request:int ->
  status:string ->
  ?reason:string ->
  latency_ms:float ->
  queue_ms:float ->
  cache_hit:bool ->
  Telemetry.Span.trace ->
  unit
(** [status] must be one of ["served"], ["degraded"], ["shed"]. *)

val length : t -> int
val digest : t -> int64
val lines : t -> string list
(** In recording order. *)

type aggregate = {
  requests : int;
  served : int;
  degraded : int;
  shed : int;
  latency_p50 : float;
  latency_p99 : float;
  latency_max : float;
}

val aggregate : t -> aggregate
val aggregate_of_text : string -> aggregate

val to_text : t -> string
(** All lines, each terminated by a newline. *)

val write : t -> string -> unit

val validate_line : string -> (unit, string) result
(** Schema check for one journal line: required typed fields, a known
    status, a 16-hex-digit trace id, non-negative times, and a causal
    span tree (ids are allocation order, [parent < id], span 0 is the
    root). *)

val validate_text : string -> (int, string) result
(** Validate a whole journal; [Ok n] is the number of lines checked,
    [Error] carries the first failing line number and reason. *)

val validate_file : string -> (int, string) result
