(** Views of a request or connection trace.

    A trace is recorded through {!Telemetry.Span} (created with
    {!Telemetry.Span.trace}, installed with {!Telemetry.Span.with_trace});
    this module derives and renders its id, exports it as JSON and
    digests it.  Deterministic under a virtual clock — replaying the
    same request trace yields a bit-identical trace (see {!digest}). *)

val derive_id : seed:int -> request:int -> int64
(** Trace id for request [request] of a run seeded with [seed]
    (SplitMix64 stream derivation — stable across replays). *)

val id_hex : int64 -> string
(** 16-digit lowercase hex rendering of a trace id. *)

val span_json : Telemetry.Span.node -> Telemetry.Export.json
val to_json : Telemetry.Span.trace -> Telemetry.Export.json

val digest : Telemetry.Span.trace -> int64
(** Structural digest over the trace id and every node's id, parent,
    name, timestamps and fields.  Equal digests for bit-identical
    traces; used by replay verification. *)
