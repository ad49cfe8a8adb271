(** Log-bucketed value/latency histograms with percentile export.

    Buckets grow geometrically (ratio 2^¼ ≈ 1.19), so percentile
    estimates carry ~19% relative error regardless of the value range,
    and storage is proportional to the number of occupied buckets, not
    the range.

    Besides standalone histograms ({!create}/{!add}), a global named
    table ({!observe}) mirrors the telemetry counter style: gated on
    [Telemetry.Registry.enabled], cleared by [Registry.reset].
    {!attach_to_spans} subscribes the table to span completions so every
    span path accumulates a duration histogram in milliseconds — that is
    how [bench --profile] and [repro --profile] report p50/p90/p99. *)

type t

val create : unit -> t
val add : t -> float -> unit
(** Record a value; non-finite values are ignored, values [<= 0] land in
    a dedicated zero bucket. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0..100]: rank-interpolated within the
    selected bucket after clamping the bucket span to the observed
    [min, max] range — so a histogram whose values all share one bucket
    interpolates between the observed extremes (exact when all values
    are equal) instead of reporting the bucket's upper bound.
    [nan] is the documented sentinel for an empty histogram;
    [p <= 0] / [p >= 100] report the observed min / max. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float

val observe : string -> float -> unit
(** Record into the global named histogram (no-op while telemetry is
    disabled).  The table is locked, so domains may record at once. *)

val find : string -> t option
(** A copy of the named histogram. *)

val snapshot : unit -> (string * t) list
(** Copies of all named histograms, sorted by name. *)

val attach_to_spans : unit -> unit
(** Subscribe the named table to [Telemetry.Span.on_complete]: each
    completed span records its duration (ms) under its path.
    Idempotent; the listener is permanent but inert while telemetry is
    disabled. *)

val quantiles_json : unit -> Telemetry.Export.json
(** [{path: {count, p50, p90, p99, max}}] for every named histogram. *)

val to_text : unit -> string
(** Human-readable table; empty string when nothing was recorded. *)
