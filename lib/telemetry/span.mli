(** Hierarchical wall-clock spans.

    [with_ "solve" f] times [f] and accumulates {count, total, max} under
    the span's path.  Paths nest: a span opened while another is running
    records under ["outer/inner"], so a report shows where time went
    layer by layer.  When {!Registry.is_enabled} is false [with_ name f]
    is exactly [f ()].

    {b Clock.}  Timestamps come from {!Monotonic.now_ns} unless a test
    injects another source with {!set_time_source}.  An injected source
    may run backwards, so a stop reading may precede the start reading;
    durations are therefore clamped to zero — a span can under-report
    but never reports a negative duration.  The clamp is unit-tested
    via {!set_time_source}. *)

type stat = {
  mutable count : int;
  mutable total_ns : float;
  mutable max_ns : float;
}

val with_ : string -> (unit -> 'a) -> 'a
(** Time the thunk under the given span name (exceptions still close and
    record the span). *)

val stat : string -> stat option
(** Look up accumulated statistics by full path, e.g. ["outer/inner"].
    The returned record is a copy-free alias; treat it as read-only. *)

val count : string -> int
val total_ns : string -> float
val total_ms : string -> float

val snapshot : unit -> (string * stat) list
(** All spans, sorted by path; the stats are copies. *)

val now_ns : unit -> float
(** Current reading of the span clock, in nanoseconds.  Uses the
    injected time source when one is set (see {!set_time_source}). *)

val set_time_source : (unit -> float) option -> unit
(** Replace the clock with a fake (a function returning nanoseconds);
    [None] restores {!Monotonic.now_ns}.  Test-only: lets a unit test
    simulate a clock stepping backwards between span start and stop and
    assert the duration clamps to 0. *)

val on_complete : (string -> float -> float -> unit) -> unit
(** [on_complete f] registers [f path start_ns duration_ns] to run each
    time a span finishes recording (only while telemetry is enabled).
    Listeners are permanent for the process lifetime and must not raise;
    exceptions they do raise are swallowed.  Used by [Obs.Chrome_trace]
    and [Obs.Histogram]. *)
