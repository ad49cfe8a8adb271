(** Chrome trace-event JSON export of the span tree.

    While a capture is active ({!start} … {!stop}), every completed
    telemetry span is buffered and can be rendered as a Trace Event
    Format document — [{"traceEvents": [{"ph":"X", "name", "ts", "dur",
    "pid", "tid"}, …], "displayTimeUnit":"ms"}] with timestamps (from
    the capture's earliest span start) and durations in microseconds —
    which loads directly in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}.  Each domain draws on its own
    track: [tid] is the domain that closed the span.

    The buffer survives [Telemetry.Registry.reset] on purpose (profiling
    drivers reset between phases mid-capture) and is bounded at 100k
    events.  Spans only complete while telemetry is enabled, so a
    capture with telemetry disabled stays empty. *)

type event = {
  name : string;  (** the span's full path *)
  start_ns : float;
  dur_ns : float;
  tid : int;  (** the domain that closed the span *)
}

val start : unit -> unit
(** Begin capturing span completions (clears any previous capture). *)

val stop : unit -> unit
val n_events : unit -> int
val events : unit -> event list
(** Captured events, oldest first. *)

val to_json : unit -> string
val write : string -> unit
(** Render the current capture to a file. *)

val validate : Telemetry.Export.json -> (int, string) result
(** Structural check of a parsed trace document: [Ok k] when it holds
    [k >= 1] well-formed complete ("X") span events and the events of
    each (pid, tid) track nest — none overlaps another without
    containing it —, [Error reason] otherwise.  Used by the
    [--trace-out] smoke test. *)
