(** Global telemetry switch and registry.

    Telemetry is off by default; when disabled, {!Counter.add} degrades
    to a single branch on {!is_enabled} and {!Span.with_} to that branch
    and one domain-local read (it still feeds an installed trace), so
    instrumented code runs at full speed unless a caller opts in. *)

val enabled : bool ref
(** Exposed so probes can inline the check; treat as read-only outside
    this library and use {!enable}/{!disable} to flip it. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero every counter and span statistic. *)

val on_reset : (unit -> unit) -> unit
(** Register a hook run by {!reset}.  Used by the sibling modules; user
    code rarely needs it. *)

val with_enabled : (unit -> 'a) -> 'a
(** Run the thunk with telemetry enabled, restoring the previous state
    afterwards (also on exceptions).  Does not reset any metric. *)

val with_disabled : (unit -> 'a) -> 'a
(** Dual of {!with_enabled}: temporarily silence all probes. *)
