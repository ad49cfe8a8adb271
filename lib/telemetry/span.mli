(** Spans: the one way to record where time went.

    [with_ "solve" f] runs [f] as a span, [event "tick"] marks a point
    and [annotate fields] adds fields to the innermost open span.  The
    same calls feed every sink, so a layer never chooses which ones see
    its spans:

    - the trace installed on the calling domain by {!with_trace}, if
      any, whatever {!Registry} says.  Its nodes are stamped by the
      trace's own clock, so a trace on a virtual clock is deterministic;
    - while {!Registry.is_enabled}: the path aggregate (count, total and
      max per path — a span opened while another runs records under
      ["outer/inner"]) and the {!on_complete} listeners, stamped by
      {!Monotonic.now_ns} or the source a test injects with
      {!set_time_source}.

    [event] and [annotate] carry no duration, so they reach the trace
    only.  With telemetry off and no trace installed, [with_ name f] is
    [f ()] after one domain-local read and the flag test.  The installed
    trace and the path stack are domain-local: a span opened on another
    domain (a pool or sweep worker) never enters a trace installed
    elsewhere.  An injected clock may run backwards, so every duration
    is clamped to zero: a span can under-report, never go negative. *)

type value = Bool of bool | Int of int | Float of float | Str of string

val with_ :
  ?fields:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk as a span (exceptions still close and record it);
    [fields] label its trace node. *)

val event : ?fields:(string * value) list -> string -> unit
(** A zero-duration node in causal position in the installed trace. *)

val annotate : (string * value) list -> unit
(** Add fields to the innermost open node of the installed trace. *)

(** {2 Traces} *)

type trace
(** A request or connection trace: a 64-bit id, a millisecond clock and
    a tree of nodes under a root. *)

type node = private {
  id : int;  (** allocation index; [parent < id] always holds *)
  parent : int;  (** [-1] for the root *)
  name : string;
  start_ms : float;
  mutable dur_ms : float;  (** [nan] while open, [>= 0] once closed *)
  mutable fields : (string * value) list;
}

val trace :
  now:(unit -> float) -> id:int64 -> ?fields:(string * value) list ->
  string -> trace
(** [trace ~now ~id name] opens a trace whose root [name] starts now;
    pass the serve clock as [now] for determinism. *)

val with_trace : trace -> (unit -> 'a) -> 'a
(** Install the trace on the calling domain while the thunk runs; a
    nested install shadows the outer trace and restores it on exit. *)

val close : ?fields:(string * value) list -> trace -> unit
(** Add [fields] to the root and close it with every node still open
    below it, so the tree is always total.  The root is the only node
    closed by hand; closing a closed trace does nothing. *)

val trace_id : trace -> int64

val nodes : trace -> node list
(** In causal (allocation) order, the root first. *)

(** {2 The path aggregate} *)

type stat = {
  mutable count : int;
  mutable total_ns : float;
  mutable max_ns : float;
}

val count : string -> int
val total_ns : string -> float
val total_ms : string -> float
(** By full path, e.g. ["outer/inner"]; 0 for a path never recorded. *)

val snapshot : unit -> (string * stat) list
(** All spans, sorted by path; the stats are copies. *)

val set_time_source : (unit -> float) option -> unit
(** Replace the aggregate's clock with a fake returning nanoseconds;
    [None] restores {!Monotonic.now_ns}.  Test-only: lets a unit test
    step the clock backwards and assert the duration clamps to 0. *)

val on_complete : (string -> float -> float -> unit) -> unit
(** [on_complete f] registers [f path start_ns duration_ns] to run, on
    the domain that closed the span, each time a span finishes recording
    (only while telemetry is enabled).  Listeners are permanent and must
    not raise; exceptions they do raise are swallowed.  Used by
    [Obs.Chrome_trace] and [Obs.Histogram]. *)
