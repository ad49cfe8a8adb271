(** Request-scoped trace context: a SplitMix64-derived trace id plus a
    causally-ordered span tree whose timestamps come from an injected
    clock.  Deterministic under a virtual clock — replaying the same
    request trace yields a bit-identical context (see {!digest}).

    A context can be installed as the {e ambient} trace of the current
    domain, letting deep layers (solver rungs, CG) attach spans without
    threading a value through their signatures.  The ambient slot is
    domain-local, so concurrent requests on different domains never
    corrupt each other's trees. *)

type value = Bool of bool | Int of int | Float of float | Str of string
(** A span field's value. *)

type span = private {
  id : int;  (** allocation index; [parent < id] always holds *)
  parent : int;  (** [-1] for a root span *)
  name : string;
  start_ms : float;
  mutable dur_ms : float;  (** [nan] while open, [>= 0] once closed *)
  mutable fields : (string * value) list;
}

type t

val derive_id : seed:int -> request:int -> int64
(** Trace id for request [request] of a run seeded with [seed]
    (SplitMix64 stream derivation — stable across replays). *)

val id_hex : int64 -> string
(** 16-digit lowercase hex rendering of a trace id. *)

val create : ?now:(unit -> float) -> trace_id:int64 -> unit -> t
(** [now] supplies timestamps in milliseconds; defaults to the
    telemetry wall clock.  Pass the serve clock for determinism. *)

val trace_id : t -> int64

val open_span : t -> ?fields:(string * value) list -> string -> span
val close_span : t -> span -> unit
(** Closing a span also closes any still-open descendants, so the
    recorded tree is always total.  Idempotent. *)

val with_span :
  t -> ?fields:(string * value) list -> string -> (unit -> 'a) -> 'a

val annotate : span -> (string * value) list -> unit

val event : t -> ?fields:(string * value) list -> string -> unit
(** Zero-duration span: a point event in causal position. *)

val spans : t -> span list
(** In causal (allocation) order. *)

(** {2 Ambient context} *)

val with_current : t -> (unit -> 'a) -> 'a
(** Install [t] as the current domain's ambient trace for the call. *)

val current : unit -> t option

val in_span :
  ?fields:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Span on the ambient trace; plain call when no trace is installed. *)

val mark : ?fields:(string * value) list -> string -> unit
(** Point event on the ambient trace; no-op when none is installed. *)

val annotate_current : (string * value) list -> unit
(** Add fields to the innermost open span of the ambient trace. *)

(** {2 Export} *)

val span_json : span -> Telemetry.Export.json
val to_json : t -> Telemetry.Export.json

val digest : t -> int64
(** Structural digest over ids, names, timestamps, and fields.  Equal
    digests for bit-identical traces; used by replay verification. *)
