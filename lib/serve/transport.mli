(** Transport-level counters for the framed socket front-end.

    One record lives inside each {!Engine} (see {!Engine.transport});
    the network layer ([lib/net]) increments it as connections open,
    frames parse or fail, peers vanish, and I/O deadlines expire, so
    {!Engine.metrics} exposes solver and transport health on one
    surface.  Counting, never raising: every hostile-client failure
    mode lands here as a number, and the helpers also mirror into the
    process telemetry registry when it is enabled. *)

type t = {
  mutable conns_opened : int;
  mutable conns_closed : int;
  mutable frames_ok : int;      (** well-formed frames answered *)
  mutable frames_rejected : int;
      (** frames answered with a typed protocol error *)
  mutable client_gone : int;
      (** peers that vanished mid-exchange (EPIPE/ECONNRESET/disconnect
          with undelivered output) *)
  mutable io_deadline_expired : int;
      (** reads or writes that outlived the per-frame I/O deadline *)
  mutable overflow_shed : int;
      (** frames shed because the connection output buffer was full *)
  mutable drained : int;  (** graceful drains completed *)
  mutable bytes_in : int;
  mutable bytes_out : int;
}

val create : unit -> t

val conn_opened : t -> unit
val conn_closed : t -> unit
val frame_ok : t -> unit
val frame_rejected : t -> unit

val client_gone : t -> unit

val io_deadline_expired : t -> unit
val overflow_shed : t -> unit
val drained : t -> unit
val bytes_in : t -> int -> unit
val bytes_out : t -> int -> unit

val metrics : t -> Obs.Expo.metric list
(** [serve.transport.*] counters; appended to {!Engine.metrics}. *)
