(** One client connection as an I/O-free state machine.

    The socket layer ({!Server}) — or the hostile-client soak
    ({!Hostile}), or a test — owns the file descriptor and pushes bytes
    in ({!on_bytes}, {!on_eof}) and pulls response bytes out
    ({!pending}, {!consume}).  Everything between is deterministic and
    clock-driven, which is what makes byte-level fault injection
    replayable on the virtual clock:

    - Frames decode incrementally ({!Frame}); a completed payload is
      parsed ({!Protocol}) and dispatched to {!Serve.Engine.handle}
      with its arrival anchored at the frame's {e first} byte, so a
      slow sender burns its own deadline budget, not the server's.
    - Every failure mode is a typed, counted outcome: framing and JSON
      errors answer with an error frame ([Transport.frame_rejected]);
      a frame that stalls past the I/O deadline, or a peer that stops
      reading its responses, expires ([io_deadline_expired]) and the
      connection closes; output beyond the buffer bound sheds with an
      explicit [overloaded] status ([overflow_shed]); an abrupt peer
      disconnect counts [client_gone].  Nothing raises.
    - The connection carries a {!Telemetry.Span.trace}: a root [conn]
      span with one child [frame] span per parsed request, whose
      [status] field is the engine's answer, and the rejections, I/O
      deadlines and vanished peers as events.  Every entry point runs
      under that trace, so transport activity shows up in the same
      trace/digest machinery as solves. *)

type config = {
  io_deadline_ms : float;
      (** budget for finishing a started frame, and for the peer to
          drain a queued response — charged to the engine clock *)
  max_payload : int;  (** per-frame payload cap (see {!Frame}) *)
  max_buffered : int;
      (** output backpressure bound: a request arriving with more than
          this many unread response bytes is shed as [overloaded] *)
}

val default_config : config
(** 2000 ms I/O deadline, 1 MiB payloads, 256 KiB output buffer. *)

type t

val create :
  ?config:config -> engine:Serve.Engine.t -> fresh_id:(unit -> int) ->
  id:int -> unit -> t
(** Uses the engine's clock, transport counters, and seed (for the
    connection trace id).  [fresh_id] allocates engine request ids. *)

(** {2 Input (socket [read] side)} *)

val on_bytes : t -> string -> unit
(** Feed received bytes; dispatches any completed frames. *)

val on_eof : t -> unit
(** Peer half-closed its write side: report a truncated frame if one
    was in flight, then flush remaining responses and close. *)

val tick : t -> unit
(** Check I/O deadlines against the clock — call once per event-loop
    turn (and after virtual-clock advances in tests). *)

val abort : t -> reason:string -> unit
(** The peer vanished (EPIPE / ECONNRESET / disconnect): count
    [client_gone], close the span, drop buffered output. *)

val shutdown : t -> reason:string -> unit
(** Orderly server-side close (drain complete, EOF flushed). *)

(** {2 Output (socket [write] side)} *)

val pending : t -> string
(** Unsent response bytes. *)

val pending_len : t -> int
val consume : t -> int -> unit
(** The first [n] pending bytes went out (or were read by the test). *)

(** {2 State} *)

val id : t -> int
val want_close : t -> bool
(** Closing and nothing left to flush — the owner should {!shutdown}. *)

val is_closed : t -> bool
val frames : t -> int
(** Well-formed frames dispatched. *)

val rejected : t -> int
(** Frames answered with a typed error. *)

val responses : t -> int
(** Response frames queued for send. *)

val io_expired : t -> bool
val aborted : t -> bool
val max_buffered_seen : t -> int
val close_reason : t -> string
val ctx : t -> Telemetry.Span.trace
(** The connection's trace. *)
