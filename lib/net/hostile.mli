(** Deterministic hostile-client soak: the byte-level traffic of the
    {!Serve.Soak} harness.

    Generates a seeded trace of client connections on the harness's
    arrival schedule — a clean mix (whole, chunked, and pipelined
    queries, relabels drawn from the harness's pool, stats/metrics)
    interleaved with a hostile menu (the {!corruptions} table: bad
    magic, bad version, oversized length, truncated frames with
    half-close, garbage JSON with embedded NULs, unknown ops, missing
    and non-finite fields; then slowloris mid-frame stalls, peers that
    stop reading, abrupt disconnects, burst connects) — and replays it
    byte-for-byte through {!Conn} + {!Serve.Engine.handle} on the
    engine and virtual clock {!Serve.Soak.replay} builds.  This module
    owns the scenario menu, the replay through [Conn] and the
    transport-counter reconciliation; the harness owns the engine
    setup, the replay comparison and the observability check.
    Invariants checked:

    - the server never crashes: no exception escapes any connection,
      whatever bytes arrive;
    - every frame is answered or typed-error-counted — hostile inputs
      produce protocol error responses, never silence;
    - zero unflagged degradation: every [ok] answer is [served] with a
      healthy certificate or carries an explicit degraded/shed reason;
    - per-connection output stays bounded (backpressure sheds);
    - transport counters reconcile exactly with the scenario script
      (every expected [client_gone], [io_deadline_expired], rejected
      and accepted frame is accounted for);
    - the SLO tracker and the journal reconcile with the engine's
      books (the harness's observability check);
    - optionally ([verify_replay]), a second run produces a
      bit-identical response-byte digest — and, when journaling, a
      bit-identical span journal.

    Violations are returned as strings, never exceptions. *)

type corruption = {
  name : string;  (** scenario name, e.g. ["bad_magic"] *)
  code : string;  (** the typed error the server must answer with *)
  fatal : bool;
      (** a framing error: the server answers and closes the connection.
          Otherwise the error is per-frame and the connection survives. *)
  bytes : Prng.Rng.t -> string;  (** the corrupt bytes, drawn from the rng *)
}

val corruptions : corruption array
(** The eight byte-level corruption cases, in the order the trace
    generator draws them.  [repro client --hostile] sends the same
    table over a real socket. *)

type config = {
  connections : int;
  seed : int;
  n_vertices : int;
  n_labeled : int;
  hostile_rate : float;  (** fraction of connections from the hostile menu *)
  mean_gap_ms : float;   (** mean exponential inter-connect gap *)
  burst_every : int;     (** a connect burst starts every this many *)
  burst_size : int;
  io_deadline_ms : float;
  deadline_ms : float;   (** engine solve budget *)
  verify_replay : bool;
  journal : bool;
}

val default : config
(** 1200 connections, seed 42, 45% hostile, 50 ms I/O deadline. *)

type summary = {
  connections : int;
  frames_sent : int;     (** well-formed frames the script sent *)
  responses : int;       (** response frames clients read back *)
  ok_responses : int;
  error_responses : int;
  served : int;          (** engine's books at end of run *)
  degraded : int;
  frames_ok : int;       (** transport counters at end of run *)
  frames_rejected : int;
  client_gone : int;
  io_deadline_expired : int;
  overflow_shed : int;
  max_conn_buffer : int; (** deepest per-connection output buffer *)
  journal_lines : int;
  journal_digest : int64;
  digest : int64;        (** order-sensitive hash of every response byte *)
  replay_verified : bool;
  wall_ms : float;
  violations : string list;
}

val run : config -> summary

val run_full : config -> summary * Serve.Engine.t
(** Also returns the first run's engine (live journal and metrics). *)

val ok : summary -> bool
val describe : summary -> string
