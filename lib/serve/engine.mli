(** The long-lived, admission-controlled request engine.

    One engine holds one problem (graph + initial labels), its warm
    factorization (one {!Gssl.Incremental.t}, built at creation), a
    circuit {!Breaker}, and a {!Clock}.  Requests flow through this lifecycle
    (DESIGN §11 has the full state machine):

    + {b Admission} — {!run_trace} replays an arrival-ordered trace
      through a single-worker FIFO queue; a request arriving while
      [queue_capacity] requests are in flight or waiting is {e shed}
      immediately (backpressure, not unbounded growth).
    + {b Chaos} — the request's {!Robust.Fault} list is injected into a
      private copy of the problem; latency stalls burn deadline budget
      before the solve starts.
    + {b Deadline} — every request carries a budget anchored at arrival;
      queue wait counts.  Expiry at any point yields a [Degraded]
      response carrying a {!Robust.Check.Deadline_expired} diagnostic —
      inside a solve, expiry aborts CG mid-iteration via the cooperative
      [should_stop] hook.
    + {b Serving} — clean queries and relabels hit the cached
      factorization (Sherman–Morrison updates, O(m²)); faulted or
      cache-miss queries make one pass down the resilient full-solve
      path's fallback chain, gated by the breaker.  The system is
      positive semidefinite, so a solve that fails its certificate is
      numerically singular and is not run again.
    + {b Degradation} — breaker open, failed certificate, or budget gone:
      the response downgrades to the cached-factorization answer (label
      propagation from the last good state) or the labeled-mean
      imputation of Prop II.2, explicitly flagged [Degraded].

    Every served response carries a freshly certified health record
    (recomputed residual — {!Obs.Health}); every response that cannot be
    certified healthy is explicitly [Degraded] or [Shed].  Nothing is
    dropped. *)

(** Virtual stand-ins for work, charged to the clock only when it is
    virtual: on the monotonic clock the work itself takes the time, so
    these are ignored there. *)
type costs = {
  solve_ms : float;    (** charged when a full solve starts *)
  cache_ms : float;    (** charged per cache-hit answer *)
  relabel_ms : float;  (** charged per Sherman–Morrison downdate *)
  poll_ms : float;
      (** charged per [should_stop] poll — the virtual stand-in for one
          CG iteration's work, which is what makes mid-solve deadline
          expiry deterministic under a virtual clock *)
}

type config = {
  queue_capacity : int;
  deadline_ms : float;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  costs : costs;
  seed : int;  (** drives per-request fault injection and trace ids *)
  slo : Obs.Slo.config;
      (** latency/quality objectives for the engine's SLO tracker *)
}

val default_config : config

type kind = Query | Relabel of { vertex : int; label : float }

type request = {
  id : int;  (** unique; also selects the request's private rng substream *)
  arrival_ms : float;
  kind : kind;
  faults : Robust.Fault.t list;  (** chaos to inject into this request *)
}

type status = Served | Degraded of string | Shed of string

type response = {
  id : int;
  trace_id : int64;
      (** the id of the request's trace ({!Obs.Trace_ctx.derive_id}
          of (config seed, request id)), so replays regenerate it *)
  status : status;
  predictions : (int * float) array;  (** [(vertex, score)] pairs *)
  certificate : Obs.Health.t option;
      (** present on every [Served] response; best-effort otherwise *)
  diagnostics : Robust.Check.diagnostic list;
  queue_ms : float;
  latency_ms : float;  (** arrival → completion, on the engine clock *)
  cache_hit : bool;
}

type stats = {
  served : int;
  degraded : int;
  shed : int;
  deadline_expired : int;
  solver_aborts : int;   (** solves cut short mid-CG by a deadline *)
  relabels : int;        (** successful Sherman–Morrison downdates *)
  max_backlog : int;     (** deepest queue observed (bounded by capacity) *)
  breaker_trips : int;
  breaker_transitions : int;  (** every breaker state change *)
  cache_hits : int;
      (** clean queries and relabels answered from the warm factorization *)
  cache_misses : int;  (** the same requests finding it cold *)
}

type t

val create :
  ?clock:Clock.t -> ?journal:Obs.Journal.t -> config -> Gssl.Problem.t -> t
(** Builds the engine and warms its factorization (an unanchorable
    problem leaves it cold; queries then take the full-solve path).
    Default clock: monotonic.  When [journal] is given, every finished
    request appends its span tree to it as one JSONL line.  Raises
    [Invalid_argument] on a non-positive queue capacity or deadline. *)

val handle : t -> request -> response
(** Serve one request immediately (no queue) — the live [gssl serve]
    path. *)

val run_trace : t -> request list -> response list
(** Replay an arrival-sorted trace through the admission queue.  Exactly
    one response per request, in order.  Raises [Invalid_argument] on a
    monotonic clock — replay semantics need virtual time. *)

val stats : t -> stats
val slo_snapshot : t -> Obs.Slo.snapshot
val journal : t -> Obs.Journal.t option

val metrics : t -> Obs.Expo.metric list
(** One-shot exposition snapshot unifying the stats record,
    breaker/cache/queue gauges, SLO state, and the latency and
    queue-wait histograms.  Render with {!Obs.Expo.to_prometheus} or
    {!Obs.Expo.to_json}. *)

val latency_histogram : t -> Obs.Histogram.t
val queue_histogram : t -> Obs.Histogram.t
val problem : t -> Gssl.Problem.t
val breaker : t -> Breaker.t
val clock : t -> Clock.t
val config : t -> config

val transport : t -> Transport.t
(** The engine's transport counters — incremented by the socket
    front-end ([lib/net]) and folded into {!metrics} as
    [serve.transport.*]. *)

val status_name : status -> string
