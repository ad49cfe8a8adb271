(** The seeded chaos harness.

    One harness drives the serve engine on a virtual clock for both
    kinds of chaos traffic: the request soak below ({!run}) and the
    byte-level hostile-client soak ([Net.Hostile]).  It owns the parts
    they share:

    - the seeded arrival schedule ({!schedule}): exponential gaps
      punctuated by near-simultaneous bursts that overflow the admission
      queue;
    - the shuffled pool of unlabeled vertices that relabels draw from
      ({!relabel_pool});
    - the replay verifier ({!replay}): each run builds a fresh engine on
      a virtual clock (with a span journal when asked) and runs the
      caller's script on it; a second run must reproduce the response
      digest and the journal digest bit for bit;
    - the observability check, run by {!replay} on the first run: the
      SLO tracker, the journal's line count and aggregate, its p50/p99
      and its schema all reconcile exactly with the engine's own books.

    The request soak generates a seeded multi-thousand-request trace —
    clean queries, Sherman–Morrison relabels (a slice with NaN labels),
    and faulted queries drawing from the {!Robust.Fault} menu (latency
    stalls, CG starvation caps, NaN weight poison, label flips) — and
    checks the serving invariants on top:

    - zero dropped requests (exactly one response per request);
    - every [Served] response carries a {e healthy} certificate; every
      other response is explicitly [Degraded] or [Shed];
    - the queue backlog never exceeds its capacity (saturation sheds);
    - at least one request is actually served.

    Violations are returned as strings, not exceptions — the harness
    always completes and reports. *)

(** {1 Shared machinery} *)

val schedule :
  Prng.Rng.t ->
  count:int ->
  mean_gap_ms:float ->
  burst_every:int ->
  burst_size:int ->
  (int -> float -> 'a) ->
  'a list
(** [schedule rng ~count ~mean_gap_ms ~burst_every ~burst_size make]
    builds [count] items in order: item [i] arrives 0.02 ms after item
    [i - 1] inside a burst (the first [burst_size] positions of every
    [burst_every]-long block after the first; [burst_every <= 0] means
    no bursts) and an exponential gap of mean [mean_gap_ms] later
    otherwise.  [make i arrival_ms] builds the item and may draw from
    [rng] itself; its draws follow the item's gap draw. *)

type relabel_pool

val relabel_pool : Prng.Rng.t -> Gssl.Problem.t -> relabel_pool
(** The problem's unlabeled vertices in an order shuffled by [rng].  At
    most [m - 8] of the [m] are handed out, so relabels never exhaust
    the unlabeled block. *)

val relabels_left : relabel_pool -> bool

val take_relabel : relabel_pool -> int
(** The next vertex to relabel.  Raises [Invalid_argument] when
    [relabels_left] is false. *)

type 'a replayed = {
  engine : Engine.t;
      (** the first run's engine: journal, SLO tracker and metrics live *)
  result : 'a;           (** the first run's script result *)
  digest : int64;        (** the first run's response digest *)
  journal_lines : int;   (** 0 without a journal *)
  journal_digest : int64;  (** 0L without a journal *)
  replay_verified : bool;
      (** no second run was asked for, or it reproduced both digests *)
  wall_ms : float;       (** real time the runs and checks took *)
  violations : string list;
      (** observability violations of the first run, then one line per
          digest the second run moved *)
}

val replay :
  verify_replay:bool ->
  journal:bool ->
  Engine.config ->
  Gssl.Problem.t ->
  (Clock.t -> Engine.t -> 'a * int64) ->
  'a replayed
(** [replay ~verify_replay ~journal config problem script] builds an
    engine for [problem] on a fresh virtual clock, with a journal when
    [journal], and runs [script clock engine], which returns its result
    and its response digest.  With [verify_replay] it does so twice and
    compares both the response digest and the journal digest. *)

(** {1 The request soak} *)

type config = {
  requests : int;
  seed : int;
  n_vertices : int;
  n_labeled : int;
  queue_capacity : int;
  deadline_ms : float;
  mean_gap_ms : float;      (** mean exponential inter-arrival gap *)
  burst_every : int;        (** a burst starts every this many requests *)
  burst_size : int;         (** near-simultaneous arrivals per burst *)
  fault_rate : float;       (** fraction of queries carrying faults *)
  relabel_rate : float;     (** fraction of requests that are relabels *)
  verify_replay : bool;     (** run twice, require digest equality *)
  journal : bool;           (** record a per-request span journal *)
}

val default : config
(** 5000 requests, seed 42, an 80-vertex two-cluster sparse problem,
    capacity 16, 25 ms budgets, 18% fault rate. *)

type summary = {
  requests : int;
  responses : int;
  dropped : int;
  stats : Engine.stats;  (** the engine's books at the end of the run *)
  p50_ms : float;  (** virtual-clock latency percentiles *)
  p99_ms : float;
  max_ms : float;
  slo : Obs.Slo.snapshot;  (** the engine's SLO tracker at end of run *)
  journal_lines : int;     (** 0 when journaling is off *)
  journal_digest : int64;  (** 0L when journaling is off *)
  digest : int64;  (** order-sensitive hash of every per-request outcome *)
  replay_verified : bool;
      (** response digest AND (when journaling) journal digest matched *)
  wall_ms : float;  (** real time the replay took *)
  violations : string list;  (** empty iff all invariants hold *)
}

val problem :
  seed:int -> n_vertices:int -> n_labeled:int -> Gssl.Problem.t
(** The synthetic two-cluster sparse problem the soaks serve (exposed
    for tests).  Raises [Invalid_argument] on degenerate sizes. *)

val gen_trace : config -> Gssl.Problem.t -> Engine.request list
val digest_of : Engine.response list -> int64

val engine_config : config -> Engine.config
(** The engine configuration a soak run uses — exposed so dashboards
    ([repro top]) can drive the same engine incrementally. *)

val run : config -> summary

val run_full : config -> summary * Engine.t
(** Like {!run} but also returns the first run's engine, whose journal,
    SLO tracker, and metrics snapshot are still live. *)

val ok : summary -> bool
(** No violations and nothing dropped. *)

val describe : summary -> string
