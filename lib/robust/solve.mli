(** Total linear solves via fallback chains.

    Every rung failure escalates to a cheaper-assumption (more expensive
    or less accurate) method and is recorded in the returned
    [escalations] list (the abandoned rung and its failure reason, in
    order) and in a [robust.fallback.*] telemetry counter, so
    degradation is visible both to the caller and in [--profile]
    output.  Neither entry point raises on degenerate systems: the
    dense chain bottoms out in a ridge-regularised solve (zeros as the
    absolute last resort), the sparse chain bottoms out in the dense
    chain.

    Chains:
    - dense:  Cholesky → QR least-squares → ridge
    - sparse: CG → restarted Jacobi-preconditioned CG → Gauss–Seidel →
      dense direct

    The hard and soft systems are symmetric positive semidefinite, so a
    failed Cholesky means a numerically singular system, which the
    least-squares and ridge rungs are built for.

    Each rung entered leaves a ["rung.<name>"] {!Telemetry.Span.event}
    in the installed request trace, placing it on the request's own
    clock; the spans of the rung's own solver ([cg.solve],
    [stationary.solve]) follow it there.

    CG breakdown (non-SPD curvature [pᵀAp ≤ 0], reported by
    {!Sparse.Cg}) skips the restart rung: restarting cannot repair an
    indefinite system. *)

type escalation = { abandoned : string; reason : string }

type outcome = {
  solution : Linalg.Vec.t;
  rung : string;
      (** the rung that produced [solution]: ["cholesky"], ["qr"],
          ["ridge"], ["cg"], ["cg_restarted"], ["gauss_seidel"], or
          ["dense_direct:"] followed by the dense rung *)
  escalations : escalation list;  (** rungs abandoned on the way, in order *)
  cg_attempts : Sparse.Cg.outcome list;
      (** every CG outcome along the sparse chain (plain rung, then each
          restart), oldest first; empty for the dense chain.  Used to
          build [Obs.Health] convergence summaries. *)
  aborted : bool;
      (** [should_stop] fired (inside a CG iteration or at a rung
          boundary): [solution] is the best iterate available at that
          point — possibly zeros in the dense chain — not a converged
          answer. *)
}

val solve_dense :
  ?should_stop:(unit -> bool) ->
  Linalg.Mat.t ->
  Linalg.Vec.t ->
  outcome
(** [solve_dense a b] solves [a x = b], escalating on factorization
    failure or non-finite output.  [should_stop] is polled at each rung
    boundary (a factorization cannot stop mid-flight); when it fires the
    remaining rungs are skipped and the zeros last resort is returned
    with [aborted = true].  Raises [Invalid_argument] only on dimension
    mismatch — API misuse, not a data fault. *)

val solve_sparse :
  ?tol:float ->
  ?cg_max_iter:int ->
  ?should_stop:(unit -> bool) ->
  Sparse.Csr.t ->
  Linalg.Vec.t ->
  outcome
(** [solve_sparse a b] solves the CSR system [a x = b] with relative
    tolerance [tol] (default 1e-10).  [cg_max_iter] caps each CG attempt
    (the plain rung and every restart individually), modelling an
    operator-imposed iteration budget.  [should_stop] is threaded into
    every CG attempt (polled each iteration) and polled again at every
    rung boundary: a deadline can abort CG mid-solve, and an abort stops
    the escalation ladder — the outcome carries the best partial iterate
    with [aborted = true] and a [{abandoned; reason =
    "cooperative abort …"}] escalation naming where the budget ran
    out. *)
