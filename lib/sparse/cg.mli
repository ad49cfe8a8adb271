(** Conjugate gradient for symmetric positive-definite systems.

    The hard-criterion matrix [D₂₂ − W₂₂] and the soft-criterion matrix
    [V + λL] are SPD, so CG (optionally Jacobi-preconditioned) solves both
    without any O(n³) factorization. *)

type outcome = {
  solution : Linalg.Vec.t;
  iterations : int;
  residual_norm : float;
      (** final [‖b − A x‖₂] as estimated by the recurrence, which can
          drift from the truth in finite precision; a health certificate
          ({!Obs.Health.certify}) recomputes the true residual *)
  best_residual : float;
      (** smallest recurrence residual seen along the iteration — a final
          residual far above it flags a stagnating/oscillating solve *)
  converged : bool;
  breakdown : bool;
      (** [pᵀAp ≤ 0] (or NaN) was observed: the operator is not SPD along
          some search direction.  Distinct from running out of iterations —
          restarting cannot fix a breakdown, only a different solver can. *)
  aborted : bool;
      (** the [should_stop] callback returned [true] between iterations and
          the solve stopped early with the best iterate so far.  Distinct
          from both breakdown and plain non-convergence: the caller asked
          for the stop (deadline expiry, cancellation), so retrying with a
          fresh budget may well succeed. *)
}

val solve :
  ?x0:Linalg.Vec.t ->
  ?tol:float ->
  ?max_iter:int ->
  ?precondition:bool ->
  ?precond_apply:(Linalg.Vec.t -> Linalg.Vec.t -> unit) ->
  ?should_stop:(unit -> bool) ->
  Linop.t ->
  Linalg.Vec.t ->
  outcome
(** [solve op b] runs (preconditioned) CG on [op x = b].
    [tol] (default 1e-10) is relative to [‖b‖₂]; [max_iter] defaults to
    [10 * dim]; [precondition] (default true) enables the Jacobi
    (diagonal) preconditioner.  [precond_apply], when supplied (and
    [precondition] is true), replaces the Jacobi diagonal entirely: each
    iteration solves [M z = r] by calling [precond_apply r z], which
    must write all of [z] and leave [r] unchanged; the solver never
    passes a [z] that aliases [r].  The callback must realise a
    {e fixed symmetric positive-definite} operator (e.g. a symmetric
    multigrid V-cycle) or the PCG recurrences lose their convergence
    guarantees.

    Allocation: per solve, the solution, the Jacobi diagonal's
    inverse when it is used, and one workspace of four [dim]-vectors
    (r, z, p and A·p); iterations apply the operator ({!Linop.t}'s
    [apply] writes into the workspace) and the preconditioner in place,
    so they allocate nothing of size [dim].

    Each solve is one ["cg.solve"] {!Telemetry.Span} with a [dim]
    field, annotated with its [iterations], [converged], [aborted] and
    [residual] once it ends, so an installed request trace shows how
    the solve went.  Iteration counts of every solve are recorded in the
    ["cg.iterations"] {!Obs.Histogram} summary while telemetry is
    enabled, so preconditioner quality is observable, not just wall
    time.  [should_stop] (default [fun () -> false])
    is polled once per iteration {e before} any work for that iteration;
    returning [true] ends the solve cooperatively with [aborted = true]
    and the current iterate as [solution] — this is how per-request
    deadlines reach into a running solve.  Raises [Invalid_argument] on
    dimension mismatch. *)

val solve_exn :
  ?x0:Linalg.Vec.t ->
  ?tol:float ->
  ?max_iter:int ->
  ?precondition:bool ->
  ?precond_apply:(Linalg.Vec.t -> Linalg.Vec.t -> unit) ->
  ?should_stop:(unit -> bool) ->
  Linop.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t
(** Like {!solve} but raises [Failure] when CG fails to converge.  The
    message reports the system dimension, iteration count, final residual
    norm and ‖b‖, and distinguishes non-SPD breakdown from plain
    non-convergence. *)
