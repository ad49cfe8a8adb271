(** Symmetric V-cycle multigrid preconditioner for CG.

    Built on a {!Coarsen} heavy-edge hierarchy of the operator
    [A = diag(diag) − W].  One {!precondition} application runs a
    single V-cycle: one weighted-Jacobi pre-smoothing sweep (damping
    2/3) from a zero initial guess, which needs no product with [A],
    recursive coarse-grid correction through the aggregation transfer
    operators, a direct dense Cholesky solve at the coarsest level
    (ridge retry for singular pure-Laplacian tails; 8 Jacobi sweeps
    when factorization fails or the coarsest level is too large for a
    dense factor), and one post-smoothing sweep: two products with each
    level's operator per cycle.

    Because pre- and post-smoothing counts are equal, the smoother is
    symmetric, and the coarse solve is symmetric, the V-cycle realises
    a {e fixed symmetric positive-definite} operator — a valid
    [Cg.solve ~precond_apply] preconditioner, so preconditioned CG
    keeps its convergence theory, its cooperative-abort hook, and its
    [cg.solve] trace spans. *)

type t
(** The hierarchy, the coarse factorization and one set of per-level
    work vectors.  A [t] therefore serves one {!precondition_into} call
    at a time: share it between concurrent solves and the calls
    overwrite each other's buffers.  Each solve builds its own. *)

val build : w:Csr.t -> diag:Linalg.Vec.t -> unit -> t
(** [build ~w ~diag ()] constructs the hierarchy ({!Coarsen.build} at
    its defaults; [W] must be symmetric), the coarse factorization and
    the work vectors.  Counters: [sparse.multigrid.builds],
    [sparse.multigrid.cycles]; span: [multigrid.build]. *)

val precondition_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [precondition_into t r z] writes [z ≈ A⁻¹ r], one V-cycle — the
    [precond_apply] callback for {!Cg.solve}.  Linear and deterministic
    in [r]: it writes all of [z], leaves [r] unchanged and allocates
    nothing.  Each level's residual and post-smoothing sweep is one row
    pass ({!Csr.lap_residual_into}, {!Csr.lap_jacobi_into}).  [z] must
    not alias [r].  Raises [Invalid_argument] when [r] or [z] does not
    match the finest level or [z] is [r]. *)

val precondition : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [precondition t r] is {!precondition_into} into a fresh vector. *)

val operator : t -> Linop.t
(** The finest-level operator [A] as a matrix-free [Linop], applied via
    the fused [Csr.lap_mv] kernel. *)

val solve :
  ?x0:Linalg.Vec.t ->
  ?tol:float ->
  ?max_iter:int ->
  ?should_stop:(unit -> bool) ->
  t ->
  Linalg.Vec.t ->
  Cg.outcome
(** [solve t b] runs multigrid-preconditioned CG on [A x = b] —
    {!Cg.solve} with {!precondition_into} plugged in, so deadlines
    ([should_stop]) and trace spans behave exactly as for flat CG. *)

val depth : t -> int
val hierarchy : t -> Coarsen.t
