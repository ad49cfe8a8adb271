(** Scalable sparse-graph path for the hard criterion.

    {!Hard.solve} materialises a dense m×m system even when the graph is
    a sparse kNN/ε graph; this module assembles the system directly in
    CSR form and solves it with (preconditioned) CG, so cost scales with
    the number of edges instead of m².  Intended for problems built from
    {!Kernel.Similarity.knn} / {!Kernel.Similarity.epsilon} graphs. *)

val system_csr : Problem.t -> Sparse.Csr.t * Linalg.Vec.t
(** The m×m CSR system matrix [D₂₂ − W₂₂] and the right-hand side
    [W₂₁ Y]: {!system_lap} with its diagonal stored. *)

val system_lap : Problem.t -> Sparse.Csr.t * Linalg.Vec.t * Linalg.Vec.t
(** The same system in fused form [(W₂₂, deg', W₂₁ Y)] with
    [deg'_v = d_v − w_vv]: the matrix [diag(deg') − W₂₂] is what
    {!system_csr} assembles, but here it stays implicit so the solvers
    can stream it through {!Sparse.Csr.lap_mv} /
    {!Sparse.Stationary.solve_lap} in one pass per application. *)

val solve_hard :
  ?tol:float ->
  ?max_iter:int ->
  ?precond:[ `Jacobi | `Multigrid ] ->
  ?should_stop:(unit -> bool) ->
  ?unanchored:[ `Raise | `Impute ] ->
  Problem.t ->
  Linalg.Vec.t
(** Hard-criterion scores on the unlabeled block via CG on the fused
    system ([tol] default 1e-10).  Raises [Failure] like
    {!Sparse.Cg.solve_exn} when CG does not converge.

    [precond] selects the CG preconditioner: [`Jacobi] (default, the
    operator diagonal) or [`Multigrid] — a symmetric V-cycle over a
    heavy-edge coarsening hierarchy ({!Sparse.Multigrid}), built once
    per call and plugged into [Cg.solve ~precond_apply], so the
    cooperative-abort hook ([should_stop], how per-request deadlines
    reach a running solve) and the [cg.solve] trace spans behave
    identically under both preconditioners.

    [unanchored] selects the policy for unlabeled components carrying
    no label: [`Raise] (default) raises {!Hard.Unanchored_unlabeled}
    like {!Hard.solve}; [`Impute] solves {!System.restrict} of the
    system to the anchored vertices (unanchored components share no
    edges with them, so the restriction is exact) and fills unanchored
    vertices with the labeled mean —
    the hard criterion's degenerate limit for such components
    (Prop II.2).  Imputed vertices are counted on
    [gssl.scalable_imputed]; multigrid solves on
    [gssl.scalable_mg_solves]. *)

val solve_stationary :
  ?tol:float -> ?max_iter:int -> Sparse.Stationary.method_ -> Problem.t -> Linalg.Vec.t
(** Same system solved by a stationary iteration (Jacobi = classic label
    propagation, Gauss–Seidel, SOR) on the CSR matrix. *)
