(** The linear systems the solvers share, restricted and certified in one
    place.

    A system is a matrix [a] and a right-hand side [b]: Eq. (5)'s
    [(D₂₂ − W₂₂) f_U = W₂₁Y], assembled densely by {!Hard.system_matrix}
    / {!Hard.rhs} or sparsely by {!Scalable.system_lap}, or the soft
    criterion's [(V + λL) f = (Y; 0)] ({!Soft.system}).  Every solver
    that works on a vertex subset takes {!restrict} of such a system
    instead of assembling its own, and every health certificate comes
    from {!certify}. *)

type matrix =
  | Dense of Linalg.Mat.t
  | Csr of Sparse.Csr.t
  | Lap of { w : Sparse.Csr.t; deg : Linalg.Vec.t }
      (** [diag(deg) − w] kept implicit: the fused form
          {!Scalable.system_lap} returns *)
  | Op of Sparse.Linop.t  (** matrix-free; cannot be restricted *)

type t = { a : matrix; b : Linalg.Vec.t }

val restrict : int array -> t -> t
(** [restrict idx s] is the principal sub-system on positions [idx]
    (strictly increasing): rows and columns [idx] of [a], entries [idx]
    of [b], each value copied bit for bit.  When no nonzero couples
    [idx] to the other positions — an anchored set against unanchored
    components, or one connected component against the rest — the
    sub-system is exactly the system those positions would assemble on
    their own.  CSR rows are filtered straight into
    [Csr.of_sorted_rows], one pass each, with no COO in between.  Raises
    [Invalid_argument] on [Op], or when [idx] is not strictly increasing
    or leaves the matrix. *)

val operator : matrix -> Sparse.Linop.t
(** The matrix as an operator: [Mat.mv], [Csr.mv] or [Csr.lap_mv]. *)

val certify :
  system:string ->
  rung:string ->
  attempts:Sparse.Cg.outcome list ->
  t ->
  Linalg.Vec.t ->
  Obs.Health.t
(** The health certificate of solution [x]: its residual recomputed
    through {!operator} (one operator application) and, when CG ran,
    the summary of its [attempts] (oldest first): total iterations, the
    last attempt's final residual, the best residual any attempt
    reached.  A chain whose last attempt failed is flagged stagnated
    even when a later rung produced [x]. *)
