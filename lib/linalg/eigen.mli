(** Eigendecomposition of symmetric matrices.

    The cyclic Jacobi rotation method gives the full spectrum of dense
    symmetric matrices — used for spectral properties of graph Laplacians
    (positive semidefiniteness, Fiedler value).  Power iteration gives the
    dominant pair cheaply. *)

type decomposition = {
  values : Vec.t;   (** eigenvalues, ascending *)
  vectors : Mat.t;  (** column [j] is the eigenvector for [values.(j)] *)
}

val jacobi : ?tol:float -> ?max_sweeps:int -> Mat.t -> decomposition
(** Full eigendecomposition of a symmetric matrix by serial cyclic-by-rows
    Jacobi rotations.  [tol] (default 1e-12) bounds the off-diagonal
    Frobenius norm at convergence; [max_sweeps] defaults to 100.
    Raises [Invalid_argument] if not square, [Failure] on non-convergence. *)

val power_iteration :
  ?tol:float -> ?max_iter:int -> Mat.t -> Vec.t -> float * Vec.t
(** [power_iteration a v0] returns the dominant (largest-|λ|) eigenpair
    starting from [v0].  Raises [Failure] on non-convergence or a zero
    start vector. *)

val eigenvalues : Mat.t -> Vec.t
(** Ascending eigenvalues of a symmetric matrix (Jacobi). *)

val spectral_radius_bound : Mat.t -> float
(** Gershgorin upper bound on the spectral radius — cheap, used to check
    convergence conditions of stationary iterations. *)

val is_positive_semidefinite : ?tol:float -> Mat.t -> bool
(** True when all eigenvalues are ≥ −[tol] (default 1e-8). *)
