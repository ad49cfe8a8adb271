(** The soft criterion (Delalleau–Bengio–Le Roux / Zhu–Goldberg) —
    Eq. (2)/(3)/(4).

    Minimise [Σ_{i≤n} (Y_i − f_i)² + (λ/2)·Σ_ij w_ij (f_i − f_j)²], with
    closed form [f̂ = (V + λL)⁻¹ (Y_n; 0)].  The full system is
    (n+m)×(n+m) — the O((n+m)³) of the paper's complexity remark.

    [lambda] must be strictly positive: at λ = 0 the matrix [V] is
    singular, and the paper's Proposition II.1 identifies the λ→0 limit
    with the hard criterion, so use {!Hard} (or {!Estimator}) there. *)

type method_ =
  | Full_cholesky   (** factor the (n+m) matrix [V + λL] — default *)
  | Block           (** the paper's Eq. (4): two smaller solves via the Schur complement *)
  | Cg of { tol : float }  (** matrix-free CG on [V + λL] (never materialises it) *)

val solve : ?method_:method_ -> lambda:float -> Problem.t -> Linalg.Vec.t
(** Scores on the unlabeled vertices.  Raises [Invalid_argument] when
    [lambda <= 0]; [Failure] if the system is numerically singular
    (e.g. a disconnected unlabeled component, where the soft criterion
    is also ill-posed) or the CG method does not converge. *)

val solve_full : ?method_:method_ -> lambda:float -> Problem.t -> Linalg.Vec.t
(** The complete (n+m) score vector — note the labeled scores are
    *smoothed*, not equal to the labels [Y] (that is the point
    of the soft criterion). *)

val system : lambda:float -> Problem.t -> System.t
(** The full (n+m) system [(V + λL) f = (Y; 0)] in the graph's storage:
    [Dense] for a dense graph, [Csr] (each row's diagonal
    [v_i + λ(d_i − w_ii)] and its stored off-diagonal weights [−λ w_ij])
    for a sparse one.  {!Resilient} restricts it to each component. *)

val objective : lambda:float -> Problem.t -> Linalg.Vec.t -> float
(** The loss + penalty value of a full score vector:
    [Σ_{i≤n}(Y_i − f_i)² + (λ/2)·Σ_ij w_ij (f_i − f_j)²]. *)

val lambda_infinity_limit : Problem.t -> float
(** The λ→∞ prediction on a connected graph: the mean of the labels
    [Y] — Proposition II.2's counterexample value.  Every unlabeled
    score converges to this constant as λ grows. *)
