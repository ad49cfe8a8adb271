(** The hard criterion (Zhu, Ghahramani & Lafferty 2003) — Eq. (1)/(5).

    Minimise [Σ_ij w_ij (f_i − f_j)²] subject to [f_i = Y_i] on the
    labeled set.  On the unlabeled block the solution is

    {v f̂_U = (D₂₂ − W₂₂)⁻¹ W₂₁ Y_n }

    where [D] holds *full-graph* degrees.  The system matrix is a
    diagonally dominant, symmetric M-matrix; it is positive definite
    exactly when every connected component of the unlabeled subgraph
    touches the labeled set.  Cost: one m×m solve — the O(m³) of
    Proposition II.1's complexity remark. *)

type solver =
  | Cholesky                 (** direct SPD solve — default *)
  | Lu                       (** direct with partial pivoting *)
  | Cg of { tol : float }    (** conjugate gradient, matrix-free-ish *)

exception Unanchored_unlabeled of int
(** An unlabeled component is disconnected from all labels, so the hard
    solution is not unique; the argument is a vertex in such a component. *)

val check_anchored : Problem.t -> unit
(** Raises [Unanchored_unlabeled v] with the smallest unlabeled vertex
    [v] whose component carries no label ({!Problem.anchored_mask}). *)

val solve : ?solver:solver -> Problem.t -> Linalg.Vec.t
(** Scores on the unlabeled vertices, in graph order [n … n+m−1].
    Returns the empty vector when [m = 0].
    Raises [Unanchored_unlabeled] when the system is singular because
    some unlabeled component has no labeled neighbour, and [Failure]
    like {!Sparse.Cg.solve_exn} when the CG backend does not converge.
    For a health certificate of the answer, pass it to {!System.certify}
    with the system [{a = Dense (system_matrix p); b = rhs p}]. *)

val solve_full : ?solver:solver -> Problem.t -> Linalg.Vec.t
(** The complete score vector: the labels [Y] on [0 … n−1] (the hard
    constraint) followed by the estimated scores. *)

val system_matrix : Problem.t -> Linalg.Mat.t
(** [D₂₂ − W₂₂] — exposed for tests and the theory diagnostics.  On
    dense storage the rows of W are read off its data; both storages
    give the same bits. *)

val rhs : Problem.t -> Linalg.Vec.t
(** [W₂₁ Y] — the right-hand side matching {!system_matrix}, summed over
    the labels in vertex order (dense storage reads W's rows directly,
    with the same bits). *)

val energy : Problem.t -> Linalg.Vec.t -> float
(** The objective [Σ_ij w_ij (f_i − f_j)²] of a full score vector — the
    hard solution minimises this among all vectors agreeing with the
    labels.  Raises [Invalid_argument] on length mismatch. *)

val is_harmonic : ?tol:float -> Problem.t -> Linalg.Vec.t -> bool
(** A full score vector is harmonic when every unlabeled score equals the
    weighted average of all its neighbours' scores — the
    characterisation of the hard solution used in the toy example. *)
