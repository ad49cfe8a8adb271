(** Graph Laplacians.

    The soft criterion's penalty is [fᵀ L f] with the *unnormalized*
    Laplacian [L = D − W] (Eq. (3)); the normalized variants are provided
    for completeness. *)

type kind =
  | Unnormalized          (** L = D − W *)
  | Symmetric_normalized  (** L_sym = I − D^{−1/2} W D^{−1/2} *)
  | Random_walk           (** L_rw = I − D^{−1} W *)

val dense : ?kind:kind -> Weighted_graph.t -> Linalg.Mat.t
(** Default [Unnormalized].  The normalized kinds raise
    [Invalid_argument] when some vertex has zero degree. *)

val sparse : ?kind:kind -> Weighted_graph.t -> Sparse.Csr.t
(** Same, in CSR form (built from the graph's sparse storage when
    available, else from the dense one). *)

val quadratic_energy : Weighted_graph.t -> Linalg.Vec.t -> float
(** [Σ_ij w_ij (f_i − f_j)²] — the paper's smoothness functional,
    computed edgewise (equals [2 fᵀLf]).  Raises [Invalid_argument] on
    length mismatch. *)

val operator : lambda:float -> n_labeled:int -> Weighted_graph.t -> Sparse.Linop.t
(** The matrix-free soft-criterion operator [V + λL] where [V] projects on
    the first [n_labeled] coordinates (Eq. (3)); avoids materialising the
    (n+m)² matrix.  Raises [Invalid_argument] when [lambda < 0] or
    [n_labeled] out of range. *)
