(** Graph Laplacians.

    The soft criterion's penalty is [fᵀ L f] with the *unnormalized*
    Laplacian [L = D − W] (Eq. (3)). *)

val dense : Weighted_graph.t -> Linalg.Mat.t
(** [L = D − W] as a dense matrix. *)

val quadratic_energy : Weighted_graph.t -> Linalg.Vec.t -> float
(** [Σ_ij w_ij (f_i − f_j)²] — the paper's smoothness functional,
    computed edgewise (equals [2 fᵀLf]).  Raises [Invalid_argument] on
    length mismatch. *)

val operator : lambda:float -> n_labeled:int -> Weighted_graph.t -> Sparse.Linop.t
(** The matrix-free soft-criterion operator [V + λL] where [V] projects on
    the first [n_labeled] coordinates (Eq. (3)); avoids materialising the
    (n+m)² matrix.  Raises [Invalid_argument] when [lambda < 0] or
    [n_labeled] out of range. *)
