(** Cholesky decomposition of symmetric positive-definite matrices.

    The hard-criterion system matrix [D₂₂ − W₂₂] and the soft-criterion
    matrix [V + λL] (for connected graphs, λ > 0) are SPD, so this is the
    preferred direct solver in the reproduction. *)

exception Not_positive_definite of int
(** Raised (with the failing column) when a non-positive pivot is met. *)

val factor : Mat.t -> Mat.t
(** [factor a] returns the lower-triangular [l] with [a = l lᵀ].
    Raises [Invalid_argument] if [a] is not square,
    [Not_positive_definite] if it is not SPD.  Only the lower triangle of
    [a] is read, so strictly the symmetrisation [(a + aᵀ)/2] is factored. *)

val solve_factored : Mat.t -> Vec.t -> Vec.t
(** [solve_factored l b] solves [l lᵀ x = b]. *)

val solve_factored_into : Mat.t -> Vec.t -> Vec.t -> unit
(** [solve_factored_into l b x] writes [solve_factored l b] into [x]
    (same bits, same counters) without allocating; [x] may be [b]
    itself.  Raises [Invalid_argument] on a length mismatch. *)

val solve : Mat.t -> Vec.t -> Vec.t
(** [solve a b] factors and solves [a x = b]. *)

val solve_many : Mat.t -> Mat.t -> Mat.t
(** Multi-RHS solve with one factorization. *)

val inverse : Mat.t -> Mat.t

val log_det : Mat.t -> float
(** Log-determinant of an SPD matrix (numerically stable). *)

val is_spd : Mat.t -> bool
(** True when symmetric (within 1e-8) and the factorization succeeds. *)
