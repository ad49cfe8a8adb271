(** Kernel (similarity) functions.

    A kernel here is a nonnegative function [K : ℝᵈ → ℝ] evaluated at
    [(x − y)/h]; the similarity between inputs is [w(x,y) = K((x−y)/h)].
    Theorem II.1 requires the Devroye–Wagner conditions:

    (i)   K bounded by some k* < ∞;
    (ii)  K has compact support;
    (iii) K ≥ β·1_B for a closed ball B of radius δ > 0 around the origin.

    The plain Gaussian RBF — which the paper itself uses in Section V —
    violates (ii); [Truncated_rbf] is the compactly-supported variant that
    satisfies all three.  All built-in kernels are radial, so they are
    represented by their profile [k(r)] with [K(u) = k(‖u‖)]. *)

type t =
  | Rbf                       (** exp(−r²); the paper's §V choice (support ℝᵈ) *)
  | Truncated_rbf of float    (** exp(−r²) for r ≤ c, else 0 — satisfies (i)–(iii) *)
  | Box                       (** 1 for r ≤ 1, else 0 *)
  | Epanechnikov              (** (1 − r²)₊ *)
  | Triangular                (** (1 − r)₊ *)
  | Tricube                   (** (1 − r³)₊³ *)

val profile : t -> float -> float
(** [profile k r] evaluates the radial profile at [r ≥ 0].  Raises
    [Invalid_argument] on negative [r]. *)

val eval : t -> bandwidth:float -> Linalg.Vec.t -> Linalg.Vec.t -> float
(** [eval k ~bandwidth x y] = profile at [‖x − y‖ / bandwidth].  Raises
    [Invalid_argument] if [bandwidth <= 0] or dimensions mismatch. *)

val eval_sq_dist : t -> bandwidth:float -> float -> float
(** Same but from a precomputed squared distance — lets the similarity
    builder avoid recomputing norms. *)

val eval_sq_dist_inplace : t -> bandwidth:float -> float array -> unit
(** [eval_sq_dist_inplace k ~bandwidth a] replaces every squared
    distance [a.(i)] by [eval_sq_dist k ~bandwidth a.(i)], bit for bit,
    in one loop over [a]; the RBF cases allocate nothing.  It is how
    {!Similarity.dense} turns its distance matrix into weights without a
    second matrix.  Raises [Invalid_argument] if [bandwidth <= 0]. *)

val upper_bound : t -> float
(** The constant k* of condition (i). *)

val support_radius : t -> float option
(** [Some c] when K vanishes outside radius [c] (condition (ii));
    [None] for the plain RBF. *)

val lower_bound_on_ball : t -> float * float
(** [(beta, delta)] witnessing condition (iii): [K ≥ beta] on the ball of
    radius [delta]. *)

val satisfies_devroye_wagner : t -> bool
(** True when conditions (i)–(iii) all hold. *)

val name : t -> string
