(** Singular value decomposition by one-sided Jacobi.

    [decompose a] factors an m×n matrix (m ≥ n) as [a = u s vᵀ] with
    orthonormal-column [u] (m×n), nonnegative [s] descending, and
    orthogonal [v] (n×n).  One-sided Jacobi is slow (O(n² m) per sweep)
    but simple and accurate — adequate for the Nyström pseudo-inverse
    in [Kernel.Nystrom]. *)

type t = {
  u : Mat.t;        (** m×n, orthonormal columns *)
  s : Vec.t;        (** singular values, descending *)
  v : Mat.t;        (** n×n, orthogonal *)
}

val decompose : ?tol:float -> ?max_sweeps:int -> Mat.t -> t
(** Raises [Invalid_argument] when m < n; [Failure] if Jacobi sweeps do
    not converge ([max_sweeps] default 60, [tol] default 1e-12 relative). *)

val reconstruct : t -> Mat.t
(** [u s vᵀ] — for testing. *)

val rank : ?tol:float -> t -> int
(** Number of singular values above [tol·s₀] (default 1e-10). *)

val condition_number : t -> float
(** [s₀ / s_{n−1}]; [infinity] when singular. *)

val pseudo_inverse : ?tol:float -> t -> Mat.t
(** Moore–Penrose inverse; singular values below [tol·s₀] are treated as
    zero. *)
