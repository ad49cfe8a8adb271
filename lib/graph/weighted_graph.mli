(** Weighted undirected graphs backed by a dense or sparse similarity
    matrix.

    The paper's graph G = (V, E) has one node per input and edge weights
    [w_ij ∈ [0, 1]] from the kernel; this module wraps either
    representation behind one interface and provides degrees, which are
    what the Laplacian and the SSL solvers consume. *)

type storage = Dense of Linalg.Mat.t | Sparse of Sparse.Csr.t

type t

val of_dense : Linalg.Mat.t -> t
(** Raises [Invalid_argument] unless the matrix is square, symmetric
    (tol 1e-9) and entrywise finite and ≥ 0. *)

val of_sparse : Sparse.Csr.t -> t
(** Same validation. *)

val of_dense_unchecked : Linalg.Mat.t -> t
(** Like {!of_dense} but skips the symmetry/positivity/finiteness
    validation (squareness is still enforced).  For the fault-injection
    harness and for rebuilding already-sanitised graphs; the caller owns
    the symmetry invariant. *)

val of_sparse_unchecked : Sparse.Csr.t -> t
(** Sparse counterpart of {!of_dense_unchecked}. *)

val order : t -> int
(** Number of vertices. *)

val weight : t -> int -> int -> float
val degrees : t -> Linalg.Vec.t
(** [d_i = Σ_j w_ij] — computed once and cached. *)

val storage : t -> storage
val to_dense : t -> Linalg.Mat.t
(** Materialise the weight matrix (copying if already dense). *)

val total_weight : t -> float
(** [Σ_ij w_ij] (each undirected edge counted twice, like the paper). *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Visit every nonzero [w_ij] with [i < j] once, in ascending
    [(i, j)] order. *)

val components : ?threshold:float -> t -> int array
(** {!Connectivity.components}, which calls this.  At the default
    threshold (0) the array is computed once and cached like
    {!degrees}: every later call returns the same array, which callers
    must not modify. *)
