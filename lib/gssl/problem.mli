(** A transductive semi-supervised problem instance.

    Following the paper's convention, the first [n] vertices of the
    similarity graph carry observed responses [Y_1 … Y_n]; the remaining
    [m] vertices are the unlabeled data whose scores are to be estimated.
    Binary classification uses responses in {0, 1}; regression uses
    arbitrary bounded reals — the solvers are identical. *)

type t = private {
  graph : Graph.Weighted_graph.t;  (** similarity graph on all n+m points *)
  labels : Linalg.Vec.t;           (** responses of the first [n] vertices *)
}

val make : graph:Graph.Weighted_graph.t -> labels:Linalg.Vec.t -> t
(** Raises [Invalid_argument] when there are more labels than vertices,
    no labels at all, or any label is NaN/infinite (a single non-finite
    response would otherwise propagate into every prediction).
    [m = 0] (no unlabeled data) is allowed. *)

val make_unchecked : graph:Graph.Weighted_graph.t -> labels:Linalg.Vec.t -> t
(** Like {!make} but skips the label-finiteness check.  Intended for the
    fault-injection harness and {!Resilient}, which accept degenerate
    inputs on purpose; counting invariants are still enforced. *)

val of_points :
  kernel:Kernel.Kernel_fn.t ->
  bandwidth:Kernel.Bandwidth.t ->
  labeled:(Linalg.Vec.t * float) array ->
  unlabeled:Linalg.Vec.t array ->
  t
(** Build the dense similarity graph from raw inputs.  The bandwidth rule
    is evaluated on the pooled inputs.  Raises [Invalid_argument] on
    empty labeled data or ragged dimensions. *)

val n_labeled : t -> int
val n_unlabeled : t -> int
val size : t -> int
(** [n + m]. *)

val labeled_indices : t -> int array
val unlabeled_indices : t -> int array

val blocks : t -> Linalg.Mat.t * Linalg.Mat.t * Linalg.Mat.t * Linalg.Mat.t
(** [(w11, w12, w21, w22)] — the 2×2 partition of the dense weight matrix
    at the labeled/unlabeled boundary, as in Section II of the paper. *)

val degrees : t -> Linalg.Vec.t
(** Full-graph degrees [d_i = Σ_{k=1}^{n+m} w_ik]. *)

val is_connected : t -> bool

val anchored_mask : t -> bool array
(** For each unlabeled vertex [a] (graph vertex [n + a]), whether its
    connected component carries at least one label.  An unanchored
    vertex makes the hard system singular. *)

val unlabeled_coupling : t -> Linalg.Vec.t
(** For each unlabeled vertex [a], the mass [Σ_{i ≤ n} w_{n+a,i}] linking
    it to the labeled set.  A zero entry means the hard criterion cannot
    see any label from that vertex (the system may be singular). *)
