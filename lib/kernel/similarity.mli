(** Similarity-matrix (weighted-graph) construction.

    [W = [w_ij]] with [w_ij = K((X_i − X_j)/h)] is the object the paper
    calls the similarity (kernel) matrix.  Self-similarities [w_ii] are
    K(0) — the paper's RBF gives [w_ii = 1]; they cancel in the Laplacian
    but matter for [D₂₂], so they are kept.

    Dense construction is O(n²); [knn] and [epsilon] produce sparse
    (symmetrised) graphs: [knn] for the scale path at any size, [epsilon]
    for the ablation benches. *)

val dense :
  kernel:Kernel_fn.t -> bandwidth:float -> Linalg.Vec.t array -> Linalg.Mat.t
(** Full symmetric similarity matrix: {!Pairwise.sq_distance_matrix},
    overwritten by {!Kernel_fn.eval_sq_dist_inplace}, so the build
    allocates one n×n matrix and its entries are
    [Kernel_fn.eval_sq_dist] of each distance, bit for bit.  Raises
    [Invalid_argument] on empty or ragged input, or non-positive
    bandwidth. *)

val dense_of_sq_distances :
  kernel:Kernel_fn.t -> bandwidth:float -> Linalg.Mat.t -> Linalg.Mat.t
(** Apply the kernel entrywise to a copy of a precomputed
    squared-distance matrix, which is left unchanged — used when several
    bandwidths are swept over one dataset. *)

val knn :
  kernel:Kernel_fn.t ->
  bandwidth:float ->
  k:int ->
  Linalg.Vec.t array ->
  Sparse.Csr.t
(** Mutual-or symmetrised kNN graph: [w_ij] is kept when [j] is among the
    [k] nearest of [i] *or* vice versa; the matrix is exactly symmetric.
    Diagonal entries are kept (self-similarity); an entry whose weight
    is 0 (outside a compact kernel's support) is not stored.  The
    neighbour lists are [Graph.Kdtree]'s exact ones, ranked by
    (distance², index), so tied distances go to the lower index and the
    graph is the one a full O(n²) scan would give, bit for bit.  They
    are symmetrised straight into CSR in O(n·k) memory: each row sorts,
    dedupes and weighs its own entries inside a [knn.symmetrise] span.
    A traced call splits into the [ann.build], [ann.search] and
    [knn.symmetrise] spans.  Both the search and the symmetrisation run
    on the domain pool, and the result is bit-identical for any domain
    count.  Raises [Invalid_argument] on empty input, unless
    [1 <= k < n] and [bandwidth > 0] (checked before the tree is
    built), and naming the first point with a non-finite coordinate. *)

type knn_info = Exact | Approximate of { recall : float }

val knn_approx :
  kernel:Kernel_fn.t ->
  bandwidth:float ->
  k:int ->
  ?seed:int ->
  ?trees:int ->
  ?recall_target:float ->
  Linalg.Vec.t array ->
  Sparse.Csr.t * knn_info
(** [(knn …, Exact)]: the labels of the approximate forest this library
    no longer has are accepted and ignored, and [Approximate] is never
    returned.  Kept only for the benchmark's scale workload, which
    calls it; every other caller uses {!knn}. *)

val epsilon :
  kernel:Kernel_fn.t ->
  bandwidth:float ->
  radius:float ->
  Linalg.Vec.t array ->
  Sparse.Csr.t
(** ε-neighbourhood graph: keep pairs with [‖x_i − x_j‖ ≤ radius].
    Raises [Invalid_argument] if [radius < 0]. *)
