(** Similarity-matrix (weighted-graph) construction.

    [W = [w_ij]] with [w_ij = K((X_i − X_j)/h)] is the object the paper
    calls the similarity (kernel) matrix.  Self-similarities [w_ii] are
    K(0) — the paper's RBF gives [w_ii = 1]; they cancel in the Laplacian
    but matter for [D₂₂], so they are kept.

    Dense construction is O(n²); [knn] and [epsilon] produce sparse
    (symmetrised) graphs for the ablation benches. *)

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
    is 0 (outside a compact kernel's support) is not stored.  This is
    {!knn_approx} with no size cutoff: the neighbour lists come from
    [Graph.Ann]'s exact path, which scans every point into a bounded
    heap ranked by (distance², index), so tied distances go to the
    lower index (O(n²·(d + log k)) time).  They are symmetrised
    straight into CSR in O(n·k) memory: each row sorts, dedupes and
    weighs its own entries inside a [knn.symmetrise] span.  Both passes
    run on the domain pool.  Raises [Invalid_argument] if [k <= 0] or
    [k >= n]. *)

type knn_info =
  | Exact  (** the exact path answered ([n <= exact_cutoff]) *)
  | Approximate of {
      recall : float;  (** measured on the ANN probe sample *)
      probes : int;  (** final leaf-visit budget per query *)
      escalations : int;
      trees : int;
    }

val knn_approx :
  kernel:Kernel_fn.t ->
  bandwidth:float ->
  k:int ->
  ?seed:int ->
  ?trees:int ->
  ?recall_target:float ->
  ?exact_cutoff:int ->
  Linalg.Vec.t array ->
  Sparse.Csr.t * knn_info
(** The kNN graph from one [Graph.Ann.all_k_nearest] call: inputs at
    or below [exact_cutoff] points (Ann's default, 2048) take its exact
    path, which {!knn} always takes, and return [Exact]; larger inputs
    use its approximate neighbour lists (randomized projection trees
    with multi-probe search, escalated until the measured recall
    reaches [recall_target], default 0.9).  Both rank by (distance²,
    index) and go through the same row-wise symmetrisation, so the
    result is exactly symmetric with K(0) self-similarities on the
    diagonal, and bit-identical for any domain count.  A traced call on
    the tree path splits into the [ann.build], [ann.search] and
    [knn.symmetrise] spans.  Raises [Invalid_argument] under {!knn}'s
    conditions. *)

val epsilon :
  kernel:Kernel_fn.t ->
  bandwidth:float ->
  radius:float ->
  Linalg.Vec.t array ->
  Sparse.Csr.t
(** ε-neighbourhood graph: keep pairs with [‖x_i − x_j‖ ≤ radius].
    Raises [Invalid_argument] if [radius < 0]. *)
