(** The dense squared-distance matrix behind {!Similarity.dense}.  The
    kNN graphs rank their neighbours with [Graph.Kdtree]'s exact
    (distance², index) search instead. *)

val sq_distance_matrix : Linalg.Vec.t array -> Linalg.Mat.t
(** [n]×[n] matrix of squared Euclidean distances, computed via the
    Gram-matrix identity [‖x−y‖² = ‖x‖² + ‖y‖² − 2⟨x,y⟩] (O(n²d) with a
    cache-friendly inner product).  Exact zeros on the diagonal; negative
    rounding artefacts are clamped to 0.  The loop writes the matrix's
    data directly, with the inner product summed in {!Linalg.Vec.dot}'s
    order, so the one allocation is the n×n matrix (no float is boxed
    per pair).  Raises [Invalid_argument] on empty or ragged input.  For
    [n ≥ 64] the row loop fans out over the {!Parallel.Pool} — every
    cell is computed independently, so the matrix is bit-identical to
    the serial loop for any domain count. *)
