(** Compressed-sparse-row matrices.

    Immutable after construction.  Within each row, column indices are
    strictly increasing: {!of_coo} sums duplicates, {!of_sorted_rows}
    rejects them. *)

type t = private {
  rows : int;
  cols : int;
  row_ptr : int array;   (** length [rows + 1] *)
  col_idx : int array;   (** length [nnz] *)
  values : float array;  (** length [nnz] *)
}

val of_coo : Coo.t -> t

val of_sorted_rows :
  rows:int ->
  cols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  t
(** [of_sorted_rows ~rows ~cols ~row_ptr ~col_idx ~values] is the CSR
    matrix whose row [i] holds [col_idx.(k), values.(k)] for
    [row_ptr.(i) <= k < row_ptr.(i + 1)], for builders that already
    emit each row sorted and without duplicates.  It validates in
    O(rows + nnz) and raises [Invalid_argument] unless [row_ptr] has
    length [rows + 1], starts at 0 and never decreases, its last entry
    equals the lengths of [col_idx] and [values], and every row's
    columns strictly increase within [0, cols).  The result takes
    ownership of the three arrays: they are stored, not copied, so the
    caller must not modify them afterwards. *)

val of_dense : ?threshold:float -> Linalg.Mat.t -> t
val to_dense : t -> Linalg.Mat.t
val dims : t -> int * int
val nnz : t -> int

val get : t -> int -> int -> float
(** Binary search within the row; 0. when absent.
    Raises [Invalid_argument] when out of bounds. *)

val mv : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Sparse matrix–vector product. *)

val mv_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [mv_into a x y] writes [mv a x] into [y] (same bits, same counters,
    same row-panel dispatch) without allocating.  [y] must not alias
    [x].  Raises [Invalid_argument] on a length mismatch. *)

val lap_mv : t -> deg:Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t
(** [lap_mv w ~deg x] is the graph-Laplacian product
    [y_i = deg_i * x_i - (W x)_i] computed in one row pass (degree
    scaling fused into the SpMV sweep, no intermediate vector).
    Bit-identical to the composed [deg.*x - mv w x]. *)

val lap_mv_into :
  t -> deg:Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [lap_mv_into w ~deg x y] writes [lap_mv w ~deg x] into [y] (same
    bits, same counters, same row-panel dispatch) without allocating.
    [y] must not alias [x].  Raises [Invalid_argument] on a length
    mismatch. *)

val lap_residual_into :
  t ->
  deg:Linalg.Vec.t ->
  b:Linalg.Vec.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t ->
  unit
(** [lap_residual_into w ~deg ~b x r] writes the residual
    [r_i = b_i - (deg_i * x_i - (W x)_i)] in one row pass, bit-identical
    to [b - lap_mv w ~deg x] and counted as one [lap_mv].  [r] must not
    alias [x].  Raises [Invalid_argument] on a length mismatch. *)

val lap_jacobi_into :
  t ->
  deg:Linalg.Vec.t ->
  step:Linalg.Vec.t ->
  b:Linalg.Vec.t ->
  Linalg.Vec.t ->
  Linalg.Vec.t ->
  unit
(** [lap_jacobi_into w ~deg ~step ~b x y] writes one Jacobi sweep on
    [(diag(deg) - W) x = b] damped per row by [step],
    [y_i = x_i + step_i * (b_i - (deg_i * x_i - (W x)_i))], in one row
    pass, bit-identical to the composed form and counted as one
    [lap_mv].  [y] must not alias [x].  Raises [Invalid_argument] on a
    length mismatch. *)

val fused_lap_mv :
  t ->
  deg:Linalg.Vec.t ->
  vdiag:Linalg.Vec.t ->
  lambda:float ->
  Linalg.Vec.t ->
  Linalg.Vec.t
(** [fused_lap_mv w ~deg ~vdiag ~lambda x] is
    [y_i = vdiag_i * x_i + lambda * (deg_i * x_i - (W x)_i)] — the soft
    criterion's [(V + lambda L) x] — in one row pass.  Bit-identical to
    composing the unfused steps. *)

val fused_lap_mv_into :
  t ->
  deg:Linalg.Vec.t ->
  vdiag:Linalg.Vec.t ->
  lambda:float ->
  Linalg.Vec.t ->
  Linalg.Vec.t ->
  unit
(** [fused_lap_mv_into w ~deg ~vdiag ~lambda x y] writes
    [fused_lap_mv w ~deg ~vdiag ~lambda x] into [y] without allocating.
    [y] must not alias [x]. *)

val tmv : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [tmv a x = aᵀ x]. *)

val transpose : t -> t
val scale : float -> t -> t
val add : t -> t -> t
val diagonal : t -> Linalg.Vec.t
val row_sums : t -> Linalg.Vec.t

val map_values : (float -> float) -> t -> t
(** Apply [f] to every stored value (structure unchanged); entries mapped
    to 0. are kept as explicit zeros. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** Iterate over the stored [(col, value)] pairs of one row. *)

val is_symmetric : ?tol:float -> t -> bool
