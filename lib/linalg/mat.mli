(** Dense row-major matrices of floats.

    Storage is a single flat [float array] of length [rows * cols]; entry
    [(i, j)] lives at index [i * cols + j].  All indices are 0-based.
    Dimension mismatches raise [Invalid_argument]. *)

type t = { rows : int; cols : int; data : float array }

(** {1 Construction} *)

val create : int -> int -> float -> t
(** [create r c x] is the [r]×[c] matrix filled with [x].
    Raises [Invalid_argument] on negative dimensions. *)

val zeros : int -> int -> t
val ones : int -> int -> t
val eye : int -> t
(** Identity matrix. *)

val diag : Vec.t -> t
(** Square matrix with the given diagonal. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] has entry [f i j] at [(i, j)]. *)

val of_rows : Vec.t array -> t
(** Stack row vectors.  Raises [Invalid_argument] if rows have unequal
    lengths or the array is empty. *)

val of_cols : Vec.t array -> t
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val copy : t -> t

(** {1 Access} *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
(** Bounds-checked.  Raise [Invalid_argument] when out of range. *)

val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val get_diag : t -> Vec.t
val dims : t -> int * int
val is_square : t -> bool

val set_row : t -> int -> Vec.t -> unit
val set_col : t -> int -> Vec.t -> unit

(** {1 Pointwise and scalar operations} *)

val map : (float -> float) -> t -> t
val mapij : (int -> int -> float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val hadamard : t -> t -> t
val scale : float -> t -> t
val add_scaled_identity : t -> float -> t
(** [add_scaled_identity a mu] is [a + mu*I]; requires [a] square. *)

(** {1 Multiplication} *)

val mv : t -> Vec.t -> Vec.t
(** Matrix–vector product. *)

val mv_into : t -> Vec.t -> Vec.t -> unit
(** [mv_into a x y] writes [mv a x] into [y] (same bits, same counters,
    same row-panel dispatch) without allocating.  Four rows share each
    sweep over [x], each on its own accumulator; every row sums its
    columns in ascending order from [0.], so [y.(i)] has the bits of the
    one-row dot loop for any domain count, and the last
    [(rows of a chunk) mod 4] rows of each pool chunk take that loop.
    Counts one [linalg.gemv] and [2·rows·cols] [linalg.flops].  [y] must
    not alias [x].  Raises [Invalid_argument] on a length mismatch. *)

val tmv : t -> Vec.t -> Vec.t
(** [tmv a x] is [aᵀ x] without forming the transpose. *)

val mm : t -> t -> t
(** Matrix–matrix product (blocked ikj loop). *)

val transpose : t -> t

val gram : t -> t
(** [gram a] is [aᵀ a]. *)

val outer : Vec.t -> Vec.t -> t
(** [outer x y] is the rank-one matrix [x yᵀ]. *)

val quadratic_form : t -> Vec.t -> float
(** [quadratic_form a x] is [xᵀ a x]; requires [a] square. *)

(** {1 Reductions and predicates} *)

val trace : t -> float
val frobenius_norm : t -> float
val max_abs : t -> float
(** Largest absolute entry ([‖·‖_max] in the paper's proof). *)

val row_sums : t -> Vec.t
(** Each row summed in ascending column order from [0.] ({!Vec.sum}'s
    order), read in place: no row is copied. *)

val col_sums : t -> Vec.t
val is_symmetric : ?tol:float -> t -> bool
val approx_equal : ?tol:float -> t -> t -> bool

(** {1 Block operations (used for Eq. (4) / Eq. (5) of the paper)} *)

val submatrix : t -> int -> int -> int -> int -> t
(** [submatrix a i j r c] is the [r]×[c] block of [a] with top-left corner
    [(i, j)].  Raises [Invalid_argument] when out of range. *)

val blit : src:t -> dst:t -> int -> int -> unit
(** [blit ~src ~dst i j] copies [src] into [dst] at top-left corner
    [(i, j)]. *)

val hcat : t -> t -> t
val vcat : t -> t -> t

val split4 : t -> int -> t * t * t * t
(** [split4 a k] partitions a square matrix into 2×2 blocks
    [(a11, a12, a21, a22)] where [a11] is [k]×[k]. *)

val assemble4 : t -> t -> t -> t -> t
(** Inverse of [split4]: assemble a 2×2 block matrix. *)

(** {1 Display} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
