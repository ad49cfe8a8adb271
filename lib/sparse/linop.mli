(** Abstract linear operators.

    The iterative solvers ({!Cg}, {!Stationary}) only need a
    matrix–vector product, so they accept any [t].  Constructors are
    provided for dense matrices, CSR matrices, and matrix-free closures —
    the latter lets the soft-criterion solver apply [V + λL] without ever
    materialising it. *)

type t = {
  dim : int;  (** operator is [dim]×[dim] *)
  apply : Linalg.Vec.t -> Linalg.Vec.t -> unit;
      (** [apply x y] writes [A x] into [y].  It writes every entry of
          [y], reads nothing of [y] first, and leaves [x] unchanged;
          callers never pass a [y] that aliases [x].  So a solver can
          reuse one output buffer for every application. *)
  diag : unit -> Linalg.Vec.t;  (** the diagonal of A, for preconditioning *)
}

val of_dense : Linalg.Mat.t -> t
(** Applied through {!Linalg.Mat.mv_into}.  Raises [Invalid_argument]
    if the matrix is not square. *)

val of_csr : Csr.t -> t
(** Applied through {!Csr.mv_into}.  Raises [Invalid_argument] if the
    matrix is not square. *)

val of_fun :
  dim:int ->
  diag:(unit -> Linalg.Vec.t) ->
  (Linalg.Vec.t -> Linalg.Vec.t -> unit) ->
  t
(** [of_fun ~dim ~diag apply]: [apply] must keep the contract of the
    [apply] field. *)
