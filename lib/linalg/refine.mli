(** Condition-number estimation for dense systems.

    The similarity matrices of tightly clustered inputs make the
    hard/soft systems ill-conditioned; [repro health] prints this
    estimate after each of its showcase certificates. *)

val condition_estimate : ?iterations:int -> Mat.t -> float
(** 2-norm condition number estimate via power iteration on [aᵀa] (for
    [‖a‖₂]) and inverse iteration through an LU factorization (for
    [‖a⁻¹‖₂]); [iterations] defaults to 30.  Returns [infinity] for
    singular matrices.  Raises [Invalid_argument] if not square. *)
