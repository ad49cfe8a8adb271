(** Per-solve numerical-health certificates.

    Certificate fields:
    - [system]: which solve produced it, e.g. ["gssl.hard"].
    - [dim]: dimension of the linear system.
    - [rung]: fallback rung that produced the answer.
    - [true_residual]: ‖b − A x‖₂ {e recomputed} by re-applying the
      operator to the returned solution (never the CG recurrence value).
    - [rel_residual]: [true_residual / ‖b‖₂] (or the absolute residual
      when [b = 0]).
    - [convergence]: CG convergence-curve summary, when an iterative
      rung ran: iteration count, final vs. best residual, and a
      stagnation flag (set when the solver gave up before converging or
      finished far above its own best residual).

    A certificate is a plain value returned to the caller that asked
    for it: [Gssl.System.certify], [Gssl.Resilient]'s report, the
    serving engine's response.

    All operators are passed as [Vec.t -> Vec.t] closures so this
    module stays below [sparse]/[gssl] in the dependency order. *)

type convergence = {
  iterations : int;
  final_residual : float;
  best_residual : float;
  stagnated : bool;
}

type t = {
  system : string;
  dim : int;
  rung : string;
  true_residual : float;
  rel_residual : float;
  convergence : convergence option;
}

val convergence :
  iterations:int ->
  final_residual:float ->
  best_residual:float ->
  converged:bool ->
  convergence
(** Build a convergence summary; [stagnated] is derived (not converged,
    or final residual more than 10x the best residual reached). *)

val certify :
  system:string ->
  rung:string ->
  ?convergence:convergence ->
  apply:(Linalg.Vec.t -> Linalg.Vec.t) ->
  b:Linalg.Vec.t ->
  Linalg.Vec.t ->
  t
(** [certify ~system ~rung ~apply ~b x] recomputes the true residual of
    [x] for the system [apply ≡ A], [b].  Costs one operator
    application.  Raises [Invalid_argument] on dimension mismatch. *)

val healthy : ?rel_tol:float -> t -> bool
(** Finite residual, relative residual within [rel_tol] (default 1e-6),
    and no stagnation. *)

val describe : t -> string
(** Multi-line human-readable rendering. *)
