(** Total front-end for the hard and soft criteria.

    {!Hard.solve} raises on unanchored components, {!Soft.solve} fails on
    numerically singular systems, and both silently propagate NaN from
    poisoned inputs.  This module makes the solve total: it scans the
    input ({!Robust.Check.scan}), sanitises non-finite labels and
    non-finite/negative weights, partitions the graph into connected
    components, solves each anchored component independently through the
    {!Robust.Solve} fallback chains, and fills unanchored components with
    the global labeled mean — the soft criterion's λ→∞ limit
    (Proposition II.2), i.e. the best constant prediction available when
    no label can reach a vertex.

    Every repair and degradation is reported in the returned
    {!report}: input faults and imputations as diagnostics, solver
    escalations as [Solver_fallback] diagnostics (also visible as
    [robust.fallback.*] telemetry counters). *)

type report = {
  predictions : Linalg.Vec.t;
      (** Scores on the unlabeled vertices in graph order [n … n+m−1]
          (same convention as {!Hard.solve}); always entrywise finite. *)
  diagnostics : Robust.Check.diagnostic list;
      (** Input-scan findings followed by solve-time events, in order. *)
  imputed : int array;
      (** Global vertex ids whose prediction is the labeled mean rather
          than a solver output (unanchored, or clamped non-finite). *)
  n_components : int;  (** connected components over sanitised weights *)
  n_anchored : int;    (** components containing at least one label *)
  certificates : (int * Obs.Health.t) list;
      (** One health certificate per solved component id, in solve
          order: the fallback-chain rung that produced its solution
          (e.g. ["cholesky"], ["cg"], ["dense_direct:qr"]), its residual
          recomputed against the component system, and the CG
          convergence/stagnation summary of the chain (a chain whose
          last CG attempt failed is flagged stagnated even when a later
          rung produced the answer). *)
  aborted : bool;
      (** Some component solve was cut short by [should_stop] (deadline
          expiry / cancellation): the affected predictions are best
          partial iterates, not converged answers. *)
}

val finite_mean : float array -> float
(** Mean of the finite entries — the λ→∞ constant of Proposition II.2
    and the value every imputation uses.  0 when no entry is finite. *)

val solve_hard :
  ?suspect_threshold:float ->
  ?cg_max_iter:int ->
  ?should_stop:(unit -> bool) ->
  Problem.t ->
  report
(** Hard-criterion scores.  Never raises on degenerate data: NaN/infinite
    or negative weights are treated as absent edges, non-finite labels as
    missing (excluded from the mean, their vertices still constrained by
    the remaining labels' graph structure), and unanchored vertices are
    imputed.  [suspect_threshold] enables the leave-one-out label scan
    (see {!Robust.Check.scan}); [cg_max_iter] caps each CG attempt on
    sparse graphs, forcing the chain to escalate when too small.
    Certifying each solved component costs one operator application on
    its system.  [should_stop] is threaded into every component's
    fallback chain (polled each CG iteration and at rung boundaries);
    when it fires the report comes back with [aborted = true] and
    best-effort predictions. *)

val solve_soft :
  ?suspect_threshold:float ->
  ?cg_max_iter:int ->
  ?should_stop:(unit -> bool) ->
  lambda:float ->
  Problem.t ->
  report
(** Soft-criterion scores on the unlabeled block, component-wise.
    Raises [Invalid_argument] when [lambda <= 0] — API misuse, not a
    data fault (Proposition II.1 identifies λ→0 with the hard
    criterion; use {!solve_hard}). *)
