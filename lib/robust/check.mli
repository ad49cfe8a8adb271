(** Structured input validation for solver problems.

    Production inputs arrive with NaN weights from broken feature
    pipelines, negative similarities from buggy kernels, and labels that
    never touch some graph component.  Instead of letting each solver
    discover these conditions by raising (or worse, by silently
    propagating NaN into every prediction), {!scan} reports them as a
    structured [diagnostic list] that callers can log, export, or act
    on.  The resilient front-end ({!Gssl.Resilient}) consumes the same
    vocabulary to explain what it repaired and where it degraded. *)

type diagnostic =
  | Non_finite_weight of { i : int; j : int }
      (** [w_ij] is NaN or infinite. *)
  | Negative_weight of { i : int; j : int; value : float }
      (** [w_ij < 0] — not a similarity. *)
  | Self_loop of { vertex : int; weight : float }
      (** [w_ii > 0].  Common (RBF similarity has [w_ii = 1]) and
          harmless to the solvers, hence severity [Info]. *)
  | Non_finite_label of { index : int }
      (** Observed response is NaN or infinite. *)
  | Suspect_label of { index : int; value : float; loo_estimate : float }
      (** The label disagrees with its leave-one-out neighbourhood
          estimate by more than the scan threshold — a likely flip. *)
  | Unanchored_vertex of { vertex : int }
      (** Unlabeled vertex whose connected component (over finite,
          positive weights) contains no label: the hard criterion is
          singular there. *)
  | Solver_fallback of { system : string; abandoned : string; reason : string }
      (** A solve-time event: rung [abandoned] of a fallback chain was
          given up for [reason] while solving [system]. *)
  | Imputed_prediction of { vertex : int; value : float }
      (** The resilient front-end substituted [value] (the global
          labeled mean) for this vertex's prediction. *)
  | Deadline_expired of { elapsed_ms : float; budget_ms : float }
      (** A solve-time event: the request's deadline budget ran out
          mid-solve and the work was aborted cooperatively.  Never
          emitted by {!scan} (it is not an input property) — the serving
          layer ({!Serve.Engine}) attaches it to responses whose solve
          was cut short, and {!Robust.Fault.detects} pairs it with the
          latency-stall injector. *)

type severity = Info | Warning | Error

val severity : diagnostic -> severity
(** [Self_loop] is [Info]; [Suspect_label], [Solver_fallback] and
    [Deadline_expired] are [Warning]; everything else is [Error]. *)

val class_name : diagnostic -> string
(** Stable kebab-case class tag, e.g. ["non-finite-weight"]. *)

val describe : diagnostic -> string
(** One-line human-readable description. *)

val scan :
  ?suspect_threshold:float ->
  Graph.Weighted_graph.t ->
  Linalg.Vec.t ->
  diagnostic list
(** [scan graph labels] inspects every stored weight, every label, and
    the component structure (computed over finite positive weights, so a
    NaN or negative edge does not anchor anything).  Never raises on
    degenerate data.

    [suspect_threshold] additionally enables the leave-one-out label
    scan: labeled vertex [i] is flagged when its weighted-neighbour
    estimate differs from [y_i] by more than the threshold.  Off by
    default because it is a statistical test, not an invariant. *)
