(** Performance-regression gate over two [bench --profile] JSON reports.

    Compares per-phase [wall_ms] using
    [ratio = (current + min_ms) / (baseline + min_ms)]: the additive
    floor (default 0.5 ms) absorbs scheduler noise on sub-millisecond
    phases, while real phases are governed by the raw ratio against the
    multiplicative [threshold] (default 3x — generous on purpose, the
    gate exists to catch order-of-magnitude slips, not 10% drift).

    A phase present in the baseline but absent from the current report
    counts as a regression; phases only present in the current report
    are listed as ["new"] and never fail. *)

type phase = { name : string; wall_ms : float }

type verdict = {
  name : string;
  baseline_ms : float option;
  current_ms : float option;
  ratio : float;
  regressed : bool;
}

exception Malformed of string

val phases_of_report : Telemetry.Export.json -> phase list
(** Extract [{name; wall_ms}] from a parsed report.
    Raises {!Malformed} when the shape is wrong. *)

val compare_reports :
  ?threshold:float ->
  ?min_ms:float ->
  baseline:Telemetry.Export.json ->
  current:Telemetry.Export.json ->
  unit ->
  verdict list
(** One verdict per baseline phase (in baseline order) followed by the
    current-only phases.  Raises {!Malformed} on bad reports and
    [Invalid_argument] on non-positive [threshold] / negative [min_ms]. *)

val ok : verdict list -> bool
val describe_verdict : verdict -> string
val to_text : ?threshold:float -> verdict list -> string

(** {2 The speedup contract}

    The profile report's [speedup] object records ratios each promised
    to stay at or above 1.0x: the factorized vs naive lambda path and
    the full-scan vs kd-tree graph build (wall time), and flat vs
    multigrid CG (iterations).  They are gated much harder than wall
    times: every entry must stay at or above the contract [floor]
    (default 0.95 — the 1.0x promise with a 5% measurement-noise
    allowance), and must not collapse below [slack] (default 0.5) times
    its committed baseline.  An entry present in the baseline but missing from the
    current report fails; new entries are gated only by the floor. *)

type speedup_verdict = {
  kernel : string;
  baseline_x : float option;
  current_x : float option;
  speedup_regressed : bool;
  reason : string;  (** "" when ok *)
}

val speedups_of_report : Telemetry.Export.json -> (string * float) list
(** The [(kernel, ratio)] pairs of the report's [speedup] object; [[]]
    when the report has none.  Raises {!Malformed} when an entry is not
    a finite non-negative number. *)

val compare_speedups :
  ?floor:float ->
  ?slack:float ->
  baseline:Telemetry.Export.json ->
  current:Telemetry.Export.json ->
  unit ->
  speedup_verdict list
(** One verdict per baseline entry (in baseline order) followed by the
    current-only entries.  Raises {!Malformed} on bad reports and
    [Invalid_argument] on a negative [floor] or [slack] outside
    [0, 1]. *)

val speedups_ok : speedup_verdict list -> bool
val describe_speedup : speedup_verdict -> string
val speedups_to_text : ?floor:float -> speedup_verdict list -> string
