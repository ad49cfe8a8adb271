(** Rolling-window SLO tracker with error-budget burn rates.

    Tracks two objectives over served traffic: a latency objective
    (fraction of responses under [latency_threshold_ms] must stay at or
    above [latency_target]) and a quality objective (fraction of
    full-fidelity answers — served with a healthy certificate, neither
    degraded nor shed — must stay at or above [quality_target]).

    Burn rate is the window error rate divided by the error budget the
    target allows ([1 - target]): burn 1.0 consumes budget exactly as
    fast as the objective grants it.  Budget remaining is cumulative
    over the whole run, clamped to [0, 1]. *)

type config = {
  window : int;  (** observations in the rolling window *)
  latency_threshold_ms : float;
  latency_target : float;  (** e.g. [0.9] = 90% under threshold *)
  quality_target : float;  (** e.g. [0.6] = 60% full-fidelity *)
}

val default : config

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on a non-positive window. *)

val config : t -> config

val observe : t -> latency_ms:float -> good_quality:bool -> unit

type snapshot = {
  total : int;  (** cumulative observations *)
  window_n : int;  (** live observations in the window *)
  latency_good : int;  (** cumulative under-threshold count *)
  quality_good : int;  (** cumulative full-fidelity count *)
  latency_compliance : float;  (** window fraction; [1.] when empty *)
  quality_compliance : float;
  latency_burn : float;
  quality_burn : float;
  latency_budget : float;  (** cumulative budget remaining, in [0,1] *)
  quality_budget : float;
}

val snapshot : t -> snapshot
