(** Pull-style metrics exposition: a flat metric snapshot rendered to
    Prometheus text format or JSON.

    The snapshot is assembled by whoever owns the state (the serve
    engine merges its stats record, breaker/cache/queue gauges, SLO
    state, and latency histograms); this module only names, types, and
    renders it. *)

type metric =
  | Counter of { name : string; help : string; value : float }
  | Gauge of { name : string; help : string; value : float }
  | Summary of { name : string; help : string; hist : Histogram.t }

val name_of : metric -> string
val find : metric list -> string -> metric option

val sanitize : string -> string
(** Map a dotted telemetry name into the Prometheus [a-zA-Z0-9_:]
    alphabet (anything else becomes ['_']). *)

val to_prometheus : metric list -> string
(** Prometheus text format: [# HELP] / [# TYPE] headers, counter and
    gauge samples, summaries as quantile-labelled samples plus
    [_sum] / [_count]. *)

val to_json : metric list -> Telemetry.Export.json
