(* Pull-style metrics exposition.

   A snapshot is a flat list of metrics — counters, gauges, and
   histogram summaries — assembled by whoever owns the state (the serve
   engine unifies its stats record, breaker/cache/queue gauges, SLO
   snapshot, and latency histograms into one list).  Two renderers:
   Prometheus text format (metric names sanitized to the [a-zA-Z0-9_:]
   alphabet, summaries as quantile-labelled samples) and the repo's
   usual compact JSON. *)

type metric =
  | Counter of { name : string; help : string; value : float }
  | Gauge of { name : string; help : string; value : float }
  | Summary of { name : string; help : string; hist : Histogram.t }

let name_of = function
  | Counter { name; _ } | Gauge { name; _ } | Summary { name; _ } -> name

let find metrics name = List.find_opt (fun m -> name_of m = name) metrics

(* Prometheus metric names allow [a-zA-Z0-9_:]; dotted telemetry names
   become underscore-separated, anything else degrades to '_'. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_num v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus metrics =
  let buf = Buffer.create 1024 in
  let header name help kind =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun m ->
      match m with
      | Counter { name; help; value } ->
          let name = sanitize name in
          header name help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" name (prom_num value))
      | Gauge { name; help; value } ->
          let name = sanitize name in
          header name help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" name (prom_num value))
      | Summary { name; help; hist } ->
          let name = sanitize name in
          header name help "summary";
          List.iter
            (fun q ->
              Buffer.add_string buf
                (Printf.sprintf "%s{quantile=\"%s\"} %s\n" name
                   (prom_num q)
                   (prom_num (Histogram.percentile hist (q *. 100.)))))
            [ 0.5; 0.9; 0.99 ];
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" name (prom_num (Histogram.sum hist)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" name (Histogram.count hist)))
    metrics;
  Buffer.contents buf

let metric_json m =
  let open Telemetry.Export in
  match m with
  | Counter { name; help; value } ->
      Obj
        [
          ("name", Str name);
          ("type", Str "counter");
          ("help", Str help);
          ("value", Num value);
        ]
  | Gauge { name; help; value } ->
      Obj
        [
          ("name", Str name);
          ("type", Str "gauge");
          ("help", Str help);
          ("value", Num value);
        ]
  | Summary { name; help; hist } ->
      Obj
        [
          ("name", Str name);
          ("type", Str "summary");
          ("help", Str help);
          ("count", Num (float_of_int (Histogram.count hist)));
          ("p50", Num (Histogram.p50 hist));
          ("p90", Num (Histogram.p90 hist));
          ("p99", Num (Histogram.p99 hist));
          ("max", Num (Histogram.max_value hist));
        ]

let to_json metrics = Telemetry.Export.Arr (List.map metric_json metrics)
