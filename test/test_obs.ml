(* Observability layer: numerical-health certificates, log-bucketed
   histograms, the Chrome-trace exporter, and the bench regression
   gate. *)

open Test_util
module Vec = Linalg.Vec
module Mat = Linalg.Mat
module T_registry = Telemetry.Registry
module T_span = Telemetry.Span
module Export = Telemetry.Export
module Health = Obs.Health
module Histogram = Obs.Histogram
module Chrome_trace = Obs.Chrome_trace
module Bench_compare = Obs.Bench_compare

(* run [f] with a clean, enabled registry, restoring the disabled default *)
let with_clean_registry f =
  T_registry.with_enabled (fun () ->
      T_registry.reset ();
      Fun.protect ~finally:T_registry.reset f)

(* ---------- health certificates ---------- *)

let test_health_certify_known_system () =
  (* A = diag(2, 4), x = (1, 1), b = (2, 5): residual (0, 1), norm 1. *)
  let a = Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 4. |] |] in
  let b = [| 2.; 5. |] in
  let cert =
    Health.certify ~system:"test" ~rung:"direct" ~apply:(Mat.mv a) ~b
      [| 1.; 1. |]
  in
  check_float "true residual recomputed" 1. cert.Health.true_residual;
  check_float "relative residual" (1. /. sqrt 29.) cert.Health.rel_residual;
  Alcotest.(check bool) "off solution is unhealthy" false (Health.healthy cert);
  let exact =
    Health.certify ~system:"test" ~rung:"direct" ~apply:(Mat.mv a) ~b
      [| 1.; 1.25 |]
  in
  check_float "exact solution residual" 0. exact.Health.true_residual;
  Alcotest.(check bool) "exact solution healthy" true (Health.healthy exact);
  check_raises_invalid "dimension mismatch" (fun () ->
      Health.certify ~system:"test" ~rung:"direct" ~apply:(Mat.mv a) ~b
        [| 1. |])

let test_health_stagnation_flag () =
  let conv = Health.convergence ~iterations:5 ~converged:true in
  let flat = conv ~final_residual:1e-8 ~best_residual:1e-8 in
  Alcotest.(check bool) "converged and flat: fine" false flat.Health.stagnated;
  let bounced = conv ~final_residual:1e-2 ~best_residual:1e-8 in
  Alcotest.(check bool) "final far above best: stagnated" true
    bounced.Health.stagnated;
  let gave_up =
    Health.convergence ~iterations:5 ~converged:false ~final_residual:1e-8
      ~best_residual:1e-8
  in
  Alcotest.(check bool) "not converged: stagnated" true
    gave_up.Health.stagnated

(* ---------- histograms ---------- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  List.iter
    (fun (p, expected) ->
      let v = Histogram.percentile h p in
      if abs_float (v -. expected) > 0.2 *. expected then
        Alcotest.failf "p%g: expected ~%g (20%%), got %g" p expected v)
    [ (50., 500.); (90., 900.); (99., 990.) ];
  check_float "max tracked exactly" 1000. (Histogram.max_value h);
  Alcotest.(check bool) "p100 clamped to observed max" true
    (Histogram.percentile h 100. <= 1000.);
  let z = Histogram.create () in
  Histogram.add z 0.;
  Histogram.add z (-5.);
  Histogram.add z nan;
  Alcotest.(check int) "nan ignored, non-positives counted" 2
    (Histogram.count z);
  check_float "zero-bucket percentile reports the observed min" (-5.)
    (Histogram.percentile z 50.);
  check_float "p100 is the observed max" 0. (Histogram.percentile z 100.)

let test_histogram_attaches_to_spans () =
  Histogram.attach_to_spans ();
  Histogram.attach_to_spans ();
  (* idempotent *)
  with_clean_registry (fun () ->
      T_span.with_ "obs.hist_span" (fun () -> ());
      T_span.with_ "obs.hist_span" (fun () -> ());
      (match Histogram.find "obs.hist_span" with
      | Some h ->
          Alcotest.(check int) "one record per completion (not doubled)" 2
            (Histogram.count h)
      | None -> Alcotest.fail "span histogram missing");
      Alcotest.(check bool) "quantiles exported" true
        (Export.member "obs.hist_span" (Histogram.quantiles_json ()) <> None);
      T_registry.reset ();
      Alcotest.(check bool) "reset clears the table" true
        (Histogram.find "obs.hist_span" = None))

(* Two domains recording into one named histogram at once, as CG solves
   on sweep workers do for [cg.iterations], lose no observation. *)
let test_histogram_two_domain_observe () =
  with_clean_registry (fun () ->
      let per_domain = 1_000_000 in
      let work () =
        for _ = 1 to per_domain do
          Histogram.observe "obs.race" 1.
        done
      in
      let d1 = Domain.spawn work and d2 = Domain.spawn work in
      Domain.join d1;
      Domain.join d2;
      match Histogram.find "obs.race" with
      | Some h ->
          Alcotest.(check int) "every observation counted" (2 * per_domain)
            (Histogram.count h);
          Alcotest.(check (float 0.)) "sum of every observation"
            (float_of_int (2 * per_domain)) (Histogram.sum h)
      | None -> Alcotest.fail "race histogram missing")

(* ---------- chrome trace ---------- *)

let test_chrome_trace_capture_and_validate () =
  with_clean_registry (fun () ->
      Chrome_trace.start ();
      Fun.protect ~finally:Chrome_trace.stop (fun () ->
          T_span.with_ "outer\"q" (fun () ->
              T_span.with_ "inner\\\xc3\xa9" (fun () -> ()));
          Alcotest.(check int) "two span events captured" 2
            (Chrome_trace.n_events ());
          let rendered = Chrome_trace.to_json () in
          String.iter
            (fun c ->
              if Char.code c >= 0x80 then
                Alcotest.fail "trace JSON must be pure ASCII")
            rendered;
          (match Chrome_trace.validate (Export.parse rendered) with
          | Ok k -> Alcotest.(check int) "validates, both events" 2 k
          | Error m -> Alcotest.failf "trace invalid: %s" m);
          let names =
            List.map
              (fun (e : Chrome_trace.event) -> e.Chrome_trace.name)
              (Chrome_trace.events ())
          in
          Alcotest.(check bool) "nested span kept its full path" true
            (List.mem "outer\"q/inner\\\xc3\xa9" names)))

let test_chrome_trace_validate_rejects () =
  let reject what json =
    match Chrome_trace.validate json with
    | Ok _ -> Alcotest.failf "%s must not validate" what
    | Error _ -> ()
  in
  reject "non-object" (Export.Arr []);
  reject "empty trace" (Export.Obj [ ("traceEvents", Export.Arr []) ]);
  reject "wrong phase"
    (Export.Obj
       [
         ( "traceEvents",
           Export.Arr
             [
               Export.Obj
                 [
                   ("name", Export.Str "x"); ("ph", Export.Str "B");
                   ("ts", Export.Num 0.); ("dur", Export.Num 1.);
                 ];
             ] );
       ]);
  reject "missing dur"
    (Export.Obj
       [
         ( "traceEvents",
           Export.Arr
             [
               Export.Obj
                 [
                   ("name", Export.Str "x"); ("ph", Export.Str "X");
                   ("ts", Export.Num 0.);
                 ];
             ] );
       ]);
  (* [0, 10) and [5, 15) overlap without nesting: invalid on one track,
     fine on two *)
  let two tid_b =
    Export.Obj
      [
        ( "traceEvents",
          Export.Arr
            (List.map
               (fun (ts, tid) ->
                 Export.Obj
                   [
                     ("name", Export.Str "x"); ("ph", Export.Str "X");
                     ("ts", Export.Num ts); ("dur", Export.Num 10.);
                     ("pid", Export.Num 1.); ("tid", Export.Num tid);
                   ])
               [ (0., 1.); (5., tid_b) ]) );
      ]
  in
  reject "overlap on one track" (two 1.);
  match Chrome_trace.validate (two 2.) with
  | Ok k -> Alcotest.(check int) "the same events on two tracks" 2 k
  | Error m -> Alcotest.failf "two tracks rejected: %s" m

(* Spans of two domains that overlap in time without nesting — one
   domain's span opens while the other's is open, and closes after it —
   land on two tracks, and the capture validates. *)
let test_chrome_trace_track_per_domain () =
  with_clean_registry (fun () ->
      Chrome_trace.start ();
      Fun.protect ~finally:Chrome_trace.stop (fun () ->
          let opened = Atomic.make false and closed = Atomic.make false in
          let wait flag =
            while not (Atomic.get flag) do
              Domain.cpu_relax ()
            done
          in
          let worker =
            T_span.with_ "main" (fun () ->
                let d =
                  Domain.spawn (fun () ->
                      T_span.with_ "worker" (fun () ->
                          Atomic.set opened true;
                          wait closed))
                in
                wait opened;
                d)
          in
          Atomic.set closed true;
          Domain.join worker;
          let tids =
            List.sort_uniq compare
              (List.map
                 (fun (e : Chrome_trace.event) -> e.tid)
                 (Chrome_trace.events ()))
          in
          Alcotest.(check int) "one track per domain" 2 (List.length tids);
          match Chrome_trace.validate (Export.parse (Chrome_trace.to_json ())) with
          | Ok k -> Alcotest.(check int) "validates" 2 k
          | Error m -> Alcotest.failf "trace invalid: %s" m))

(* ---------- bench regression gate ---------- *)

let report phases =
  Export.Obj
    [
      ( "phases",
        Export.Arr
          (List.map
             (fun (n, ms) ->
               Export.Obj
                 [ ("name", Export.Str n); ("wall_ms", Export.Num ms) ])
             phases) );
    ]

let gate ?threshold baseline current =
  Bench_compare.ok
    (Bench_compare.compare_reports ?threshold ~baseline ~current ())

let test_bench_compare_gate () =
  let base = report [ ("a", 10.); ("b", 0.01) ] in
  Alcotest.(check bool) "self-compare passes" true (gate base base);
  Alcotest.(check bool) "10x on a real phase fails" false
    (gate base (report [ ("a", 100.); ("b", 0.01) ]));
  Alcotest.(check bool) "sub-ms noise is absorbed by the floor" true
    (gate base (report [ ("a", 10.); ("b", 0.03) ]));
  Alcotest.(check bool) "baseline phase gone missing fails" false
    (gate base (report [ ("a", 10.) ]));
  Alcotest.(check bool) "current-only phase never fails" true
    (gate base (report [ ("a", 10.); ("b", 0.01); ("c", 50.) ]));
  let mild = report [ ("a", 20.); ("b", 0.01) ] in
  Alcotest.(check bool) "2x passes at the default 3x threshold" true
    (gate base mild);
  Alcotest.(check bool) "2x fails at threshold 1.5" false
    (gate ~threshold:1.5 base mild);
  (match Bench_compare.phases_of_report (Export.Obj []) with
  | exception Bench_compare.Malformed _ -> ()
  | _ -> Alcotest.fail "report without phases must raise Malformed");
  match
    Bench_compare.phases_of_report
      (report [ ("a", Float.neg_infinity) ])
  with
  | exception Bench_compare.Malformed _ -> ()
  | _ -> Alcotest.fail "non-finite wall_ms must raise Malformed"

let suite =
  ( "obs",
    [
      case "health: certify recomputes residual" test_health_certify_known_system;
      case "health: stagnation flag" test_health_stagnation_flag;
      case "histogram: percentiles within bucket error"
        test_histogram_percentiles;
      case "histogram: subscribes to spans" test_histogram_attaches_to_spans;
      case "histogram: two domains observe at once"
        test_histogram_two_domain_observe;
      case "chrome trace: capture + validate"
        test_chrome_trace_capture_and_validate;
      case "chrome trace: validate rejects malformed"
        test_chrome_trace_validate_rejects;
      case "chrome trace: one track per domain"
        test_chrome_trace_track_per_domain;
      case "bench gate: thresholds and missing phases" test_bench_compare_gate;
    ] )
