(* Observability pipeline: request traces recorded through
   Telemetry.Span and viewed through Obs.Trace_ctx, the rolling SLO
   tracker, the JSONL span journal (schema + digest + reconciling
   aggregate), the metrics exposition renderer, histogram percentile
   edge cases, and the engine/soak integration — including a two-domain
   hammer on one shared journal. *)

open Test_util
module Span = Telemetry.Span
module Trace_ctx = Obs.Trace_ctx
module Slo = Obs.Slo
module Journal = Obs.Journal
module Expo = Obs.Expo
module Histogram = Obs.Histogram
module Export = Telemetry.Export
module Clock = Serve.Clock
module Engine = Serve.Engine
module Soak = Serve.Soak

(* a deterministic millisecond clock for traces: each call advances by
   [step] *)
let ticker ?(start = 0.) ?(step = 1.) () =
  let t = ref (start -. step) in
  fun () ->
    t := !t +. step;
    !t

(* a trace whose root "request" opens at tick 0 *)
let make_trace ?(trace_id = 0xabcdL) () =
  Span.trace ~now:(ticker ()) ~id:trace_id "request"

(* ---------- traces ---------- *)

let test_trace_ids () =
  let a = Trace_ctx.derive_id ~seed:42 ~request:1 in
  let a' = Trace_ctx.derive_id ~seed:42 ~request:1 in
  let b = Trace_ctx.derive_id ~seed:42 ~request:2 in
  let c = Trace_ctx.derive_id ~seed:43 ~request:1 in
  Alcotest.(check bool) "stable" true (Int64.equal a a');
  Alcotest.(check bool) "request-distinct" false (Int64.equal a b);
  Alcotest.(check bool) "seed-distinct" false (Int64.equal a c);
  Alcotest.(check int) "hex width" 16 (String.length (Trace_ctx.id_hex a));
  Alcotest.(check string) "hex of zero" "0000000000000000"
    (Trace_ctx.id_hex 0L)

let test_span_tree_causal_order () =
  let tr = make_trace () in
  Span.with_trace tr (fun () ->
      Span.with_ "solve" (fun () -> Span.event "poke"));
  Span.close tr;
  let spans = Span.nodes tr in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  List.iteri
    (fun i (s : Span.node) ->
      Alcotest.(check int) "allocation id" i s.id;
      Alcotest.(check bool) "parent precedes" true (s.parent < i))
    spans;
  let s0 = List.nth spans 0 and s1 = List.nth spans 1 in
  let s2 = List.nth spans 2 in
  Alcotest.(check int) "root parent" (-1) s0.Span.parent;
  Alcotest.(check int) "child under root" 0 s1.Span.parent;
  Alcotest.(check int) "event under child" 1 s2.Span.parent;
  check_float "event is a point" 0. s2.Span.dur_ms;
  Alcotest.(check bool) "durations closed" true
    (List.for_all (fun (s : Span.node) -> s.dur_ms >= 0.) spans)

let test_close_span_closes_descendants () =
  let tr = make_trace () in
  let all_closed () =
    List.for_all (fun (s : Span.node) -> not (Float.is_nan s.dur_ms))
      (Span.nodes tr)
  in
  let d =
    Span.with_trace tr (fun () ->
        Span.with_ "left-open" (fun () ->
            Span.close tr;
            (* closing the root sweeps the still-open descendant *)
            Alcotest.(check bool) "descendant closed" true (all_closed ());
            Trace_ctx.digest tr))
  in
  Alcotest.(check bool) "span end after the sweep changes nothing" true
    (Int64.equal d (Trace_ctx.digest tr));
  Span.close tr ~fields:[ ("late", Span.Bool true) ];
  Alcotest.(check bool) "idempotent close" true
    (Int64.equal d (Trace_ctx.digest tr))

let test_trace_digest_sensitivity () =
  let build ?(name = "solve") () =
    let tr = make_trace () in
    Span.with_trace tr (fun () ->
        Span.with_ name ~fields:[ ("dim", Span.Int 40) ] (fun () -> ()));
    Span.close tr;
    tr
  in
  let d1 = Trace_ctx.digest (build ()) in
  let d2 = Trace_ctx.digest (build ()) in
  Alcotest.(check bool) "replay digest equal" true (Int64.equal d1 d2);
  let d3 = Trace_ctx.digest (build ~name:"solve2" ()) in
  Alcotest.(check bool) "name changes digest" false (Int64.equal d1 d3)

(* [with_trace] installs the trace only while its thunk runs: the
   recording calls before and after it reach no trace *)
let test_ambient_context () =
  Alcotest.(check int) "with_ without a trace" 7
    (Span.with_ "orphan" (fun () -> 7));
  Span.event "orphan.mark";
  Span.annotate [ ("orphan", Span.Int 0) ];
  let tr = make_trace () in
  let v =
    Span.with_trace tr (fun () ->
        Span.with_ "work" (fun () ->
            Span.annotate [ ("k", Span.Int 3) ];
            Span.event "tick";
            41 + 1))
  in
  Alcotest.(check int) "value through" 42 v;
  Span.with_ "after" (fun () -> ());
  Span.event "after.mark";
  let names = List.map (fun (s : Span.node) -> s.name) (Span.nodes tr) in
  Alcotest.(check (list string)) "only the installed spans recorded"
    [ "request"; "work"; "tick" ] names;
  match Span.nodes tr with
  | [ _; work; _ ] ->
      Alcotest.(check bool) "annotation landed" true
        (work.Span.fields = [ ("k", Span.Int 3) ])
  | _ -> Alcotest.fail "unexpected span tree"

let test_trace_json_renders () =
  let tr = make_trace () in
  Span.close tr;
  let text = Export.render (Trace_ctx.to_json tr) in
  Alcotest.(check bool) "mentions trace id" true
    (Astring.String.is_infix ~affix:(Trace_ctx.id_hex 0xabcdL) text);
  Alcotest.(check bool) "mentions span name" true
    (Astring.String.is_infix ~affix:"request" text)

(* ---------- SLO tracker ---------- *)

let slo_cfg =
  {
    Slo.window = 4;
    latency_threshold_ms = 10.;
    latency_target = 0.9;
    quality_target = 0.5;
  }

let test_slo_all_good () =
  let t = Slo.create ~config:slo_cfg () in
  for _ = 1 to 6 do
    Slo.observe t ~latency_ms:1. ~good_quality:true
  done;
  let s = Slo.snapshot t in
  Alcotest.(check int) "total cumulative" 6 s.Slo.total;
  Alcotest.(check int) "window capped" 4 s.Slo.window_n;
  Alcotest.(check int) "latency good" 6 s.Slo.latency_good;
  check_float "latency compliance" 1. s.Slo.latency_compliance;
  check_float "quality compliance" 1. s.Slo.quality_compliance;
  check_float "no latency burn" 0. s.Slo.latency_burn;
  check_float "no quality burn" 0. s.Slo.quality_burn;
  check_float "latency budget intact" 1. s.Slo.latency_budget;
  check_float "quality budget intact" 1. s.Slo.quality_budget

let test_slo_window_and_burn () =
  let t = Slo.create ~config:slo_cfg () in
  (* two slow, two fast: window error rate 0.5 against a 0.1 budget *)
  Slo.observe t ~latency_ms:50. ~good_quality:false;
  Slo.observe t ~latency_ms:50. ~good_quality:false;
  Slo.observe t ~latency_ms:1. ~good_quality:true;
  Slo.observe t ~latency_ms:1. ~good_quality:true;
  let s = Slo.snapshot t in
  check_float "latency compliance" 0.5 s.Slo.latency_compliance;
  check_float "latency burn = err / (1 - target)" 5. s.Slo.latency_burn;
  check_float "quality burn = err / (1 - target)" 1. s.Slo.quality_burn;
  (* four more fast observations roll the slow ones out of the window
     but not out of the cumulative budget *)
  for _ = 1 to 4 do
    Slo.observe t ~latency_ms:1. ~good_quality:true
  done;
  let s = Slo.snapshot t in
  check_float "window forgets" 1. s.Slo.latency_compliance;
  check_float "burn recovers" 0. s.Slo.latency_burn;
  Alcotest.(check int) "cumulative total" 8 s.Slo.total;
  Alcotest.(check int) "cumulative latency good" 6 s.Slo.latency_good;
  (* budget: 2 errors vs 0.1 * 8 = 0.8 allowed -> exhausted (clamped) *)
  check_float "latency budget exhausted" 0. s.Slo.latency_budget

let test_slo_rejects_bad_window () =
  match Slo.create ~config:{ slo_cfg with Slo.window = 0 } () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window 0 accepted"

(* ---------- journal ---------- *)

let record_one ?(request = 1) ?(status = "served") ?(latency_ms = 5.) j =
  let tr =
    Span.trace ~now:(ticker ())
      ~id:(Trace_ctx.derive_id ~seed:42 ~request)
      "request"
  in
  Span.with_trace tr (fun () -> Span.with_ "solve" (fun () -> ()));
  Span.close tr;
  Journal.record j ~request ~status ~latency_ms ~queue_ms:0.5 ~cache_hit:false
    tr

let test_journal_roundtrip () =
  let j = Journal.create () in
  record_one j ~request:1 ~status:"served" ~latency_ms:2.;
  record_one j ~request:2 ~status:"degraded" ~latency_ms:30.;
  record_one j ~request:3 ~status:"shed" ~latency_ms:0.;
  Alcotest.(check int) "length" 3 (Journal.length j);
  Alcotest.(check int) "lines" 3 (List.length (Journal.lines j));
  (match Journal.validate_text (Journal.to_text j) with
  | Ok n -> Alcotest.(check int) "all lines schema-valid" 3 n
  | Error e -> Alcotest.fail ("journal invalid: " ^ e));
  let a = Journal.aggregate j in
  Alcotest.(check int) "requests" 3 a.Journal.requests;
  Alcotest.(check int) "served" 1 a.Journal.served;
  Alcotest.(check int) "degraded" 1 a.Journal.degraded;
  Alcotest.(check int) "shed" 1 a.Journal.shed;
  check_float "max latency" 30. a.Journal.latency_max;
  (* the text-parsed aggregate reproduces the live one exactly *)
  let b = Journal.aggregate_of_text (Journal.to_text j) in
  Alcotest.(check int) "reparsed requests" a.Journal.requests
    b.Journal.requests;
  check_float "reparsed p50" a.Journal.latency_p50 b.Journal.latency_p50;
  check_float "reparsed p99" a.Journal.latency_p99 b.Journal.latency_p99

let test_journal_digest_deterministic () =
  let build () =
    let j = Journal.create () in
    record_one j ~request:1;
    record_one j ~request:2;
    j
  in
  let d1 = Journal.digest (build ()) in
  let d2 = Journal.digest (build ()) in
  Alcotest.(check bool) "replay digest equal" true (Int64.equal d1 d2);
  let j3 = Journal.create () in
  record_one j3 ~request:1;
  record_one j3 ~request:2 ~status:"degraded";
  Alcotest.(check bool) "content changes digest" false
    (Int64.equal d1 (Journal.digest j3))

let test_journal_rejects_malformed_lines () =
  let reject label line =
    match Journal.validate_line line with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (label ^ ": accepted")
  in
  reject "not json" "not json at all";
  reject "missing fields" {|{"trace":"00000000000000aa"}|};
  (* steal a valid line and break one field at a time *)
  let j = Journal.create () in
  record_one j;
  let line = List.hd (Journal.lines j) in
  (match Journal.validate_line line with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("valid line rejected: " ^ e));
  let mangle a b =
    match Astring.String.cut ~sep:a line with
    | Some (pre, post) -> pre ^ b ^ post
    | None -> Alcotest.fail (Printf.sprintf "pattern %s not in line" a)
  in
  reject "bad status" (mangle {|"served"|} {|"mangled"|});
  reject "negative latency" (mangle {|"latency_ms":5|} {|"latency_ms":-5|});
  reject "short trace id" (mangle (Trace_ctx.id_hex (Trace_ctx.derive_id ~seed:42 ~request:1)) "abc");
  reject "orphan span parent" (mangle {|"parent":-1|} {|"parent":7|})

(* ---------- exposition ---------- *)

let test_expo_sanitize () =
  Alcotest.(check string) "dots" "serve_cache_hits"
    (Expo.sanitize "serve.cache_hits");
  Alcotest.(check string) "hostile chars" "a_b_c:d"
    (Expo.sanitize "a-b c:d")

let test_expo_prometheus_format () =
  let hist = Histogram.create () in
  List.iter (Histogram.add hist) [ 1.; 2.; 3.; 4.; 5. ];
  let metrics =
    [
      Expo.Counter
        { name = "serve.requests"; help = "total requests"; value = 12. };
      Expo.Gauge { name = "serve.backlog"; help = "queue depth"; value = 3. };
      Expo.Summary
        { name = "serve.latency_ms"; help = "latency"; hist };
    ]
  in
  let text = Expo.to_prometheus metrics in
  let has affix = Astring.String.is_infix ~affix text in
  Alcotest.(check bool) "help line" true
    (has "# HELP serve_requests total requests");
  Alcotest.(check bool) "counter type" true
    (has "# TYPE serve_requests counter");
  Alcotest.(check bool) "counter sample" true (has "serve_requests 12");
  Alcotest.(check bool) "gauge type" true (has "# TYPE serve_backlog gauge");
  Alcotest.(check bool) "summary type" true
    (has "# TYPE serve_latency_ms summary");
  Alcotest.(check bool) "median quantile" true
    (has {|serve_latency_ms{quantile="0.5"}|});
  Alcotest.(check bool) "sum sample" true (has "serve_latency_ms_sum 15");
  Alcotest.(check bool) "count sample" true (has "serve_latency_ms_count 5");
  (* json rendering carries the same names *)
  let jtext = Export.render (Expo.to_json metrics) in
  Alcotest.(check bool) "json names" true
    (Astring.String.is_infix ~affix:"serve.requests" jtext)

let test_expo_find () =
  let ms = [ Expo.Gauge { name = "x.y"; help = ""; value = 1. } ] in
  Alcotest.(check bool) "found" true (Expo.find ms "x.y" <> None);
  Alcotest.(check bool) "absent" true (Expo.find ms "x.z" = None)

(* ---------- histogram percentile edge cases ---------- *)

let test_histogram_empty_percentile_is_nan () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty p50 is nan" true
    (Float.is_nan (Histogram.percentile h 50.))

let test_histogram_single_value_exact () =
  let h = Histogram.create () in
  Histogram.add h 7.25;
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "single value at p%g" p)
        7.25 (Histogram.percentile h p))
    [ 0.; 1.; 50.; 99.; 100. ]

let test_histogram_percentiles_bounded_and_monotone () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ];
  check_float "p0 is min" 1. (Histogram.percentile h 0.);
  check_float "p100 is max" 9. (Histogram.percentile h 100.);
  let last = ref neg_infinity in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within range" p)
        true
        (v >= 1. && v <= 9.);
      Alcotest.(check bool)
        (Printf.sprintf "p%g monotone" p)
        true (v >= !last);
      last := v)
    [ 1.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ]

let test_histogram_repeated_value_exact () =
  let h = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.add h 42.
  done;
  List.iter
    (fun p ->
      check_float (Printf.sprintf "constant stream p%g" p) 42.
        (Histogram.percentile h p))
    [ 1.; 50.; 99. ]

(* ---------- engine integration ---------- *)

let engine_fixture ?journal () =
  let prob = Soak.problem ~seed:1 ~n_vertices:40 ~n_labeled:10 in
  let clock = Clock.virtual_ () in
  let config = { Engine.default_config with Engine.seed = 11 } in
  (Engine.create ~clock ?journal config prob, clock)

let req ~clock id =
  { Engine.id; arrival_ms = Clock.now_ms clock; kind = Engine.Query;
    faults = [] }

let test_engine_response_carries_trace_id () =
  let engine, clock = engine_fixture () in
  let r = Engine.handle engine (req ~clock 5) in
  Alcotest.(check bool) "trace id matches derivation" true
    (Int64.equal r.Engine.trace_id (Trace_ctx.derive_id ~seed:11 ~request:5))

let test_engine_journals_and_tracks_slo () =
  let j = Journal.create () in
  let engine, clock = engine_fixture ~journal:j () in
  let r1 = Engine.handle engine (req ~clock 1) in
  let _r2 = Engine.handle engine (req ~clock 2) in
  Alcotest.(check int) "one journal line per request" 2 (Journal.length j);
  (match Journal.validate_text (Journal.to_text j) with
  | Ok 2 -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "validated %d lines" n)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "engine exposes its journal" true
    (Engine.journal engine = Some j);
  let line = List.hd (Journal.lines j) in
  Alcotest.(check bool) "line carries the trace id" true
    (Astring.String.is_infix ~affix:(Trace_ctx.id_hex r1.Engine.trace_id)
       line);
  let s = Engine.slo_snapshot engine in
  Alcotest.(check int) "slo saw both" 2 s.Slo.total;
  Alcotest.(check int) "both full fidelity" 2 s.Slo.quality_good;
  let st = Engine.stats engine in
  Alcotest.(check bool) "transition counter wired" true
    (st.Engine.breaker_transitions >= 0)

let test_engine_metrics_snapshot () =
  let engine, clock = engine_fixture () in
  let _ = Engine.handle engine (req ~clock 1) in
  let ms = Engine.metrics engine in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exposed") true (Expo.find ms name <> None))
    [
      "serve.requests"; "serve.served"; "serve.degraded"; "serve.shed";
      "serve.cache_hits"; "serve.cache_evictions"; "serve.breaker_trips";
      "serve.breaker_transitions"; "serve.breaker_state";
      "serve.slo.latency_burn"; "serve.slo.quality_burn";
      "serve.latency_ms"; "serve.queue_ms";
    ];
  (match Expo.find ms "serve.requests" with
  | Some (Expo.Counter c) -> check_float "one request counted" 1. c.value
  | _ -> Alcotest.fail "serve.requests not a counter");
  let text = Expo.to_prometheus ms in
  Alcotest.(check bool) "prometheus renders" true
    (Astring.String.is_infix ~affix:"# TYPE serve_latency_ms summary" text)

(* The faulted soak requests that reach the resilient path journal the
   library spans it runs below the engine's "solve" span, stamped on the
   engine's virtual clock: the solve opens, the clock is charged the
   solve cost, then Resilient.solve_hard starts.  The replay check
   demands the same journal bytes from a second run. *)
let test_faulted_soak_journals_library_spans () =
  let cfg =
    { Soak.default with
      Soak.requests = 300; seed = 7; n_vertices = 40; n_labeled = 10;
      verify_replay = true; journal = true }
  in
  let s, engine = Soak.run_full cfg in
  Alcotest.(check bool) "journal replays" true s.Soak.replay_verified;
  let spans_of line =
    match Export.member "spans" (Export.parse line) with
    | Some (Export.Arr spans) -> spans
    | _ -> Alcotest.fail "line without spans"
  in
  let num key s =
    Option.get (Option.bind (Export.member key s) Export.to_float)
  in
  let named name =
    List.filter (fun s -> Export.member "name" s = Some (Export.Str name))
  in
  let lines =
    List.filter
      (fun l -> named "gssl.resilient_hard" (spans_of l) <> [])
      (Journal.lines (Option.get (Engine.journal engine)))
  in
  Alcotest.(check bool) "some requests reached the resilient path" true
    (lines <> []);
  List.iter
    (fun line ->
      let spans = spans_of line in
      match (named "solve" spans, named "gssl.resilient_hard" spans) with
      | [ solve ], [ hard ] ->
          check_float "resilient_hard under solve" (num "id" solve)
            (num "parent" hard);
          check_float ~tol:1e-9 "starts once the solve cost is charged"
            (num "start_ms" solve
            +. Engine.default_config.Engine.costs.Engine.solve_ms)
            (num "start_ms" hard);
          let cgs = named "cg.solve" spans in
          Alcotest.(check bool) "cg ran" true (cgs <> []);
          List.iter
            (fun cg ->
              check_float "cg.solve under resilient_hard" (num "id" hard)
                (num "parent" cg);
              Alcotest.(check bool) "inside resilient_hard on the clock" true
                (num "start_ms" cg >= num "start_ms" hard
                && num "start_ms" cg +. num "dur_ms" cg
                   <= num "start_ms" hard +. num "dur_ms" hard +. 1e-9);
              Alcotest.(check bool) "annotated with its outcome" true
                (Option.bind (Export.member "fields" cg)
                   (Export.member "iterations")
                <> None))
            cgs
      | _ -> Alcotest.fail "expected one solve and one resilient_hard span")
    lines

(* ---------- soak reconciliation ---------- *)

let test_soak_journaled_reconciles () =
  let cfg =
    { Soak.default with
      Soak.requests = 300; seed = 7; n_vertices = 40; n_labeled = 10;
      verify_replay = true; journal = true }
  in
  let s, engine = Soak.run_full cfg in
  Alcotest.(check (list string)) "no violations" [] s.Soak.violations;
  Alcotest.(check bool) "replay verified (responses + journal)" true
    s.Soak.replay_verified;
  Alcotest.(check int) "journal covers every response" s.Soak.responses
    s.Soak.journal_lines;
  Alcotest.(check bool) "journal digest nonzero" false
    (Int64.equal 0L s.Soak.journal_digest);
  Alcotest.(check int) "slo saw everything" s.Soak.responses s.Soak.slo.Slo.total;
  (* the engine returned by run_full still holds the live journal, and
     its aggregate reproduces the summary's percentiles bit-for-bit *)
  match Engine.journal engine with
  | None -> Alcotest.fail "journaled soak returned no journal"
  | Some j ->
      let a = Journal.aggregate j in
      Alcotest.(check int) "aggregate requests" s.Soak.responses
        a.Journal.requests;
      Alcotest.(check int) "aggregate served" s.Soak.stats.Engine.served
        a.Journal.served;
      check_float ~tol:0. "aggregate p50 exact" s.Soak.p50_ms
        a.Journal.latency_p50;
      check_float ~tol:0. "aggregate p99 exact" s.Soak.p99_ms
        a.Journal.latency_p99

(* ---------- concurrency hammer ---------- *)

let test_two_domain_journal_hammer () =
  let j = Journal.create () in
  let per_domain = 60 in
  let work seed () =
    for r = 1 to per_domain do
      let request = (seed * 1000) + r in
      let tr =
        Span.trace ~now:(ticker ())
          ~id:(Trace_ctx.derive_id ~seed ~request)
          "request"
      in
      Span.with_trace tr (fun () ->
          Span.with_ "solve" (fun () ->
              Span.event "tick";
              Span.annotate [ ("r", Span.Int r) ]));
      Span.close tr;
      Journal.record j ~request
        ~status:(if r mod 3 = 0 then "degraded" else "served")
        ~latency_ms:(float_of_int r)
        ~queue_ms:0. ~cache_hit:false tr
    done
  in
  let d1 = Domain.spawn (work 1) in
  let d2 = Domain.spawn (work 2) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "nothing lost" (2 * per_domain) (Journal.length j);
  (match Journal.validate_text (Journal.to_text j) with
  | Ok n -> Alcotest.(check int) "all interleaved lines valid" (2 * per_domain) n
  | Error e -> Alcotest.fail ("hammered journal invalid: " ^ e));
  (* installed traces are domain-local: every line kept its own trace id
     and exactly its own three spans *)
  let parsed = List.map Export.parse (Journal.lines j) in
  let traces =
    List.filter_map
      (fun line -> Option.bind (Export.member "trace" line) Export.to_str)
      parsed
  in
  let distinct = List.sort_uniq compare traces in
  Alcotest.(check int) "every request kept its own trace id"
    (2 * per_domain) (List.length distinct);
  List.iter
    (fun line ->
      match Export.member "spans" line with
      | Some (Export.Arr spans) ->
          Alcotest.(check int) "no span spliced in from the other domain" 3
            (List.length spans)
      | _ -> Alcotest.fail "line without spans")
    parsed;
  let a = Journal.aggregate j in
  Alcotest.(check int) "aggregate saw both domains" (2 * per_domain)
    a.Journal.requests

let suite =
  ( "obs_pipeline",
    [
      Alcotest.test_case "trace ids derive deterministically" `Quick
        test_trace_ids;
      Alcotest.test_case "span tree is causal" `Quick
        test_span_tree_causal_order;
      Alcotest.test_case "close sweeps open descendants" `Quick
        test_close_span_closes_descendants;
      Alcotest.test_case "trace digest replay-stable, content-sensitive"
        `Quick test_trace_digest_sensitivity;
      Alcotest.test_case "ambient context install/uninstall" `Quick
        test_ambient_context;
      Alcotest.test_case "trace json renders" `Quick test_trace_json_renders;
      Alcotest.test_case "slo: all-good traffic burns nothing" `Quick
        test_slo_all_good;
      Alcotest.test_case "slo: window rolls, budget accumulates" `Quick
        test_slo_window_and_burn;
      Alcotest.test_case "slo: rejects non-positive window" `Quick
        test_slo_rejects_bad_window;
      Alcotest.test_case "journal roundtrip + aggregate" `Quick
        test_journal_roundtrip;
      Alcotest.test_case "journal digest deterministic" `Quick
        test_journal_digest_deterministic;
      Alcotest.test_case "journal schema rejects malformed lines" `Quick
        test_journal_rejects_malformed_lines;
      Alcotest.test_case "expo name sanitization" `Quick test_expo_sanitize;
      Alcotest.test_case "expo prometheus text format" `Quick
        test_expo_prometheus_format;
      Alcotest.test_case "expo find" `Quick test_expo_find;
      Alcotest.test_case "histogram: empty percentile is nan" `Quick
        test_histogram_empty_percentile_is_nan;
      Alcotest.test_case "histogram: single value exact at any p" `Quick
        test_histogram_single_value_exact;
      Alcotest.test_case "histogram: percentiles bounded and monotone"
        `Quick test_histogram_percentiles_bounded_and_monotone;
      Alcotest.test_case "histogram: constant stream exact" `Quick
        test_histogram_repeated_value_exact;
      Alcotest.test_case "engine: response carries derived trace id" `Quick
        test_engine_response_carries_trace_id;
      Alcotest.test_case "engine: journal + slo per request" `Quick
        test_engine_journals_and_tracks_slo;
      Alcotest.test_case "engine: metrics snapshot complete" `Quick
        test_engine_metrics_snapshot;
      Alcotest.test_case "soak: faulted requests journal library spans"
        `Quick test_faulted_soak_journals_library_spans;
      Alcotest.test_case "soak: journaled run reconciles exactly" `Slow
        test_soak_journaled_reconciles;
      Alcotest.test_case "journal: two-domain hammer" `Quick
        test_two_domain_journal_hammer;
    ] )
