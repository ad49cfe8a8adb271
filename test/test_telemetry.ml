(* Tests of the telemetry subsystem (counters, spans and the sinks they
   feed — installed traces and the path aggregate —, JSON export/parse)
   plus the differential property pinning the sparse CSR+CG hard solver
   to the dense direct one, with the telemetry iteration counters as a
   side-channel check. *)

open Test_util
module T_registry = Telemetry.Registry
module T_counter = Telemetry.Counter
module T_span = Telemetry.Span
module T_export = Telemetry.Export
module Vec = Linalg.Vec

(* run [f] with a clean, enabled registry, restoring the disabled default *)
let with_clean_registry f =
  T_registry.with_enabled (fun () ->
      T_registry.reset ();
      Fun.protect ~finally:T_registry.reset f)

(* burn a measurable amount of wall-clock (timer resolution is ~1us) *)
let busy_work () =
  let acc = ref 0. in
  for i = 1 to 200_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

(* ---------- counters ---------- *)

let test_counter_semantics () =
  with_clean_registry (fun () ->
      let c = T_counter.make "test.counter_semantics" in
      Alcotest.(check int) "starts at zero" 0 (T_counter.value c);
      T_counter.incr c;
      T_counter.add c 41;
      Alcotest.(check int) "incr + add" 42 (T_counter.value c);
      (* make is idempotent: the same name shares one cell *)
      let c' = T_counter.make "test.counter_semantics" in
      T_counter.incr c';
      Alcotest.(check int) "same cell via second handle" 43 (T_counter.value c);
      Alcotest.(check int) "lookup by name" 43 (T_counter.get "test.counter_semantics");
      Alcotest.(check int) "unknown name reads 0" 0 (T_counter.get "test.nope");
      T_registry.reset ();
      Alcotest.(check int) "reset zeroes" 0 (T_counter.value c))

let test_counter_disabled_noop () =
  T_registry.reset ();
  T_registry.disable ();
  let c = T_counter.make "test.disabled_counter" in
  T_counter.incr c;
  T_counter.add c 100;
  Alcotest.(check int) "disabled increments are dropped" 0 (T_counter.value c)

(* ---------- spans ---------- *)

let test_span_nesting_and_monotonicity () =
  with_clean_registry (fun () ->
      let result =
        T_span.with_ "outer" (fun () ->
            busy_work ();
            T_span.with_ "inner" (fun () ->
                busy_work ();
                17))
      in
      Alcotest.(check int) "with_ returns the thunk's value" 17 result;
      Alcotest.(check int) "outer recorded once" 1 (T_span.count "outer");
      Alcotest.(check int) "inner nests under outer" 1 (T_span.count "outer/inner");
      Alcotest.(check int) "no top-level inner" 0 (T_span.count "inner");
      let outer = T_span.total_ns "outer" and inner = T_span.total_ns "outer/inner" in
      Alcotest.(check bool) "inner time positive" true (inner > 0.);
      Alcotest.(check bool) "outer >= inner (monotone nesting)" true (outer >= inner))

let test_span_backwards_clock_clamps () =
  with_clean_registry (fun () ->
      (* a clock that runs backwards: every read is earlier than the last,
         so the span's raw duration is negative and must clamp to zero *)
      let t = ref 1_000_000_000. in
      T_span.set_time_source
        (Some
           (fun () ->
             t := !t -. 100_000.;
             !t));
      Fun.protect
        ~finally:(fun () -> T_span.set_time_source None)
        (fun () ->
          T_span.with_ "backwards" (fun () -> ());
          Alcotest.(check int) "span still recorded" 1
            (T_span.count "backwards");
          check_float "negative duration clamps to zero" 0.
            (T_span.total_ns "backwards")))

let test_span_exception_unwinds () =
  with_clean_registry (fun () ->
      (try
         T_span.with_ "boom" (fun () -> failwith "expected")
       with Failure _ -> ());
      Alcotest.(check int) "span recorded despite exception" 1 (T_span.count "boom");
      (* the stack unwound: the next span is top-level, not under "boom" *)
      T_span.with_ "after" (fun () -> ());
      Alcotest.(check int) "stack popped" 1 (T_span.count "after"))

let test_span_disabled_noop () =
  T_registry.reset ();
  T_registry.disable ();
  let calls = ref 0 in
  let v =
    T_span.with_ "test.disabled_span" (fun () ->
        incr calls;
        "ok")
  in
  Alcotest.(check string) "value passes through" "ok" v;
  Alcotest.(check int) "thunk ran exactly once" 1 !calls;
  Alcotest.(check int) "nothing recorded" 0 (T_span.count "test.disabled_span");
  Alcotest.(check int) "snapshot empty" 0 (List.length (T_span.snapshot ()))

let test_registry_with_enabled_restores () =
  T_registry.disable ();
  let inside = T_registry.with_enabled (fun () -> T_registry.is_enabled ()) in
  Alcotest.(check bool) "enabled inside" true inside;
  Alcotest.(check bool) "restored after" false (T_registry.is_enabled ());
  (try T_registry.with_enabled (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "restored after exception" false (T_registry.is_enabled ())

(* ---------- traces: the other sink of the same calls ---------- *)

(* a millisecond clock that returns [readings] in order *)
let scripted readings =
  let rest = ref readings in
  fun () ->
    match !rest with
    | t :: tl ->
        rest := tl;
        t
    | [] -> Alcotest.fail "clock read more often than scripted"

let node_view (s : T_span.node) =
  (s.id, s.parent, s.name, s.start_ms, s.dur_ms, s.fields)

let node_t =
  Alcotest.testable
    (fun ppf (id, parent, name, start, dur, fields) ->
      Format.fprintf ppf "#%d<-%d %s @%g+%g (%d fields)" id parent name start
        dur (List.length fields))
    ( = )

(* Registry off, trace installed: nested with_/event/annotate build the
   expected tree on the trace's own clock — which steps backwards once,
   so the inner span's duration clamps to 0 — and the aggregate stays
   empty. *)
let test_trace_tree_on_fake_clock () =
  T_registry.reset ();
  T_registry.with_disabled (fun () ->
      (* root, outer, tick, inner start, inner end (backwards), outer end,
         root end *)
      let now = scripted [ 10.; 11.; 12.; 13.; 12.5; 14.; 15. ] in
      let tr =
        T_span.trace ~now ~id:7L ~fields:[ ("r", T_span.Int 1) ] "request"
      in
      let v =
        T_span.with_trace tr (fun () ->
            T_span.with_ "outer" ~fields:[ ("k", T_span.Int 1) ] (fun () ->
                T_span.event "tick" ~fields:[ ("n", T_span.Int 2) ];
                T_span.with_ "inner" (fun () ->
                    T_span.annotate [ ("x", T_span.Float 0.5) ]);
                T_span.annotate [ ("after", T_span.Bool true) ];
                "done"))
      in
      T_span.close tr ~fields:[ ("status", T_span.Str "served") ];
      Alcotest.(check string) "value through" "done" v;
      Alcotest.(check int64) "trace id" 7L (T_span.trace_id tr);
      Alcotest.(check (list node_t)) "tree"
        [
          ( 0, -1, "request", 10., 5.,
            [ ("r", T_span.Int 1); ("status", T_span.Str "served") ] );
          ( 1, 0, "outer", 11., 3.,
            [ ("k", T_span.Int 1); ("after", T_span.Bool true) ] );
          (2, 1, "tick", 12., 0., [ ("n", T_span.Int 2) ]);
          (3, 1, "inner", 13., 0., [ ("x", T_span.Float 0.5) ]);
        ]
        (List.map node_view (T_span.nodes tr));
      Alcotest.(check int) "aggregate untouched" 0
        (List.length (T_span.snapshot ())))

(* Registry on: the aggregate records today's paths, with no trace
   installed no tree grows, and with one installed the same calls feed
   both sinks. *)
let test_aggregate_without_trace () =
  with_clean_registry (fun () ->
      let tr = T_span.trace ~now:(fun () -> 0.) ~id:1L "request" in
      T_span.with_ "outer" (fun () ->
          T_span.event "tick";
          T_span.with_ "inner" (fun () -> T_span.annotate [ ("x", T_span.Int 1) ]));
      Alcotest.(check (list string)) "aggregate paths" [ "outer"; "outer/inner" ]
        (List.map fst (T_span.snapshot ()));
      Alcotest.(check int) "no tree built" 1 (List.length (T_span.nodes tr));
      T_span.with_trace tr (fun () -> T_span.with_ "both" (fun () -> ()));
      Alcotest.(check int) "aggregate fed" 1 (T_span.count "both");
      Alcotest.(check (list string)) "trace fed" [ "request"; "both" ]
        (List.map (fun (s : T_span.node) -> s.name) (T_span.nodes tr)))

(* A span opened on a pool worker domain stays out of the trace
   installed on the caller's domain; the caller's own chunk enters it. *)
let test_worker_span_stays_out_of_trace () =
  let tr = T_span.trace ~now:(fun () -> 0.) ~id:2L "request" in
  let caller = Domain.self () in
  let worker_ran = Atomic.make false in
  Parallel.Pool.with_default_domains 2 (fun () ->
      T_span.with_trace tr (fun () ->
          Parallel.Pool.run ~grain:1 2 (fun _ _ ->
              if Domain.self () <> caller then begin
                T_span.with_ "worker.chunk" (fun () -> ());
                Atomic.set worker_ran true
              end
              else begin
                T_span.with_ "caller.chunk" (fun () -> ());
                (* hold this chunk until the worker has run the other *)
                let t0 = Telemetry.Monotonic.now_ns () in
                while
                  (not (Atomic.get worker_ran))
                  && Telemetry.Monotonic.now_ns () -. t0 < 5e9
                do
                  Domain.cpu_relax ()
                done
              end)));
  Alcotest.(check bool) "a worker ran a chunk" true (Atomic.get worker_ran);
  let names = List.map (fun (s : T_span.node) -> s.name) (T_span.nodes tr) in
  Alcotest.(check bool) "caller's span entered" true
    (List.mem "caller.chunk" names);
  Alcotest.(check bool) "worker's span stayed out" false
    (List.mem "worker.chunk" names)

(* A connection trace with a request trace nested inside one of its
   spans: the inner install shadows the outer one and restores it, so
   [annotate] after it returns lands on the outer trace's open span. *)
let test_nested_trace_restores_outer () =
  let conn = T_span.trace ~now:(fun () -> 0.) ~id:3L "conn" in
  let request = T_span.trace ~now:(fun () -> 0.) ~id:4L "request" in
  T_span.with_trace conn (fun () ->
      T_span.with_ "frame" (fun () ->
          T_span.with_trace request (fun () ->
              T_span.with_ "solve" (fun () ->
                  T_span.annotate [ ("inner", T_span.Bool true) ]));
          T_span.annotate [ ("status", T_span.Str "served") ]));
  let tree tr =
    List.map (fun (s : T_span.node) -> (s.name, s.fields)) (T_span.nodes tr)
  in
  Alcotest.(check bool) "outer trace" true
    (tree conn = [ ("conn", []); ("frame", [ ("status", T_span.Str "served") ]) ]);
  Alcotest.(check bool) "inner trace" true
    (tree request
    = [ ("request", []); ("solve", [ ("inner", T_span.Bool true) ]) ])

(* ---------- JSON export ---------- *)

let test_json_roundtrip () =
  with_clean_registry (fun () ->
      let c = T_counter.make "test.json_counter" in
      T_counter.add c 7;
      T_span.with_ "test.json_span" busy_work;
      let json = T_export.parse (T_export.to_json ()) in
      let counters = Option.get (T_export.member "counters" json) in
      Alcotest.(check (option int)) "counter survives round-trip" (Some 7)
        (Option.bind (T_export.member "test.json_counter" counters) T_export.to_int);
      let spans = Option.get (T_export.member "spans" json) in
      let span = Option.get (T_export.member "test.json_span" spans) in
      Alcotest.(check (option int)) "span count" (Some 1)
        (Option.bind (T_export.member "count" span) T_export.to_int);
      let total_ms =
        Option.get (Option.bind (T_export.member "total_ms" span) T_export.to_float)
      in
      Alcotest.(check bool) "span total_ms positive" true (total_ms > 0.))

let test_json_renders_escapes_and_parses () =
  let open T_export in
  let v =
    Obj
      [
        ("quote\"back\\slash", Str "line\nbreak\ttab");
        ("nums", Arr [ Num 1.; Num (-2.5); Num 1e15; Null; Bool true ]);
        ("empty_obj", Obj []);
        ("empty_arr", Arr []);
      ]
  in
  let round = parse (render v) in
  Alcotest.(check bool) "escaped keys/values round-trip" true (round = v)

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,2"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match T_export.parse s with
      | exception T_export.Parse_error _ -> ()
      | _ -> Alcotest.failf "parse accepted malformed input %S" s)
    bad

let test_text_report_mentions_metrics () =
  with_clean_registry (fun () ->
      T_counter.add (T_counter.make "test.text_counter") 5;
      T_span.with_ "test.text_span" (fun () -> ());
      let text = T_export.to_text () in
      let contains needle =
        Astring.String.find_sub ~sub:needle text <> None
      in
      Alcotest.(check bool) "counter listed" true (contains "test.text_counter");
      Alcotest.(check bool) "span listed" true (contains "test.text_span"))

(* ---------- differential property: Scalable (CSR+CG) vs dense Hard ---------- *)

let random_knn_problem rng =
  let n = 3 + Prng.Rng.int rng 6 and m = 2 + Prng.Rng.int rng 10 in
  let points =
    Array.init (n + m) (fun _ ->
        [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let labels =
    Array.init n (fun _ -> if Prng.Rng.bernoulli rng 0.5 then 1. else 0.)
  in
  let k = min (n + m - 1) (4 + Prng.Rng.int rng 4) in
  let w =
    Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 ~k points
  in
  Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_sparse w) ~labels

let prop_scalable_matches_hard seed =
  let rng = Prng.Rng.create seed in
  let p = random_knn_problem rng in
  let max_iter = 2000 in
  match
    with_clean_registry (fun () ->
        let sparse = Gssl.Scalable.solve_hard ~tol:1e-12 ~max_iter p in
        let dense = Gssl.Hard.solve ~solver:Gssl.Hard.Cholesky p in
        ( sparse,
          dense,
          T_counter.get "cg.iterations",
          T_counter.get "sparse.matvecs" ))
  with
  | exception Gssl.Hard.Unanchored_unlabeled _ ->
      (* the random kNN graph left an unlabeled component: vacuous case *)
      true
  | sparse, dense, iterations, matvecs ->
      (* a constant-label draw gives rhs = 0: CG legitimately converges in
         0 iterations, so only demand work when the solution is nontrivial *)
      let nontrivial = Vec.norm_inf dense > 1e-12 in
      Vec.approx_equal ~tol:1e-6 sparse dense
      && iterations <= max_iter
      && ((not nontrivial) || (iterations > 0 && matvecs > 0))

(* metric names carrying quotes, backslashes, and raw non-ASCII bytes
   must still render as valid (pure-ASCII) JSON and parse back intact *)
let test_json_weird_metric_names_roundtrip () =
  with_clean_registry (fun () ->
      let name = "weird.\"name\"\\with\xc3\xa9\x7fbytes" in
      T_counter.add (T_counter.make name) 7;
      T_span.with_ name (fun () -> ());
      let rendered = T_export.to_json () in
      String.iter
        (fun c ->
          if Char.code c >= 0x80 then
            Alcotest.fail "rendered JSON must be pure ASCII")
        rendered;
      let parsed = T_export.parse rendered in
      let member_exn what key json =
        match T_export.member key json with
        | Some v -> v
        | None -> Alcotest.failf "%s lost in round-trip" what
      in
      let counter =
        member_exn "counter name" name (member_exn "counters" "counters" parsed)
      in
      Alcotest.(check (option int)) "counter value" (Some 7)
        (T_export.to_int counter);
      let stats =
        member_exn "span name" name (member_exn "spans" "spans" parsed)
      in
      Alcotest.(check (option int)) "span count" (Some 1)
        (T_export.to_int (member_exn "span stats" "count" stats)))

let suite =
  ( "telemetry",
    [
      case "counter semantics" test_counter_semantics;
      case "counter disabled no-op" test_counter_disabled_noop;
      case "span nesting + monotone timing" test_span_nesting_and_monotonicity;
      case "span backwards clock clamps to 0" test_span_backwards_clock_clamps;
      case "span exception unwinds" test_span_exception_unwinds;
      case "span disabled no-op" test_span_disabled_noop;
      case "with_enabled restores state" test_registry_with_enabled_restores;
      case "trace: tree on a fake clock, aggregate empty"
        test_trace_tree_on_fake_clock;
      case "trace: aggregate paths, no tree without one"
        test_aggregate_without_trace;
      case "trace: a worker's span stays out" test_worker_span_stays_out_of_trace;
      case "trace: nested install restores the outer"
        test_nested_trace_restores_outer;
      case "json export round-trip" test_json_roundtrip;
      case "json escapes round-trip" test_json_renders_escapes_and_parses;
      case "json weird metric names round-trip"
        test_json_weird_metric_names_roundtrip;
      case "json parse rejects malformed" test_json_parse_errors;
      case "text report lists metrics" test_text_report_mentions_metrics;
      qprop ~count:60 "scalable csr+cg = dense hard (1e-6), iters <= max_iter"
        prop_scalable_matches_hard;
    ] )
