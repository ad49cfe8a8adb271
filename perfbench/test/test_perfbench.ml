open Perfbench_core

let sched seed =
  Sched.make ~seed ~rate:200. ~count:500 ~relabels:50
    ~pool:(Array.init 100 (fun i -> 20 + i))
    ~label_of:(fun v -> float_of_int (v mod 2))

let test_schedule () =
  let a = sched 7 and b = sched 7 and c = sched 8 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "other seed, other schedule" false (a = c);
  let relabels = Array.to_list a |> List.filter (fun r -> not (Sched.is_query r)) in
  Alcotest.(check int) "relabel count" 50 (List.length relabels);
  let targets = List.map (fun r -> match r.Sched.kind with Sched.Relabel { vertex; _ } -> vertex | Sched.Query -> -1) relabels in
  Alcotest.(check int) "targets drawn without replacement" 50
    (List.length (List.sort_uniq compare targets));
  Alcotest.(check bool) "arrivals ascend" true
    (Array.for_all Fun.id (Array.init 499 (fun i -> a.(i).Sched.due_s < a.(i + 1).Sched.due_s)));
  let mean_gap = a.(499).Sched.due_s /. 500. in
  Alcotest.(check bool) "Poisson rate near 200/s" true (mean_gap > 0.004 && mean_gap < 0.006)

let test_tail_rule () =
  let xs n = Array.init n float_of_int in
  Alcotest.(check bool) "999 samples: p99 refused" true (Result.is_error (Pct.checked ~q:0.99 (xs 999)));
  Alcotest.(check bool) "1000 samples: p99 given" true (Result.is_ok (Pct.checked ~q:0.99 (xs 1000)));
  Alcotest.(check bool) "99 samples: p90 refused" true (Result.is_error (Pct.checked ~q:0.9 (xs 99)));
  Alcotest.(check (float 1e-9)) "median interpolates" 1.5 (Pct.median [| 2.; 1.; 3.; 0. |]);
  Alcotest.(check (float 1e-9)) "p99 of 0..1000" 990. (Pct.quantile (xs 1001) 0.99)

let step rate p99 = { Pct.rate; p99; backlog_ok = true }

let test_max_rate () =
  let limit = 50. in
  let ladder = [ step 100. 10.; step 200. 20.; step 300. 80.; step 400. 300. ] in
  Alcotest.(check (float 1e-9)) "interpolated between the bracketing rungs" 250.
    (Pct.max_rate ~limit ladder);
  Alcotest.(check (float 1e-9)) "order of the rungs does not matter" 250.
    (Pct.max_rate ~limit (List.rev ladder));
  Alcotest.(check (float 1e-9)) "moves smoothly with the failing rung's p99" 260.
    (Pct.max_rate ~limit [ step 100. 10.; step 200. 20.; step 300. 70. ]);
  Alcotest.(check (float 1e-9)) "a later passing rung is ignored" 250.
    (Pct.max_rate ~limit (ladder @ [ step 500. 30. ]));
  Alcotest.(check (float 1e-9)) "lowest rung failing scales down" 50.
    (Pct.max_rate ~limit [ step 100. 100. ]);
  Alcotest.(check (float 1e-9)) "backlog alone pins to the rung below" 200.
    (Pct.max_rate ~limit [ step 200. 20.; { (step 300. 40.) with backlog_ok = false } ]);
  Alcotest.(check bool) "growing latency is a growing backlog" false
    (Pct.backlog_ok ~limit (Array.init 100 (fun i -> float_of_int i)));
  Alcotest.(check bool) "flat latency is not" true
    (Pct.backlog_ok ~limit (Array.make 100 5.))

let answer digest = Some { Verify.status = "served"; healthy = true; digest; latency_ms = 1. }

let test_digest () =
  let expected = [| "a"; "b"; "b"; "c" |] in
  let good = Array.map answer expected in
  Alcotest.(check int) "clean answers" 0 (Verify.count_failed ~expected good);
  let bad = Array.copy good in
  bad.(2) <- answer "0000000000000bad";
  Alcotest.(check int) "a corrupted digest fails" 1 (Verify.count_failed ~expected bad);
  bad.(0) <- None;
  bad.(1) <- Some { Verify.status = "degraded"; healthy = true; digest = "b"; latency_ms = 1. };
  bad.(3) <- Some { Verify.status = "served"; healthy = false; digest = "c"; latency_ms = 1. };
  Alcotest.(check int) "missing, degraded and unhealthy answers fail" 4
    (Verify.count_failed ~expected bad);
  let books = { Verify.frames_ok = 11; served = 10; not_served = 0; transport_failures = 0 } in
  Alcotest.(check int) "balanced books" 0 (Verify.reconcile ~requests:10 books);
  Alcotest.(check int) "a lost frame and a rejected one" 3
    (Verify.reconcile ~requests:10
       { books with Verify.frames_ok = 10; served = 9; transport_failures = 1 })

let test_self_time () =
  let tr = Tracer.create () in
  let root = Tracer.record tr ~name:"root" ~start_s:0. ~stop_s:10. () in
  let a = Tracer.record tr ~parent:root ~name:"a" ~start_s:1. ~stop_s:4. () in
  let _b = Tracer.record tr ~parent:root ~name:"b" ~start_s:3. ~stop_s:6. () in
  let _c = Tracer.record tr ~parent:a ~name:"c" ~start_s:2. ~stop_s:3. () in
  let _late = Tracer.record tr ~parent:root ~name:"late" ~start_s:9. ~stop_s:12. () in
  let self name =
    List.assoc name
      (List.map (fun (s, t) -> (s.Tracer.name, t)) (Tracer.self_times (Tracer.spans tr)))
  in
  Alcotest.(check (float 1e-9)) "overlapping children count once" 4. (self "root");
  Alcotest.(check (float 1e-9)) "a minus its child" 2. (self "a");
  Alcotest.(check (float 1e-9)) "leaf keeps its duration" 3. (self "b");
  Alcotest.(check bool) "children share the root's group" true (a.Tracer.group = root.Tracer.group)

let () =
  Alcotest.run "perfbench"
    [ ("schedule", [ Alcotest.test_case "seeded Poisson schedule" `Quick test_schedule ]);
      ("percentiles",
       [ Alcotest.test_case "tail-sample rule" `Quick test_tail_rule;
         Alcotest.test_case "interpolated max rate" `Quick test_max_rate ]);
      ("verify", [ Alcotest.test_case "digests and books" `Quick test_digest ]);
      ("tracer", [ Alcotest.test_case "self time" `Quick test_self_time ]) ]
