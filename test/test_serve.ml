(* Serving layer: Clock / Deadline / Breaker units, the
   cooperative-abort plumbing through Cg and the fallback chains, the
   admission-controlled Engine, and the chaos soak harness.

   Everything runs on virtual clocks, so every test here — including the
   mid-solve deadline aborts and the 400-request soak — is exactly
   reproducible. *)

open Test_util
module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Wg = Graph.Weighted_graph
module Check = Robust.Check
module Fault = Robust.Fault
module Rsolve = Robust.Solve
module Clock = Serve.Clock
module Deadline = Serve.Deadline
module Breaker = Serve.Breaker
module Engine = Serve.Engine
module Soak = Serve.Soak
module Inc = Gssl.Incremental
module P = Gssl.Problem

(* ------------------------------------------------------------------ *)
(* clock & deadline                                                    *)
(* ------------------------------------------------------------------ *)

let test_virtual_clock () =
  let c = Clock.virtual_ ~start_ms:10. () in
  Alcotest.(check bool) "virtual" true (Clock.is_virtual c);
  check_float "start" 10. (Clock.now_ms c);
  Clock.advance c 5.;
  check_float "advance" 15. (Clock.now_ms c);
  Clock.advance c (-3.);
  check_float "negative advance is a no-op" 15. (Clock.now_ms c);
  Clock.jump c 40.;
  check_float "jump forward" 40. (Clock.now_ms c);
  Clock.jump c 2.;
  check_float "jump never goes backward" 40. (Clock.now_ms c)

(* A 50 ms advance on the real clock takes its 50 ms of wall time but
   sleeps through them: a spin would burn about 50 ms of CPU. *)
let test_monotonic_clock () =
  let c = Clock.monotonic () in
  Alcotest.(check bool) "not virtual" false (Clock.is_virtual c);
  let t0 = Clock.now_ms c and cpu0 = Sys.time () in
  Clock.advance c 50.;
  let wall_ms = Clock.now_ms c -. t0
  and cpu_ms = (Sys.time () -. cpu0) *. 1e3 in
  if wall_ms < 50. then Alcotest.failf "advanced %.3f ms of real time" wall_ms;
  if cpu_ms >= 25. then
    Alcotest.failf "a 50 ms advance burned %.3f ms of CPU" cpu_ms

let test_deadline_accounting () =
  let c = Clock.virtual_ () in
  let d = Deadline.start c ~budget_ms:10. in
  check_float "budget" 10. (Deadline.budget_ms d);
  Clock.advance c 4.;
  check_float "elapsed" 4. (Deadline.elapsed_ms d);
  check_float "remaining" 6. (Deadline.remaining_ms d);
  Alcotest.(check bool) "not expired" false (Deadline.expired d);
  (* queue wait counts: a deadline anchored in the past starts spent *)
  let late = Deadline.at c ~start_ms:(-20.) ~budget_ms:10. in
  Alcotest.(check bool) "anchored in the past -> expired" true
    (Deadline.expired late);
  (match Deadline.diagnostic late with
  | Check.Deadline_expired { elapsed_ms; budget_ms } ->
      check_float "diagnostic elapsed" 24. elapsed_ms;
      check_float "diagnostic budget" 10. budget_ms
  | _ -> Alcotest.fail "expected Deadline_expired diagnostic");
  Alcotest.(check string) "diagnostic class" "deadline-expired"
    (Check.class_name (Deadline.diagnostic late))

let test_deadline_should_stop_charges_cost () =
  let c = Clock.virtual_ () in
  let d = Deadline.start c ~budget_ms:5. in
  let stop = Deadline.should_stop ~cost_ms:2. d in
  Alcotest.(check bool) "poll 1 (2ms spent)" false (stop ());
  Alcotest.(check bool) "poll 2 (4ms spent)" false (stop ());
  Alcotest.(check bool) "poll 3 (6ms spent) -> expired" true (stop ());
  check_float "clock carries the charged cost" 6. (Clock.now_ms c)

(* ------------------------------------------------------------------ *)
(* breaker                                                             *)
(* ------------------------------------------------------------------ *)

let test_breaker_lifecycle () =
  let c = Clock.virtual_ () in
  let b = Breaker.create ~failure_threshold:2 ~cooldown_ms:10. c in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "one failure: still closed" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "threshold: open refuses" false (Breaker.allow b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Clock.advance c 11.;
  Alcotest.(check bool) "cooldown over: half-open probes" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "half-open failure reopens" false (Breaker.allow b);
  Alcotest.(check int) "reopen counts as a trip" 2 (Breaker.trips b);
  Clock.advance c 11.;
  Alcotest.(check bool) "half-open again" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check bool) "success closes" true (Breaker.allow b);
  (* consecutive-failure counting resets on success *)
  Breaker.record_failure b;
  Breaker.record_success b;
  Breaker.record_failure b;
  Alcotest.(check bool) "non-consecutive failures stay closed" true
    (Breaker.allow b)

(* ------------------------------------------------------------------ *)
(* cooperative abort: Cg and the fallback chains                       *)
(* ------------------------------------------------------------------ *)

let spd_csr () =
  Sparse.Csr.of_dense
    (Mat.add_scaled_identity (Mat.gram (random_mat (Prng.Rng.create 5) 12 12)) 1.)

let test_cg_cooperative_abort () =
  let a = spd_csr () in
  let b = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let polls = ref 0 in
  let out =
    Sparse.Cg.solve
      ~should_stop:(fun () ->
        incr polls;
        !polls > 2)
      (Sparse.Linop.of_csr a) b
  in
  Alcotest.(check bool) "aborted" true out.Sparse.Cg.aborted;
  Alcotest.(check bool) "not converged" false out.Sparse.Cg.converged;
  Alcotest.(check bool) "not a breakdown" false out.Sparse.Cg.breakdown;
  Alcotest.(check int) "stopped after two iterations" 2
    out.Sparse.Cg.iterations;
  (* an untriggered hook changes nothing *)
  let clean = Sparse.Cg.solve ~should_stop:(fun () -> false)
      (Sparse.Linop.of_csr a) b in
  Alcotest.(check bool) "clean solve converges" true clean.Sparse.Cg.converged;
  Alcotest.(check bool) "clean solve not aborted" false clean.Sparse.Cg.aborted

let test_solve_sparse_deadline_abort () =
  let a = spd_csr () in
  let b = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let clock = Clock.virtual_ () in
  let d = Deadline.start clock ~budget_ms:1. in
  let out =
    Rsolve.solve_sparse ~should_stop:(Deadline.should_stop ~cost_ms:0.6 d) a b
  in
  Alcotest.(check bool) "outcome flagged aborted" true out.Rsolve.aborted;
  (* the chain stopped where it was instead of escalating to the end *)
  Alcotest.(check bool) "escalations name the abort" true
    (List.exists
       (fun (e : Rsolve.escalation) ->
         Astring.String.is_infix ~affix:"cooperative abort"
           e.Rsolve.reason)
       out.Rsolve.escalations)

(* ------------------------------------------------------------------ *)
(* latency-stall fault                                                 *)
(* ------------------------------------------------------------------ *)

let ring_graph n =
  let coo = Sparse.Coo.create n n in
  for i = 0 to n - 1 do
    let j = (i + 1) mod n in
    Sparse.Coo.add coo i j 1.;
    Sparse.Coo.add coo j i 1.
  done;
  Wg.of_sparse (Sparse.Csr.of_coo coo)

let edge_list g =
  let acc = ref [] in
  Wg.iter_edges g (fun i j w -> acc := (i, j, w) :: !acc);
  !acc

let test_latency_stall_injector () =
  let rng = Prng.Rng.create 8 in
  let g = ring_graph 8 in
  let labels = [| 0.; 1. |] in
  let inj = Fault.inject rng ~n_labeled:2 [ Fault.Latency_stall { ms = 10. } ] g labels in
  Alcotest.(check bool) "stall in the jitter band" true
    (inj.Fault.stall_ms >= 7.5 && inj.Fault.stall_ms <= 12.5);
  (* a pure stall corrupts nothing *)
  Alcotest.(check bool) "graph untouched" true
    (edge_list g = edge_list inj.Fault.graph);
  Alcotest.(check (option int)) "no cg cap" None inj.Fault.cg_max_iter;
  (* the detects contract: a stall is vindicated by a deadline expiry *)
  let stall = Fault.Latency_stall { ms = 10. } in
  Alcotest.(check bool) "stall detected by Deadline_expired" true
    (Fault.detects stall
       (Check.Deadline_expired { elapsed_ms = 30.; budget_ms = 25. }));
  Alcotest.(check bool) "stall not detected by unrelated diagnostics" false
    (Fault.detects stall (Check.Non_finite_weight { i = 0; j = 1 }));
  Alcotest.(check string) "class name" "latency-stall" (Fault.class_name stall);
  (* a clean injection has no stall *)
  let clean = Fault.inject rng ~n_labeled:2 [] g labels in
  check_float "no stall by default" 0. clean.Fault.stall_ms

(* ------------------------------------------------------------------ *)
(* engine                                                              *)
(* ------------------------------------------------------------------ *)

let engine_fixture ?(deadline_ms = 25.) ?(queue_capacity = 4) () =
  let prob = Soak.problem ~seed:1 ~n_vertices:40 ~n_labeled:10 in
  let clock = Clock.virtual_ () in
  let config =
    { Engine.default_config with
      Engine.deadline_ms;
      queue_capacity;
      seed = 11 }
  in
  (Engine.create ~clock config prob, clock, prob)

let req ?(faults = []) ?(kind = Engine.Query) ~clock id =
  { Engine.id; arrival_ms = Clock.now_ms clock; kind; faults }

let test_engine_clean_query_served_from_cache () =
  let engine, clock, prob = engine_fixture () in
  let r = Engine.handle engine (req ~clock 1) in
  Alcotest.(check string) "served" "served" (Engine.status_name r.Engine.status);
  Alcotest.(check bool) "cache hit" true r.Engine.cache_hit;
  Alcotest.(check int) "predictions cover every unlabeled vertex"
    (P.n_unlabeled prob)
    (Array.length r.Engine.predictions);
  (match r.Engine.certificate with
  | Some cert -> Alcotest.(check bool) "healthy" true (Obs.Health.healthy cert)
  | None -> Alcotest.fail "served response must carry a certificate");
  let s = Engine.stats engine in
  Alcotest.(check int) "stats served" 1 s.Engine.served;
  Alcotest.(check int) "stats cache hits" 1 s.Engine.cache_hits

(* An unanchored component has no Eq. (5) answer, so the engine must
   not warm its cache with one: the query takes the full solve, which
   imputes the labeled mean (Prop II.2), at every pair weight. *)
let test_engine_unanchored_not_cached () =
  List.iter
    (fun w ->
      let clock = Clock.virtual_ () in
      let engine =
        Engine.create ~clock Engine.default_config (unanchored_pair_problem w)
      in
      let r = Engine.handle engine (req ~clock 1) in
      Alcotest.(check bool)
        (Printf.sprintf "w = %g: not a cache hit" w)
        false r.Engine.cache_hit;
      Alcotest.(check (pair int int))
        (Printf.sprintf "w = %g: counted as one miss" w)
        (0, 1)
        (let s = Engine.stats engine in
         (s.Engine.cache_hits, s.Engine.cache_misses));
      List.iter
        (fun v ->
          check_float ~tol:0.
            (Printf.sprintf "w = %g: vertex %d gets the labeled mean" w v)
            0.5
            (List.assoc v (Array.to_list r.Engine.predictions)))
        [ 3; 4 ])
    [ 0.3; 0.7; 0.01 ]

let test_engine_stall_burns_deadline () =
  let engine, clock, _ = engine_fixture () in
  let r =
    Engine.handle engine
      (req ~clock ~faults:[ Fault.Latency_stall { ms = 200. } ] 1)
  in
  (match r.Engine.status with
  | Engine.Degraded why ->
      Alcotest.(check bool) "reason mentions the deadline" true
        (Astring.String.is_infix ~affix:"deadline" why)
  | _ -> Alcotest.fail "expected Degraded");
  Alcotest.(check bool) "Deadline_expired diagnostic attached" true
    (List.exists
       (function Check.Deadline_expired _ -> true | _ -> false)
       r.Engine.diagnostics);
  (* degraded still answers: labeled-mean / cached predictions *)
  Alcotest.(check bool) "degraded response still has predictions" true
    (Array.length r.Engine.predictions > 0);
  Alcotest.(check bool) "degraded predictions are finite" true
    (Array.for_all (fun (_, x) -> Float.is_finite x) r.Engine.predictions);
  Alcotest.(check int) "deadline expiry counted" 1
    (Engine.stats engine).Engine.deadline_expired

(* CG starved to 2 iterations: the certificate flags the stagnated
   chain, so each request makes one pass down the fallback chain and
   degrades.  Three failures trip the breaker, which then keeps the
   fourth request away from the solver. *)
let test_engine_starved_solve_degrades_and_trips_breaker () =
  let engine, clock, _ = engine_fixture ~deadline_ms:1e6 () in
  Telemetry.Registry.reset ();
  let outcomes =
    Telemetry.Registry.with_enabled (fun () ->
        List.init 4 (fun i ->
            Engine.handle engine
              (req ~clock ~faults:[ Fault.Cg_cap { max_iter = 2 } ] (i + 1))))
  in
  let solves = Telemetry.Counter.get "gssl.resilient_hard_solves" in
  Telemetry.Registry.reset ();
  List.iter
    (fun (r : Engine.response) ->
      match r.Engine.status with
      | Engine.Degraded _ -> ()
      | _ ->
          Alcotest.failf "starved solve should degrade, got %s"
            (Engine.status_name r.Engine.status))
    outcomes;
  Alcotest.(check int) "one solve per request that reaches the solver" 3
    solves;
  let s = Engine.stats engine in
  Alcotest.(check bool) "breaker tripped" true (s.Engine.breaker_trips >= 1);
  Alcotest.(check int) "nothing served" 0 s.Engine.served

(* A faulted query's full solve runs its fallback chain's CG and nothing
   more: certifying the answer costs one operator application, not a
   solve.  A jittered query converges on the chain's first CG attempt; a
   query capped at 3 iterations climbs through at most the plain attempt
   and three restarts, each held to the cap. *)
let test_engine_full_solve_runs_only_chain_cg () =
  let engine, clock, _ = engine_fixture ~deadline_ms:1e6 () in
  let cg_work fault id =
    Telemetry.Registry.reset ();
    let full_solves, solves, iterations =
      Telemetry.Registry.with_enabled (fun () ->
          ignore (Engine.handle engine (req ~clock ~faults:[ fault ] id));
          let get = Telemetry.Counter.get in
          (get "gssl.resilient_hard_solves", get "cg.solves",
           get "cg.iterations"))
    in
    Telemetry.Registry.reset ();
    Alcotest.(check int) (Fault.class_name fault ^ ": one full solve") 1
      full_solves;
    (solves, iterations)
  in
  let jittered, _ = cg_work (Fault.Weight_jitter { amplitude = 0.1 }) 1 in
  Alcotest.(check int) "jittered query: one CG solve" 1 jittered;
  let capped, iterations = cg_work (Fault.Cg_cap { max_iter = 3 }) 2 in
  if capped < 1 || capped > 4 then
    Alcotest.failf "capped query: %d CG solves, expected 1 to 4" capped;
  if iterations > 3 * capped then
    Alcotest.failf "capped query: %d CG iterations in %d solves exceed the cap"
      iterations capped

let test_engine_relabel_paths () =
  let engine, clock, prob = engine_fixture () in
  let m = P.n_unlabeled prob in
  let v = P.n_labeled prob + 3 in
  (* a NaN label is rejected up front, not applied *)
  let bad =
    Engine.handle engine
      (req ~clock ~kind:(Engine.Relabel { vertex = v; label = nan }) 1)
  in
  (match bad.Engine.status with
  | Engine.Degraded why ->
      Alcotest.(check bool) "reason names the label" true
        (Astring.String.is_infix ~affix:"label" why)
  | _ -> Alcotest.fail "NaN relabel must degrade");
  Alcotest.(check int) "no downdate applied" 0
    (Engine.stats engine).Engine.relabels;
  (* the degraded answer reads the warm factorization without counting *)
  Alcotest.(check (pair int int)) "degraded answer counts no hit or miss"
    (0, 0)
    (let s = Engine.stats engine in
     (s.Engine.cache_hits, s.Engine.cache_misses));
  (* a finite relabel is applied via Sherman-Morrison and served *)
  let ok =
    Engine.handle engine
      (req ~clock ~kind:(Engine.Relabel { vertex = v; label = 1. }) 2)
  in
  Alcotest.(check string) "relabel served" "served"
    (Engine.status_name ok.Engine.status);
  Alcotest.(check int) "one fewer unlabeled vertex" (m - 1)
    (Array.length ok.Engine.predictions);
  Alcotest.(check bool) "relabeled vertex no longer predicted" false
    (Array.exists (fun (u, _) -> u = v) ok.Engine.predictions);
  Alcotest.(check int) "downdate counted" 1
    (Engine.stats engine).Engine.relabels;
  (* revealing the same vertex twice is rejected, not fatal *)
  let dup =
    Engine.handle engine
      (req ~clock ~kind:(Engine.Relabel { vertex = v; label = 0. }) 3)
  in
  (match dup.Engine.status with
  | Engine.Degraded _ -> ()
  | _ -> Alcotest.fail "duplicate relabel must degrade")

(* Bit-identity pin: the certificates of cache-hit answers (queries and
   relabels) while 20 unlabeled vertices are revealed in a shuffled
   order, so the certified system's right-hand side must not depend on
   the reveal order. *)
let test_engine_cache_certificates_pinned () =
  let engine, clock, prob = engine_fixture ~deadline_ms:1e6 () in
  let rng = Prng.Rng.create 5 in
  let order = Array.init (P.n_unlabeled prob) (fun a -> P.n_labeled prob + a) in
  Prng.Rng.shuffle_inplace rng order;
  let digest =
    digest_hex (fun buf ->
        for k = 0 to 59 do
          let kind =
            if k mod 3 = 0 then
              Engine.Relabel { vertex = order.(k / 3); label = Prng.Rng.float rng }
            else Engine.Query
          in
          let r = Engine.handle engine (req ~clock ~kind (k + 1)) in
          Alcotest.(check bool) "cache hit" true r.Engine.cache_hit;
          match r.Engine.certificate with
          | Some c ->
              add_float_bits buf c.Obs.Health.true_residual;
              add_float_bits buf c.Obs.Health.rel_residual
          | None -> Alcotest.fail "cache answers carry a certificate"
        done)
  in
  Alcotest.(check string) "certificate digest" "8e4ed1291114eb4ea2b4923fe86bddc3" digest

let test_engine_burst_sheds_and_bounds_queue () =
  let engine, _, _ = engine_fixture ~queue_capacity:2 () in
  let trace =
    List.init 10 (fun i ->
        { Engine.id = i; arrival_ms = 0.; kind = Engine.Query; faults = [] })
  in
  let responses = Engine.run_trace engine trace in
  Alcotest.(check int) "one response per request" 10 (List.length responses);
  let shed =
    List.filter
      (fun (r : Engine.response) ->
        match r.Engine.status with Engine.Shed _ -> true | _ -> false)
      responses
  in
  Alcotest.(check bool) "saturation sheds" true (List.length shed > 0);
  let s = Engine.stats engine in
  Alcotest.(check bool) "backlog bounded by capacity" true
    (s.Engine.max_backlog <= 2);
  Alcotest.(check bool) "but the queue did fill" true (s.Engine.max_backlog >= 1);
  (* order is preserved *)
  List.iteri
    (fun i (r : Engine.response) ->
      Alcotest.(check int) "response order" i r.Engine.id)
    responses

let test_engine_run_trace_requires_virtual_clock () =
  let prob = Soak.problem ~seed:1 ~n_vertices:40 ~n_labeled:10 in
  let engine =
    Engine.create ~clock:(Clock.monotonic ()) Engine.default_config prob
  in
  check_raises_invalid "monotonic replay rejected" (fun () ->
      Engine.run_trace engine
        [ { Engine.id = 0; arrival_ms = 0.; kind = Engine.Query; faults = [] } ])

(* The engine's costs stand in for work on a virtual clock only: on the
   real clock a clean query answers in its own time, not in cache_ms. *)
let test_engine_costs_virtual_only () =
  let prob = Soak.problem ~seed:1 ~n_vertices:40 ~n_labeled:10 in
  let config =
    { Engine.default_config with
      Engine.deadline_ms = 10_000.;
      costs =
        { Engine.solve_ms = 200.; cache_ms = 200.; relabel_ms = 200.;
          poll_ms = 200. } }
  in
  let real = Engine.create ~clock:(Clock.monotonic ()) config prob in
  let t0 = Unix.gettimeofday () in
  let r = Engine.handle real (req ~clock:(Engine.clock real) 1) in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check string) "real clock: served" "served"
    (Engine.status_name r.Engine.status);
  if wall_ms >= 200. then
    Alcotest.failf "real clock: clean query took %.1f ms of wall time" wall_ms;
  let clock = Clock.virtual_ () in
  let r = Engine.handle (Engine.create ~clock config prob) (req ~clock 1) in
  Alcotest.(check string) "virtual clock: served" "served"
    (Engine.status_name r.Engine.status);
  check_float "virtual clock: cache_ms charged" 200. r.Engine.latency_ms

(* ------------------------------------------------------------------ *)
(* relabel storm: N Sherman-Morrison downdates vs a fresh solve        *)
(* ------------------------------------------------------------------ *)

(* Rebuild the problem with the revealed vertices appended to the
   labeled block (a permutation of the original), solve from scratch,
   and map scores back to the surviving unlabeled vertices. *)
let fresh_solve_after_reveals prob revealed =
  let w = Wg.to_dense prob.P.graph in
  let n = P.n_labeled prob in
  let total = P.size prob in
  let revealed_v = List.map fst revealed in
  let order =
    Array.of_list
      (List.concat
         [
           List.init n (fun i -> i);
           revealed_v;
           List.filter
             (fun v -> not (List.mem v revealed_v))
             (List.init (total - n) (fun a -> n + a));
         ])
  in
  let wp = Mat.init total total (fun i j -> Mat.get w order.(i) order.(j)) in
  let labels =
    Array.append prob.P.labels (Array.of_list (List.map snd revealed))
  in
  let fresh =
    Gssl.Hard.solve (P.make ~graph:(Wg.of_dense wp) ~labels)
  in
  let k = n + List.length revealed in
  Array.init (total - k) (fun a -> (order.(k + a), fresh.(a)))

let prop_relabel_storm seed =
  let n_vertices = 12 + (2 * (seed mod 5)) in
  let n_labeled = 3 + (seed mod 3) in
  let prob = Soak.problem ~seed ~n_vertices ~n_labeled in
  let rng = Prng.Rng.create (seed + 77) in
  let m = P.n_unlabeled prob in
  let storm = 3 + Prng.Rng.int rng (m - 4) in
  let solver = Inc.create prob in
  let pool = Array.init m (fun i -> n_labeled + i) in
  Prng.Rng.shuffle_inplace rng pool;
  let revealed =
    List.init storm (fun i ->
        let v = pool.(i) in
        let y =
          (* mixed labels, including off-{0,1} responses *)
          match Prng.Rng.int rng 3 with
          | 0 -> 0.
          | 1 -> 1.
          | _ -> Prng.Rng.uniform rng (-1.) 2.
        in
        Inc.reveal solver ~vertex:v ~label:y;
        (v, y))
  in
  let incremental = Inc.predict solver in
  let fresh = fresh_solve_after_reveals prob revealed in
  if Array.length incremental <> Array.length fresh then
    QCheck.Test.fail_reportf
      "storm of %d: %d incremental predictions vs %d fresh (seed %d)" storm
      (Array.length incremental) (Array.length fresh) seed;
  let fresh_by_vertex = Array.to_list fresh in
  Array.iter
    (fun (v, s) ->
      match List.assoc_opt v fresh_by_vertex with
      | None ->
          QCheck.Test.fail_reportf "vertex %d missing from fresh solve (seed %d)"
            v seed
      | Some f ->
          if abs_float (s -. f) > 1e-8 then
            QCheck.Test.fail_reportf
              "storm of %d: vertex %d diverged: %.12g vs %.12g (seed %d)" storm
              v s f seed)
    incremental;
  true

(* ------------------------------------------------------------------ *)
(* soak                                                                *)
(* ------------------------------------------------------------------ *)

let small_soak ?(seed = 42) ?(requests = 400) () =
  { Soak.default with Soak.requests; seed; n_vertices = 40; n_labeled = 10 }

let test_soak_holds_invariants () =
  let s = Soak.run (small_soak ()) in
  Alcotest.(check (list string)) "no violations" [] s.Soak.violations;
  Alcotest.(check int) "nothing dropped" 0 s.Soak.dropped;
  Alcotest.(check bool) "ok" true (Soak.ok s);
  (* the trace actually exercises the failure modes *)
  let st = s.Soak.stats in
  Alcotest.(check bool) "some served" true (st.Engine.served > 0);
  Alcotest.(check bool) "some degraded" true (st.Engine.degraded > 0);
  Alcotest.(check bool) "some shed" true (st.Engine.shed > 0);
  Alcotest.(check bool) "some deadline expiries" true
    (st.Engine.deadline_expired > 0);
  Alcotest.(check bool) "latency percentiles ordered" true
    (s.Soak.p50_ms <= s.Soak.p99_ms && s.Soak.p99_ms <= s.Soak.max_ms)

let test_soak_deterministic_replay () =
  let a = Soak.run (small_soak ()) in
  let b = Soak.run (small_soak ()) in
  Alcotest.(check bool) "same seed, same digest" true
    (Int64.equal a.Soak.digest b.Soak.digest);
  Alcotest.(check int) "same served count" a.Soak.stats.Engine.served
    b.Soak.stats.Engine.served;
  let c = Soak.run (small_soak ~seed:43 ()) in
  Alcotest.(check bool) "different seed, different digest" false
    (Int64.equal a.Soak.digest c.Soak.digest);
  (* the built-in replay verifier agrees *)
  let v = Soak.run { (small_soak ~requests:200 ()) with Soak.verify_replay = true } in
  Alcotest.(check bool) "verify_replay passes" true v.Soak.replay_verified;
  Alcotest.(check bool) "ok" true (Soak.ok v)

(* Bit-identity pin: the 400-request soak's response and journal
   digests.  Changes to how the solvers assemble, restrict or certify a
   system must leave both unchanged. *)
let test_soak_pinned_digests () =
  let s = Soak.run { (small_soak ()) with Soak.journal = true } in
  Alcotest.(check string) "response digest" "84d57c32011536b8"
    (Printf.sprintf "%016Lx" s.Soak.digest);
  Alcotest.(check string) "journal digest" "9ed540fe76e61103"
    (Printf.sprintf "%016Lx" s.Soak.journal_digest)

(* The shared replay verifier's failure path: a script whose second run
   moves one digest must come back unverified, with one violation that
   names the digest that moved and none for the one that held. *)
let clean_query id =
  { Engine.id; arrival_ms = 10. *. float_of_int id; kind = Engine.Query;
    faults = [] }

let replay_diverging ~second_run =
  let prob = Soak.problem ~seed:1 ~n_vertices:40 ~n_labeled:10 in
  let runs = ref 0 in
  Soak.replay ~verify_replay:true ~journal:true Engine.default_config prob
    (fun _clock engine ->
      incr runs;
      let responses = Engine.run_trace engine [ clean_query 0 ] in
      let digest = Soak.digest_of responses in
      if !runs = 1 then ((), digest) else second_run engine digest)

let check_moved (r : unit Soak.replayed) ~moved ~held =
  let naming what =
    List.filter
      (fun v -> Astring.String.is_infix ~affix:(what ^ " digest") v)
      r.Soak.violations
  in
  Alcotest.(check bool) "replay not verified" false r.Soak.replay_verified;
  Alcotest.(check int) (moved ^ " digest named") 1 (List.length (naming moved));
  Alcotest.(check int) (held ^ " digest not named") 0 (List.length (naming held))

let test_replay_flags_response_digest () =
  check_moved ~moved:"response" ~held:"journal"
    (replay_diverging ~second_run:(fun _engine digest ->
         ((), Int64.succ digest)))

let test_replay_flags_journal_digest () =
  (* one more request on the second run: one more journal line, same
     response digest *)
  check_moved ~moved:"journal" ~held:"response"
    (replay_diverging ~second_run:(fun engine digest ->
         ignore (Engine.run_trace engine [ clean_query 1 ]);
         ((), digest)))

let suite =
  ( "serve",
    [
      case "clock: virtual arithmetic, forward-only jump" test_virtual_clock;
      case "clock: monotonic advance sleeps" test_monotonic_clock;
      case "deadline: arrival-anchored accounting" test_deadline_accounting;
      case "deadline: should_stop charges per-poll cost"
        test_deadline_should_stop_charges_cost;
      case "breaker: trip, cooldown, half-open probe, close"
        test_breaker_lifecycle;
      case "cg: should_stop aborts between iterations"
        test_cg_cooperative_abort;
      case "solve_sparse: deadline aborts the chain"
        test_solve_sparse_deadline_abort;
      case "fault: latency stall burns budget, corrupts nothing"
        test_latency_stall_injector;
      case "engine: clean query served from warm cache, certified"
        test_engine_clean_query_served_from_cache;
      case "engine: unanchored component is never served from cache"
        test_engine_unanchored_not_cached;
      case "engine: stall past deadline -> degraded + diagnostic"
        test_engine_stall_burns_deadline;
      case "engine: starved solves degrade in one pass, trip breaker"
        test_engine_starved_solve_degrades_and_trips_breaker;
      case "engine: full solve runs only its chain's CG"
        test_engine_full_solve_runs_only_chain_cg;
      case "engine: relabel NaN rejected, finite applied, dup rejected"
        test_engine_relabel_paths;
      case "engine: pinned cache-hit certificates over shuffled relabels"
        test_engine_cache_certificates_pinned;
      case "engine: burst sheds, queue stays bounded, order kept"
        test_engine_burst_sheds_and_bounds_queue;
      case "engine: trace replay demands a virtual clock"
        test_engine_run_trace_requires_virtual_clock;
      case "engine: costs charged on a virtual clock only"
        test_engine_costs_virtual_only;
      qprop ~count:40 "relabel storm: N downdates match a fresh solve"
        prop_relabel_storm;
      case "soak: 400-request chaos run holds every invariant"
        test_soak_holds_invariants;
      case "soak: digest-identical replay, seed-sensitive"
        test_soak_deterministic_replay;
      case "soak: pinned response and journal digests" test_soak_pinned_digests;
      case "replay verifier: response digest moved"
        test_replay_flags_response_digest;
      case "replay verifier: journal digest moved"
        test_replay_flags_journal_digest;
    ] )
