module Check = Robust.Check
module Fault = Robust.Fault
module Problem = Gssl.Problem
module Resilient = Gssl.Resilient
module Incremental = Gssl.Incremental
module Span = Telemetry.Span

type costs = {
  solve_ms : float;
  cache_ms : float;
  relabel_ms : float;
  poll_ms : float;
}

type config = {
  queue_capacity : int;
  deadline_ms : float;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  costs : costs;
  seed : int;
  slo : Obs.Slo.config;
}

let default_config =
  { queue_capacity = 16;
    deadline_ms = 25.;
    breaker_failures = 3;
    breaker_cooldown_ms = 40.;
    costs = { solve_ms = 2.0; cache_ms = 0.5; relabel_ms = 1.0; poll_ms = 0.2 };
    seed = 1;
    slo = Obs.Slo.default }

type kind = Query | Relabel of { vertex : int; label : float }

type request = {
  id : int;
  arrival_ms : float;
  kind : kind;
  faults : Fault.t list;
}

type status = Served | Degraded of string | Shed of string

let status_name = function
  | Served -> "served"
  | Degraded _ -> "degraded"
  | Shed _ -> "shed"

type response = {
  id : int;
  trace_id : int64;
  status : status;
  predictions : (int * float) array;
  certificate : Obs.Health.t option;
  diagnostics : Check.diagnostic list;
  queue_ms : float;
  latency_ms : float;
  cache_hit : bool;
}

type stats = {
  served : int;
  degraded : int;
  shed : int;
  deadline_expired : int;
  solver_aborts : int;
  relabels : int;
  max_backlog : int;
  breaker_trips : int;
  breaker_transitions : int;
  cache_hits : int;
  cache_misses : int;
}

type internal_stats = {
  mutable s_served : int;
  mutable s_degraded : int;
  mutable s_shed : int;
  mutable s_deadline_expired : int;
  mutable s_solver_aborts : int;
  mutable s_relabels : int;
  mutable s_max_backlog : int;
  mutable s_cache_hits : int;
  mutable s_cache_misses : int;
}

type t = {
  config : config;
  clock : Clock.t;
  costs : costs;
  problem : Problem.t;
  warm : Incremental.t option;
  breaker : Breaker.t;
  rng : Prng.Rng.t;
  latency : Obs.Histogram.t;
  queue_wait : Obs.Histogram.t;
  slo : Obs.Slo.t;
  journal : Obs.Journal.t option;
  st : internal_stats;
  transport : Transport.t;
  mutable worker_free_ms : float;
  mutable pending_finish : float list;
}

let c_requests = Telemetry.Counter.make "serve.requests"
let c_served = Telemetry.Counter.make "serve.served"
let c_degraded = Telemetry.Counter.make "serve.degraded"
let c_shed = Telemetry.Counter.make "serve.shed"
let c_deadline = Telemetry.Counter.make "serve.deadline_expired"
let c_cache_hits = Telemetry.Counter.make "serve.cache_hits"
let c_cache_misses = Telemetry.Counter.make "serve.cache_misses"

let create ?(clock = Clock.monotonic ()) ?journal config problem =
  if config.queue_capacity < 1 then
    invalid_arg "Engine.create: queue_capacity must be >= 1";
  if config.deadline_ms <= 0. then
    invalid_arg "Engine.create: deadline_ms must be positive";
  (* Warm the factorization: the server's whole point is paying the
     O(m^3) inverse once.  An unanchored component, or a system too badly
     conditioned to factor, simply leaves it cold — queries then take the
     resilient full-solve path. *)
  let warm =
    try Some (Incremental.create problem)
    with
    | Gssl.Hard.Unanchored_unlabeled _ | Linalg.Cholesky.Not_positive_definite _
      -> None
  in
  { config;
    clock;
    (* the costs stand in for work on a virtual clock; a real clock
       already pays for the work itself *)
    costs =
      (if Clock.is_virtual clock then config.costs
       else { solve_ms = 0.; cache_ms = 0.; relabel_ms = 0.; poll_ms = 0. });
    problem;
    warm;
    breaker =
      Breaker.create ~failure_threshold:config.breaker_failures
        ~cooldown_ms:config.breaker_cooldown_ms clock;
    rng = Prng.Rng.create config.seed;
    latency = Obs.Histogram.create ();
    queue_wait = Obs.Histogram.create ();
    slo = Obs.Slo.create ~config:config.slo ();
    journal;
    st =
      { s_served = 0; s_degraded = 0; s_shed = 0; s_deadline_expired = 0;
        s_solver_aborts = 0; s_relabels = 0; s_max_backlog = 0;
        s_cache_hits = 0; s_cache_misses = 0 };
    transport = Transport.create ();
    worker_free_ms = Clock.now_ms clock;
    pending_finish = [] }

let stats t =
  { served = t.st.s_served;
    degraded = t.st.s_degraded;
    shed = t.st.s_shed;
    deadline_expired = t.st.s_deadline_expired;
    solver_aborts = t.st.s_solver_aborts;
    relabels = t.st.s_relabels;
    max_backlog = t.st.s_max_backlog;
    breaker_trips = Breaker.trips t.breaker;
    breaker_transitions = Breaker.transitions t.breaker;
    cache_hits = t.st.s_cache_hits;
    cache_misses = t.st.s_cache_misses }

let latency_histogram t = t.latency
let queue_histogram t = t.queue_wait
let problem t = t.problem
let breaker t = t.breaker
let journal t = t.journal
let clock t = t.clock
let config t = t.config
let transport t = t.transport
let slo_snapshot t = Obs.Slo.snapshot t.slo

(* Per-request trace: the id is derived from (engine seed, request id)
   so a replay regenerates identical ids, and timestamps come from the
   engine clock so a virtual-clock run journals bit-identically.  The
   root "request" span is closed by [finish]. *)
let make_ctx t (req : request) =
  let kind = match req.kind with Query -> "query" | Relabel _ -> "relabel" in
  Span.trace
    ~now:(fun () -> Clock.now_ms t.clock)
    ~id:(Obs.Trace_ctx.derive_id ~seed:t.config.seed ~request:req.id)
    ~fields:
      [
        ("id", Span.Int req.id);
        ("kind", Span.Str kind);
        ("faults", Span.Int (List.length req.faults));
      ]
    "request"

(* λ→∞ labeled-mean imputation (Prop II.2): the cheapest total answer,
   used when even the cached factorization is unavailable. *)
let mean_predictions t =
  let mean = Resilient.finite_mean t.problem.Problem.labels in
  let n = Problem.n_labeled t.problem in
  let m = Problem.n_unlabeled t.problem in
  Array.init m (fun i -> (n + i, mean))

(* The cached state's current Eq. (5) system, certified against its
   predictions: an honestly recomputed residual on the cache-hit path. *)
let certify_incremental inc =
  if Incremental.n_remaining inc = 0 then None
  else
    let x = Array.map snd (Incremental.predict inc) in
    Some
      (Gssl.System.certify ~system:"serve.incremental" ~rung:"sherman_morrison"
         ~attempts:[] (Incremental.system inc) x)

(* The least healthy certificate of a resilient report — the one worth
   surfacing on the response. *)
let worst_certificate (report : Resilient.report) =
  List.fold_left
    (fun acc (_, cert) ->
      match acc with
      | None -> Some cert
      | Some best ->
          let rank c =
            (if Obs.Health.healthy c then 0. else 1e18)
            +. c.Obs.Health.rel_residual
          in
          if rank cert > rank best then Some cert else Some best)
    None report.Resilient.certificates

let all_healthy (report : Resilient.report) =
  report.Resilient.certificates <> []
  && List.for_all (fun (_, c) -> Obs.Health.healthy c) report.Resilient.certificates

let finish t (req : request) ~ctx ~queue_ms ~cache_hit ?certificate
    ?(diagnostics = []) status predictions =
  Telemetry.Counter.incr c_requests;
  (match status with
  | Served ->
      t.st.s_served <- t.st.s_served + 1;
      Telemetry.Counter.incr c_served
  | Degraded _ ->
      t.st.s_degraded <- t.st.s_degraded + 1;
      Telemetry.Counter.incr c_degraded
  | Shed _ ->
      t.st.s_shed <- t.st.s_shed + 1;
      Telemetry.Counter.incr c_shed);
  let latency_ms =
    match status with
    | Shed _ -> 0.
    | _ -> Clock.now_ms t.clock -. req.arrival_ms
  in
  Obs.Histogram.add t.latency latency_ms;
  Obs.Histogram.add t.queue_wait queue_ms;
  Obs.Histogram.observe "serve.latency_ms" latency_ms;
  (* SLO: the quality objective counts full-fidelity answers only — a
     Served response with a healthy certificate.  Shed requests are
     observed too (latency 0 by convention, quality bad): hiding them
     would let load shedding launder the error budget. *)
  Obs.Slo.observe t.slo ~latency_ms
    ~good_quality:(match status with Served -> true | _ -> false);
  (* Close the request trace: disposition fields on the root span, then
     the journal line.  Closing the root also closes any span left open
     by an abandoned path, so journaled durations are always total. *)
  let reason =
    match status with Served -> None | Degraded r | Shed r -> Some r
  in
  Span.close ctx
    ~fields:
      ([
         ("status", Span.Str (status_name status));
         ("latency_ms", Span.Float latency_ms);
         ("queue_ms", Span.Float queue_ms);
         ("cache_hit", Span.Bool cache_hit);
       ]
      @ match reason with None -> [] | Some r -> [ ("reason", Span.Str r) ]);
  (match t.journal with
  | Some j ->
      Obs.Journal.record j ~request:req.id ~status:(status_name status)
        ?reason ~latency_ms ~queue_ms ~cache_hit ctx
  | None -> ());
  { id = req.id; trace_id = Span.trace_id ctx; status; predictions;
    certificate; diagnostics; queue_ms; latency_ms; cache_hit }

(* The warm factorization for a clean query or relabel, counted as a
   cache hit or miss.  Degraded answers read [t.warm] directly, so they
   do not inflate the hit rate an operator tunes against. *)
let find_warm t =
  (match t.warm with
  | Some _ ->
      t.st.s_cache_hits <- t.st.s_cache_hits + 1;
      Telemetry.Counter.incr c_cache_hits
  | None ->
      t.st.s_cache_misses <- t.st.s_cache_misses + 1;
      Telemetry.Counter.incr c_cache_misses);
  t.warm

(* Degraded answer: warm-factorization predictions when available
   (label propagation from the last known-good state), labeled-mean
   imputation otherwise.  Cheap by construction and always total. *)
let degraded_answer t (req : request) ~ctx ~queue_ms ?(diagnostics = [])
    reason =
  let predictions, cache_hit =
    match t.warm with
    | Some inc -> (Incremental.predict inc, true)
    | None -> (mean_predictions t, false)
  in
  finish t req ~ctx ~queue_ms ~cache_hit ~diagnostics (Degraded reason)
    predictions

(* A cache-hit answer: the cached state's predictions, certified
   against its system, Served when healthy and Degraded with the
   [unhealthy] reason otherwise.  Nothing left to predict certifies as
   healthy. *)
let cached_answer t (req : request) ~ctx ~queue_ms inc ~unhealthy =
  let predictions = Incremental.predict inc in
  let certificate = certify_incremental inc in
  let status =
    match certificate with
    | Some c when not (Obs.Health.healthy c) -> Degraded unhealthy
    | Some _ | None -> Served
  in
  finish t req ~ctx ~queue_ms ~cache_hit:true ?certificate status predictions

let expire t (req : request) ~ctx ~queue_ms ~deadline =
  t.st.s_deadline_expired <- t.st.s_deadline_expired + 1;
  Telemetry.Counter.incr c_deadline;
  Span.event "deadline.expired";
  degraded_answer t req ~ctx ~queue_ms
    ~diagnostics:[ Deadline.diagnostic deadline ]
    "deadline expired"

(* The full resilient solve path: one pass down the fallback chain,
   gated by the circuit breaker, deadline threaded into CG.  Eq. (5)'s
   system is positive semidefinite, so a failed certificate means it is
   numerically singular, and solving it again would only repeat the
   answer or run out of budget. *)
let full_solve t (req : request) ~ctx ~queue_ms ~deadline
    (inj : Fault.injected) =
  if not (Breaker.allow t.breaker) then begin
    Span.event "breaker.blocked";
    degraded_answer t req ~ctx ~queue_ms "circuit breaker open"
  end
  else
    Span.with_ "solve"
      ~fields:
        [ ("breaker", Span.Str (Breaker.state_name (Breaker.state t.breaker))) ]
      (fun () ->
        let failed ?diagnostics reason =
          Breaker.record_failure t.breaker;
          if Deadline.expired deadline then
            expire t req ~ctx ~queue_ms ~deadline
          else degraded_answer t req ~ctx ~queue_ms ?diagnostics reason
        in
        Clock.advance t.clock t.costs.solve_ms;
        if Deadline.expired deadline then failed "deadline expired"
        else
          let should_stop =
            Deadline.should_stop ~cost_ms:t.costs.poll_ms deadline
          in
          let problem =
            Problem.make_unchecked ~graph:inj.Fault.graph
              ~labels:inj.Fault.labels
          in
          let report =
            Resilient.solve_hard ?cg_max_iter:inj.Fault.cg_max_iter
              ~should_stop problem
          in
          let diagnostics = report.Resilient.diagnostics in
          if report.Resilient.aborted then begin
            t.st.s_solver_aborts <- t.st.s_solver_aborts + 1;
            failed ~diagnostics "solve aborted by deadline"
          end
          else if all_healthy report then begin
            Breaker.record_success t.breaker;
            let n = Problem.n_labeled t.problem in
            let predictions =
              Array.mapi (fun i x -> (n + i, x)) report.Resilient.predictions
            in
            finish t req ~ctx ~queue_ms ~cache_hit:false
              ?certificate:(worst_certificate report) ~diagnostics Served
              predictions
          end
          else failed ~diagnostics "unhealthy solve (failed certificate)")

let process t ~ctx ~queue_ms (req : request) =
  let deadline =
    Deadline.at t.clock ~start_ms:req.arrival_ms
      ~budget_ms:t.config.deadline_ms
  in
  (* Chaos first: this request's private view of the problem, plus any
     latency stall, which burns budget before the solve even starts. *)
  let frng = Prng.Rng.substream t.rng ((2 * req.id) + 1) in
  let inj =
    Span.with_ "inject" (fun () ->
        let inj =
          Fault.inject frng
            ~n_labeled:(Problem.n_labeled t.problem)
            req.faults t.problem.Problem.graph t.problem.Problem.labels
        in
        if inj.Fault.stall_ms > 0. then
          Span.annotate [ ("stall_ms", Span.Float inj.Fault.stall_ms) ];
        (* a stall is busy time: on the real clock the worker spins *)
        if Clock.is_virtual t.clock then
          Clock.advance t.clock inj.Fault.stall_ms
        else Fault.busy_wait_ms inj.Fault.stall_ms;
        inj)
  in
  if Deadline.expired deadline then expire t req ~ctx ~queue_ms ~deadline
  else
    match req.kind with
    | Relabel { vertex; label } ->
        if not (Float.is_finite label) then
          degraded_answer t req ~ctx ~queue_ms
            ~diagnostics:[ Check.Non_finite_label { index = vertex } ]
            "non-finite relabel rejected"
        else
          Span.with_ "relabel" ~fields:[ ("vertex", Span.Int vertex) ]
            (fun () ->
              match find_warm t with
              | None ->
                  degraded_answer t req ~ctx ~queue_ms
                    "no cached factorization"
              | Some inc -> begin
                  match Incremental.reveal inc ~vertex ~label with
                  | () ->
                      Clock.advance t.clock t.costs.relabel_ms;
                      t.st.s_relabels <- t.st.s_relabels + 1;
                      cached_answer t req ~ctx ~queue_ms inc
                        ~unhealthy:"incremental update unhealthy"
                  | exception Invalid_argument msg ->
                      degraded_answer t req ~ctx ~queue_ms
                        ("relabel rejected: " ^ msg)
                end)
    | Query when req.faults = [] -> begin
        (* clean query: serve from the cached factorization *)
        match find_warm t with
        | Some inc ->
            Span.with_ "cache_query" (fun () ->
                Clock.advance t.clock t.costs.cache_ms;
                cached_answer t req ~ctx ~queue_ms inc
                  ~unhealthy:"cached answer failed certification")
        | None -> full_solve t req ~ctx ~queue_ms ~deadline inj
      end
    | Query -> full_solve t req ~ctx ~queue_ms ~deadline inj

let handle t req =
  let ctx = make_ctx t req in
  Span.with_trace ctx (fun () -> process t ~ctx ~queue_ms:0. req)

let shed t (req : request) reason =
  let ctx = make_ctx t req in
  finish t req ~ctx ~queue_ms:0. ~cache_hit:false (Shed reason) [||]

(* Single-worker FIFO admission over a pre-recorded arrival trace.
   [pending_finish] holds the finish times of admitted requests; its
   survivors at an arrival instant are exactly the in-flight + queued
   requests, so comparing against [queue_capacity] is the backpressure
   decision.  Requests must be sorted by arrival time. *)
let run_trace t reqs =
  if not (Clock.is_virtual t.clock) then
    invalid_arg "Engine.run_trace: requires a virtual clock (see Clock)";
  List.map
    (fun (req : request) ->
      t.pending_finish <-
        List.filter (fun f -> f > req.arrival_ms) t.pending_finish;
      let backlog = List.length t.pending_finish in
      if backlog > t.st.s_max_backlog then t.st.s_max_backlog <- backlog;
      if backlog >= t.config.queue_capacity then
        shed t req
          (Printf.sprintf "queue full (%d waiting, capacity %d)" backlog
             t.config.queue_capacity)
      else begin
        let start_ms = Stdlib.max req.arrival_ms t.worker_free_ms in
        Clock.jump t.clock start_ms;
        let queue_ms = start_ms -. req.arrival_ms in
        let ctx = make_ctx t req in
        let resp =
          Span.with_trace ctx (fun () -> process t ~ctx ~queue_ms req)
        in
        t.worker_free_ms <- Clock.now_ms t.clock;
        t.pending_finish <- t.worker_free_ms :: t.pending_finish;
        resp
      end)
    reqs

(* ---------------- exposition snapshot ---------------- *)

let breaker_gauge t =
  match Breaker.state t.breaker with
  | Breaker.Closed -> 0.
  | Breaker.Open -> 1.
  | Breaker.Half_open -> 2.

let metrics t =
  let s = stats t in
  let slo = Obs.Slo.snapshot t.slo in
  let open Obs.Expo in
  let c name help value =
    Counter { name; help; value = float_of_int value }
  in
  let g name help value = Gauge { name; help; value } in
  [
    c "serve.requests" "requests admitted or shed"
      (s.served + s.degraded + s.shed);
    c "serve.served" "responses served at full fidelity" s.served;
    c "serve.degraded" "responses explicitly degraded" s.degraded;
    c "serve.shed" "requests shed at admission" s.shed;
    c "serve.deadline_expired" "requests that ran out of budget"
      s.deadline_expired;
    c "serve.solver_aborts" "solves cut short mid-CG by a deadline"
      s.solver_aborts;
    c "serve.relabels" "successful Sherman-Morrison downdates" s.relabels;
    c "serve.breaker_trips" "times the circuit breaker opened"
      s.breaker_trips;
    c "serve.breaker_transitions" "breaker state changes"
      s.breaker_transitions;
    c "serve.cache_hits" "factorization cache hits" s.cache_hits;
    c "serve.cache_misses" "factorization cache misses" s.cache_misses;
    (* the one warm factorization is never evicted; the series stays so
       scrapers and pinned exposition digests keep their shape *)
    c "serve.cache_evictions" "factorization cache evictions" 0;
    g "serve.max_backlog" "deepest queue observed"
      (float_of_int s.max_backlog);
    g "serve.queue_capacity" "admission queue capacity"
      (float_of_int t.config.queue_capacity);
    g "serve.breaker_state" "0=closed 1=open 2=half_open" (breaker_gauge t);
    g "serve.cache_entries" "live factorization cache entries"
      (if Option.is_some t.warm then 1. else 0.);
    g "serve.slo.latency_compliance" "window fraction under the latency threshold"
      slo.Obs.Slo.latency_compliance;
    g "serve.slo.quality_compliance" "window fraction served at full fidelity"
      slo.Obs.Slo.quality_compliance;
    g "serve.slo.latency_burn" "latency error-budget burn rate"
      slo.Obs.Slo.latency_burn;
    g "serve.slo.quality_burn" "quality error-budget burn rate"
      slo.Obs.Slo.quality_burn;
    g "serve.slo.latency_budget" "cumulative latency budget remaining"
      slo.Obs.Slo.latency_budget;
    g "serve.slo.quality_budget" "cumulative quality budget remaining"
      slo.Obs.Slo.quality_budget;
    Summary
      { name = "serve.latency_ms"; help = "request latency"; hist = t.latency };
    Summary
      { name = "serve.queue_ms"; help = "admission queue wait";
        hist = t.queue_wait };
  ]
  @ Transport.metrics t.transport
