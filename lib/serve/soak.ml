module Rng = Prng.Rng
module Wg = Graph.Weighted_graph
module Fault = Robust.Fault
module Problem = Gssl.Problem

(* ---------- shared machinery ---------- *)

(* Exponential arrival gaps with periodic near-simultaneous bursts (to
   saturate the queue).  [make] runs right after each gap draw, so the
   caller's own draws interleave with the gaps on one stream. *)
let schedule rng ~count ~mean_gap_ms ~burst_every ~burst_size make =
  let arrival = ref 0. in
  List.init count (fun i ->
      let in_burst =
        burst_every > 0 && i >= burst_every && i mod burst_every < burst_size
      in
      let gap =
        if in_burst then 0.02 else -.mean_gap_ms *. log (1. -. Rng.float rng)
      in
      arrival := !arrival +. gap;
      make i !arrival)

type relabel_pool = { order : int array; limit : int; mutable next : int }

let relabel_pool rng prob =
  let n = Problem.n_labeled prob in
  let m = Problem.n_unlabeled prob in
  let order = Array.init m (fun i -> n + i) in
  Rng.shuffle_inplace rng order;
  { order; limit = Stdlib.max 0 (m - 8); next = 0 }

let relabels_left pool = pool.next < pool.limit

let take_relabel pool =
  if not (relabels_left pool) then
    invalid_arg "Soak.take_relabel: relabel pool exhausted";
  let vertex = pool.order.(pool.next) in
  pool.next <- pool.next + 1;
  vertex

type 'a replayed = {
  engine : Engine.t;
  result : 'a;
  digest : int64;
  journal_lines : int;
  journal_digest : int64;
  replay_verified : bool;
  wall_ms : float;
  violations : string list;
}

(* The observability pipeline must agree with the engine's own books —
   exactly, not approximately: the SLO tracker saw every response and
   counted full-fidelity answers as quality-good, and the journal's
   running aggregate (same histogram implementation) reproduces the
   engine's status counts and latency percentiles bit-for-bit. *)
let check_observability engine =
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let st = Engine.stats engine in
  let answered = st.Engine.served + st.Engine.degraded + st.Engine.shed in
  let slo = Engine.slo_snapshot engine in
  if slo.Obs.Slo.total <> answered then
    note "slo tracker observed %d responses, engine answered %d"
      slo.Obs.Slo.total answered;
  if slo.Obs.Slo.quality_good <> st.Engine.served then
    note "slo quality_good %d does not reconcile with served %d"
      slo.Obs.Slo.quality_good st.Engine.served;
  (match Engine.journal engine with
  | None -> ()
  | Some j ->
      let agg = Obs.Journal.aggregate j in
      if Obs.Journal.length j <> answered then
        note "journal has %d lines for %d responses" (Obs.Journal.length j)
          answered;
      if agg.Obs.Journal.served <> st.Engine.served
         || agg.Obs.Journal.degraded <> st.Engine.degraded
         || agg.Obs.Journal.shed <> st.Engine.shed
      then
        note
          "journal aggregate %d/%d/%d does not reconcile with stats %d/%d/%d"
          agg.Obs.Journal.served agg.Obs.Journal.degraded agg.Obs.Journal.shed
          st.Engine.served st.Engine.degraded st.Engine.shed;
      let hist = Engine.latency_histogram engine in
      if agg.Obs.Journal.latency_p50 <> Obs.Histogram.p50 hist then
        note "journal p50 %g != engine p50 %g" agg.Obs.Journal.latency_p50
          (Obs.Histogram.p50 hist);
      if agg.Obs.Journal.latency_p99 <> Obs.Histogram.p99 hist then
        note "journal p99 %g != engine p99 %g" agg.Obs.Journal.latency_p99
          (Obs.Histogram.p99 hist);
      (match Obs.Journal.validate_text (Obs.Journal.to_text j) with
      | Ok n when n = answered -> ()
      | Ok n -> note "journal schema validated %d of %d lines" n answered
      | Error msg -> note "journal schema violation: %s" msg));
  List.rev !violations

(* The journal's line count and digest; (0, 0L) without a journal. *)
let journal_book engine =
  match Engine.journal engine with
  | Some j -> (Obs.Journal.length j, Obs.Journal.digest j)
  | None -> (0, 0L)

let replay ~verify_replay ~journal config prob script =
  let wall0 = Telemetry.Monotonic.now_ns () in
  let run_once () =
    let clock = Clock.virtual_ () in
    let journal = if journal then Some (Obs.Journal.create ()) else None in
    let engine = Engine.create ~clock ?journal config prob in
    let result, digest = script clock engine in
    (engine, result, digest)
  in
  let engine, result, digest = run_once () in
  let journal_lines, journal_digest = journal_book engine in
  let diverged =
    if not verify_replay then []
    else begin
      let engine2, _, digest2 = run_once () in
      let moved what a b =
        if Int64.equal a b then []
        else
          [ Printf.sprintf "replay diverged: %s digest %016Lx, then %016Lx"
              what a b ]
      in
      moved "response" digest digest2
      @ moved "journal" journal_digest (snd (journal_book engine2))
    end
  in
  let violations = check_observability engine @ diverged in
  { engine;
    result;
    digest;
    journal_lines;
    journal_digest;
    replay_verified = diverged = [];
    wall_ms = (Telemetry.Monotonic.now_ns () -. wall0) *. 1e-6;
    violations }

(* ---------- the request soak ---------- *)

type config = {
  requests : int;
  seed : int;
  n_vertices : int;
  n_labeled : int;
  queue_capacity : int;
  deadline_ms : float;
  mean_gap_ms : float;
  burst_every : int;
  burst_size : int;
  fault_rate : float;
  relabel_rate : float;
  verify_replay : bool;
  journal : bool;
}

let default =
  { requests = 5000;
    seed = 42;
    n_vertices = 80;
    n_labeled = 20;
    queue_capacity = 16;
    deadline_ms = 25.;
    mean_gap_ms = 4.;
    burst_every = 97;
    burst_size = 24;
    fault_rate = 0.18;
    relabel_rate = 0.04;
    verify_replay = false;
    journal = false }

type summary = {
  requests : int;
  responses : int;
  dropped : int;
  stats : Engine.stats;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  slo : Obs.Slo.snapshot;
  journal_lines : int;
  journal_digest : int64;
  digest : int64;
  replay_verified : bool;
  wall_ms : float;
  violations : string list;
}

(* Two weakly-coupled clusters as a sparse CSR graph: vertex v belongs
   to cluster [v mod 2]; each cluster is a jittered ring plus random
   chords, and a few weak bridges connect the clusters so every vertex
   is anchored.  Labels (the first [n_labeled] vertices, which alternate
   clusters) are the cluster ids — the canonical two-class transductive
   setup the paper's Section II studies. *)
let problem ~seed ~n_vertices ~n_labeled =
  if n_vertices < 8 then invalid_arg "Soak.problem: n_vertices must be >= 8";
  if n_labeled < 2 || n_labeled > n_vertices / 2 then
    invalid_arg "Soak.problem: n_labeled out of range";
  let rng = Rng.create ((seed * 1_000_003) + 7) in
  let coo = Sparse.Coo.create n_vertices n_vertices in
  let add i j w =
    if i <> j then begin
      Sparse.Coo.add coo i j w;
      Sparse.Coo.add coo j i w
    end
  in
  let member c p = (2 * p) + c in
  let cluster_size c = (n_vertices - c + 1) / 2 in
  for c = 0 to 1 do
    let s = cluster_size c in
    for p = 0 to s - 1 do
      (* ring backbone *)
      add (member c p) (member c ((p + 1) mod s)) (1. +. Rng.uniform rng 0. 0.2)
    done;
    (* random chords for conductance *)
    for _ = 1 to s / 2 do
      let p = Rng.int rng s and q = Rng.int rng s in
      if p <> q then add (member c p) (member c q) (0.4 +. Rng.uniform rng 0. 0.2)
    done
  done;
  (* weak inter-cluster bridges *)
  for _ = 1 to 3 do
    let p = Rng.int rng (cluster_size 0) and q = Rng.int rng (cluster_size 1) in
    add (member 0 p) (member 1 q) 0.05
  done;
  let graph = Wg.of_sparse_unchecked (Sparse.Csr.of_coo coo) in
  let labels = Array.init n_labeled (fun v -> float_of_int (v mod 2)) in
  Problem.make ~graph ~labels

(* Deterministic request trace on the shared schedule: a seeded mix of
   clean queries, faulted queries and relabels.  Relabels never exhaust
   the unlabeled pool, and a slice of them carry NaN labels to exercise
   the rejection path. *)
let gen_trace (cfg : config) prob =
  let rng = Rng.create ((cfg.seed * 7919) + 17) in
  let pool = relabel_pool rng prob in
  schedule rng ~count:cfg.requests ~mean_gap_ms:cfg.mean_gap_ms
    ~burst_every:cfg.burst_every ~burst_size:cfg.burst_size
    (fun id arrival_ms ->
      let kind, faults =
        let u = Rng.float rng in
        if u < cfg.relabel_rate && relabels_left pool then begin
          let vertex = take_relabel pool in
          let label =
            if Rng.float rng < 0.15 then Float.nan
            else float_of_int (vertex mod 2)
          in
          (Engine.Relabel { vertex; label }, [])
        end
        else if u < cfg.relabel_rate +. cfg.fault_rate then
          let faults =
            match Rng.int rng 5 with
            | 0 -> [ Fault.Latency_stall { ms = Rng.uniform rng 5. 40. } ]
            | 1 -> [ Fault.Cg_cap { max_iter = 2 } ]
            | 2 -> [ Fault.Nan_poison_weight { count = 3 } ]
            | 3 -> [ Fault.Label_flip { count = 3 } ]
            | _ ->
                [ Fault.Latency_stall { ms = Rng.uniform rng 5. 20. };
                  Fault.Cg_cap { max_iter = 3 } ]
          in
          (Engine.Query, faults)
        else (Engine.Query, [])
      in
      { Engine.id; arrival_ms; kind; faults })

let digest_of responses =
  let combine = Prng.Splitmix64.combine in
  List.fold_left
    (fun h (r : Engine.response) ->
      let h = combine h (Int64.of_int r.Engine.id) in
      let h =
        combine h
          (Int64.of_int
             (match r.Engine.status with
             | Engine.Served -> 1
             | Engine.Degraded _ -> 2
             | Engine.Shed _ -> 3))
      in
      let h = combine h (Int64.bits_of_float r.Engine.latency_ms) in
      Array.fold_left
        (fun h (v, x) ->
          combine (combine h (Int64.of_int v)) (Int64.bits_of_float x))
        h r.Engine.predictions)
    0x5eedL responses

let engine_config (cfg : config) =
  { Engine.default_config with
    Engine.queue_capacity = cfg.queue_capacity;
    deadline_ms = cfg.deadline_ms;
    seed = cfg.seed }

let check_invariants (cfg : config) (responses : Engine.response list)
    (st : Engine.stats) =
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let n_resp = List.length responses in
  if n_resp <> cfg.requests then
    note "dropped responses: %d of %d requests answered" n_resp cfg.requests;
  List.iter
    (fun (r : Engine.response) ->
      match r.Engine.status with
      | Engine.Served -> begin
          match r.Engine.certificate with
          | Some c when Obs.Health.healthy c -> ()
          | Some _ -> note "request %d served with an unhealthy certificate" r.Engine.id
          | None -> note "request %d served without a certificate" r.Engine.id
        end
      | Engine.Degraded _ | Engine.Shed _ -> ())
    responses;
  if st.Engine.max_backlog > cfg.queue_capacity then
    note "queue grew to %d beyond capacity %d" st.Engine.max_backlog
      cfg.queue_capacity;
  if st.Engine.served = 0 then note "no request was served at all";
  List.rev !violations

let run_full (cfg : config) =
  let prob = problem ~seed:cfg.seed ~n_vertices:cfg.n_vertices
      ~n_labeled:cfg.n_labeled in
  let trace = gen_trace cfg prob in
  let r =
    replay ~verify_replay:cfg.verify_replay ~journal:cfg.journal
      (engine_config cfg) prob (fun _clock engine ->
        let responses = Engine.run_trace engine trace in
        (responses, digest_of responses))
  in
  let engine = r.engine in
  let stats = Engine.stats engine in
  let hist = Engine.latency_histogram engine in
  let n_resp = List.length r.result in
  let summary =
    { requests = cfg.requests;
      responses = n_resp;
      dropped = cfg.requests - n_resp;
      stats;
      p50_ms = Obs.Histogram.p50 hist;
      p99_ms = Obs.Histogram.p99 hist;
      max_ms = Obs.Histogram.max_value hist;
      slo = Engine.slo_snapshot engine;
      journal_lines = r.journal_lines;
      journal_digest = r.journal_digest;
      digest = r.digest;
      replay_verified = r.replay_verified;
      wall_ms = r.wall_ms;
      violations = check_invariants cfg r.result stats @ r.violations }
  in
  (summary, engine)

let run cfg = fst (run_full cfg)

let describe (s : summary) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string b (str ^ "\n")) fmt in
  line "soak: %d requests, %d responses (%d dropped)" s.requests s.responses
    s.dropped;
  let st = s.stats in
  line "  served %d | degraded %d | shed %d" st.Engine.served st.Engine.degraded
    st.Engine.shed;
  line "  deadline expired %d | cg aborts %d | relabels %d"
    st.Engine.deadline_expired st.Engine.solver_aborts st.Engine.relabels;
  line "  breaker trips %d (transitions %d) | cache hits/misses %d/%d | max backlog %d"
    st.Engine.breaker_trips st.Engine.breaker_transitions st.Engine.cache_hits
    st.Engine.cache_misses st.Engine.max_backlog;
  line "  latency (virtual) p50 %.3f ms | p99 %.3f ms | max %.3f ms" s.p50_ms
    s.p99_ms s.max_ms;
  line
    "  slo: latency %.1f%% compliant (burn %.2f, budget %.0f%%) | quality %.1f%% (burn %.2f, budget %.0f%%)"
    (100. *. s.slo.Obs.Slo.latency_compliance)
    s.slo.Obs.Slo.latency_burn
    (100. *. s.slo.Obs.Slo.latency_budget)
    (100. *. s.slo.Obs.Slo.quality_compliance)
    s.slo.Obs.Slo.quality_burn
    (100. *. s.slo.Obs.Slo.quality_budget);
  if s.journal_lines > 0 then
    line "  journal: %d lines, digest %016Lx" s.journal_lines s.journal_digest;
  line "  digest %016Lx | replay %s | wall %.1f ms" s.digest
    (if s.replay_verified then "verified" else "DIVERGED")
    s.wall_ms;
  (match s.violations with
  | [] -> line "  invariants: all hold"
  | vs ->
      line "  INVARIANT VIOLATIONS:";
      List.iter (fun v -> line "    - %s" v) vs);
  Buffer.contents b

let ok (s : summary) = s.violations = [] && s.dropped = 0
