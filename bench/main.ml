(* Bechamel benchmark harness.

   One benchmark per figure of the paper (a single replicate of that
   figure's innermost work unit at a representative size), the
   Proposition II.1 complexity comparison (hard's m^3 solve vs soft's
   (n+m)^3 solve at matched sizes), and ablation benches for the design
   choices called out in DESIGN.md §5 (solver backends, soft methods,
   kernel choice, dense vs kNN-sparsified graphs).

   Run with:  dune exec bench/main.exe

   Two extra modes use the telemetry subsystem instead of bechamel:
     --profile   per-phase JSON report (wall_ms, matvecs, solver
                 iterations, and all nonzero counters) for the hard and
                 soft solve paths at representative sizes
     --smoke     small --profile run that re-parses its own JSON output
                 and asserts the expected fields are present (CI guard) *)

open Bechamel
module Mat = Linalg.Mat

(* ------------------------------------------------------------------ *)
(* fixtures (built once, outside the timed region)                     *)
(* ------------------------------------------------------------------ *)

let synthetic_problem ~seed ~model ~n ~m =
  let rng = Prng.Rng.create seed in
  let samples = Dataset.Synthetic.sample_many rng model (n + m) in
  let h = Kernel.Bandwidth.paper_rate ~d:5 n in
  fst
    (Dataset.Synthetic.to_problem ~kernel:Kernel.Kernel_fn.Rbf
       ~bandwidth:(Kernel.Bandwidth.Fixed h) ~n_labeled:n samples)

let synthetic_samples ~seed ~model ~count =
  Dataset.Synthetic.sample_many (Prng.Rng.create seed) model count

(* One full replicate of a synthetic figure's work: draw data, build the
   graph, evaluate every lambda.  This is the unit that Figs 1-4 repeat
   over their grids. *)
let figure_replicate ~model ~n ~m rng =
  let samples = Dataset.Synthetic.sample_many rng model (n + m) in
  let h = Kernel.Bandwidth.paper_rate ~d:5 n in
  let problem, truth =
    Dataset.Synthetic.to_problem ~kernel:Kernel.Kernel_fn.Rbf
      ~bandwidth:(Kernel.Bandwidth.Fixed h) ~n_labeled:n samples
  in
  List.map
    (fun lambda ->
      Stats.Metrics.rmse truth (Experiment.Figures.predict_adaptive ~lambda problem))
    Experiment.Figures.default_lambdas

let fig_bench name ~model ~n ~m seed =
  let rng = Prng.Rng.create seed in
  Test.make ~name (Staged.stage (fun () -> figure_replicate ~model ~n ~m rng))

(* COIL fixture for the Fig. 5 unit: similarity matrix + one 80/20 fold. *)
let coil_fixture =
  lazy
    (let rng = Prng.Rng.create 5 in
     let data = Dataset.Coil.generate rng in
     let keep = Prng.Rng.sample_without_replacement rng 240 1500 in
     let points = Array.map (fun i -> (Dataset.Coil.points data).(i)) keep in
     let labels = Array.map (fun i -> (Dataset.Coil.labels data).(i)) keep in
     let d2 = Kernel.Pairwise.sq_distance_matrix points in
     let bandwidth =
       sqrt (Stats.Descriptive.median_of_pairwise_sq_distances points)
     in
     let w =
       Kernel.Similarity.dense_of_sq_distances ~kernel:Kernel.Kernel_fn.Rbf
         ~bandwidth d2
     in
     let split =
       Dataset.Splits.ratio_split rng ~n:(Array.length points) ~labeled_fraction:0.8
     in
     let train = split.Dataset.Splits.train and test = split.Dataset.Splits.test in
     let perm = Array.append train test in
     let n_total = Array.length points in
     let wp = Mat.init n_total n_total (fun i j -> Mat.get w perm.(i) perm.(j)) in
     let y = Array.map (fun i -> if labels.(i) then 1. else 0.) train in
     let problem =
       Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense wp) ~labels:y
     in
     let truth = Array.map (fun i -> labels.(i)) test in
     (problem, truth))

let fig5_bench =
  Test.make ~name:"fig5: one 80/20 fold, 7 lambdas (COIL-240)"
    (Staged.stage (fun () ->
         let problem, truth = Lazy.force coil_fixture in
         List.map
           (fun lambda ->
             let scores = Experiment.Figures.predict_adaptive ~lambda problem in
             Stats.Roc.auc ~truth ~scores)
           Experiment.Figures.coil_lambdas))

(* ------------------------------------------------------------------ *)
(* Prop II.1 complexity: hard O(m^3) vs soft O((n+m)^3)                 *)
(* ------------------------------------------------------------------ *)

let complexity_benches =
  List.concat_map
    (fun size ->
      let problem =
        synthetic_problem ~seed:(1000 + size) ~model:Dataset.Synthetic.Model1
          ~n:size ~m:size
      in
      [
        Test.make
          ~name:(Printf.sprintf "complexity: hard direct, m=%d" size)
          (Staged.stage (fun () -> Gssl.Hard.solve ~solver:Gssl.Hard.Cholesky problem));
        Test.make
          ~name:(Printf.sprintf "complexity: soft direct, n+m=%d" (2 * size))
          (Staged.stage (fun () ->
               Gssl.Soft.solve ~method_:Gssl.Soft.Full_cholesky ~lambda:0.1 problem));
      ])
    [ 50; 100; 200 ]

(* ------------------------------------------------------------------ *)
(* ablations                                                           *)
(* ------------------------------------------------------------------ *)

let solver_ablation =
  let problem =
    synthetic_problem ~seed:77 ~model:Dataset.Synthetic.Model1 ~n:150 ~m:100
  in
  [
    Test.make ~name:"hard solver: cholesky (m=100)"
      (Staged.stage (fun () -> Gssl.Hard.solve ~solver:Gssl.Hard.Cholesky problem));
    Test.make ~name:"hard solver: lu (m=100)"
      (Staged.stage (fun () -> Gssl.Hard.solve ~solver:Gssl.Hard.Lu problem));
    Test.make ~name:"hard solver: cg (m=100)"
      (Staged.stage (fun () ->
           Gssl.Hard.solve ~solver:(Gssl.Hard.Cg { tol = 1e-9 }) problem));
    Test.make ~name:"hard solver: label propagation (m=100)"
      (Staged.stage (fun () -> Gssl.Label_propagation.solve_exn ~tol:1e-9 problem));
    Test.make ~name:"baseline: nadaraya-watson (m=100)"
      (Staged.stage (fun () -> Gssl.Nadaraya_watson.of_problem problem));
  ]

let soft_method_ablation =
  let problem =
    synthetic_problem ~seed:78 ~model:Dataset.Synthetic.Model1 ~n:150 ~m:100
  in
  [
    Test.make ~name:"soft method: full cholesky (n+m=250)"
      (Staged.stage (fun () ->
           Gssl.Soft.solve ~method_:Gssl.Soft.Full_cholesky ~lambda:0.1 problem));
    Test.make ~name:"soft method: block eq.(4) (n+m=250)"
      (Staged.stage (fun () ->
           Gssl.Soft.solve ~method_:Gssl.Soft.Block ~lambda:0.1 problem));
    Test.make ~name:"soft method: matrix-free cg (n+m=250)"
      (Staged.stage (fun () ->
           Gssl.Soft.solve ~method_:(Gssl.Soft.Cg { tol = 1e-9 }) ~lambda:0.1 problem));
  ]

let kernel_ablation =
  let samples = synthetic_samples ~seed:79 ~model:Dataset.Synthetic.Model1 ~count:300 in
  let points = Array.map (fun s -> s.Dataset.Synthetic.x) samples in
  let h = Kernel.Bandwidth.paper_rate ~d:5 270 in
  [
    Test.make ~name:"kernel build: plain rbf (300 pts)"
      (Staged.stage (fun () ->
           Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h points));
    Test.make ~name:"kernel build: truncated rbf (300 pts)"
      (Staged.stage (fun () ->
           Kernel.Similarity.dense ~kernel:(Kernel.Kernel_fn.Truncated_rbf 3.)
             ~bandwidth:h points));
    Test.make ~name:"kernel build: epanechnikov (300 pts)"
      (Staged.stage (fun () ->
           Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Epanechnikov
             ~bandwidth:(3. *. h) points));
    Test.make ~name:"kernel build: knn sparsified k=10 (300 pts)"
      (Staged.stage (fun () ->
           Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h ~k:10
             points));
  ]

let dense_vs_sparse_ablation =
  let rng = Prng.Rng.create 80 in
  let samples = Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 300 in
  let points = Array.map (fun s -> s.Dataset.Synthetic.x) samples in
  let labels = Array.init 200 (fun i -> samples.(i).Dataset.Synthetic.y) in
  let h = Kernel.Bandwidth.paper_rate ~d:5 200 in
  let dense_problem =
    Gssl.Problem.make
      ~graph:
        (Graph.Weighted_graph.of_dense
           (Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h points))
      ~labels
  in
  let sparse_problem =
    Gssl.Problem.make
      ~graph:
        (Graph.Weighted_graph.of_sparse
           (Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h ~k:15
              points))
      ~labels
  in
  [
    Test.make ~name:"graph: dense hard solve (300 pts)"
      (Staged.stage (fun () -> Gssl.Hard.solve dense_problem));
    Test.make ~name:"graph: knn-15 hard solve (300 pts)"
      (Staged.stage (fun () -> Gssl.Hard.solve sparse_problem));
  ]

let incremental_ablation =
  (* revealing 10 labels: incremental downdates vs refit-from-scratch *)
  let problem =
    synthetic_problem ~seed:81 ~model:Dataset.Synthetic.Model1 ~n:50 ~m:120
  in
  let reveal_incremental () =
    let solver = Gssl.Incremental.create problem in
    for k = 0 to 9 do
      Gssl.Incremental.reveal solver ~vertex:(50 + (k * 7)) ~label:1.
    done;
    Gssl.Incremental.predict solver
  in
  let reveal_refit () =
    (* the naive route: after each reveal, re-solve an equivalent problem *)
    let w = Graph.Weighted_graph.to_dense problem.Gssl.Problem.graph in
    let out = ref [||] in
    for k = 1 to 10 do
      let revealed = Array.init k (fun i -> 50 + (i * 7)) in
      let keep_unlabeled =
        Array.of_list
          (List.filter
             (fun v -> not (Array.exists (( = ) v) revealed))
             (List.init 120 (fun a -> 50 + a)))
      in
      let order =
        Array.concat [ Array.init 50 (fun i -> i); revealed; keep_unlabeled ]
      in
      let size = Array.length order in
      let wp = Mat.init size size (fun i j -> Mat.get w order.(i) order.(j)) in
      let labels =
        Array.append problem.Gssl.Problem.labels (Array.make k 1.)
      in
      let p =
        Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense wp) ~labels
      in
      out := Gssl.Hard.solve p
    done;
    !out
  in
  [
    Test.make ~name:"incremental: 10 reveals, rank-one downdates (m=120)"
      (Staged.stage reveal_incremental);
    Test.make ~name:"incremental: 10 reveals, refit each time (m=120)"
      (Staged.stage reveal_refit);
  ]

let nystrom_ablation =
  let samples = synthetic_samples ~seed:82 ~model:Dataset.Synthetic.Model1 ~count:400 in
  let points = Array.map (fun s -> s.Dataset.Synthetic.x) samples in
  let h = Kernel.Bandwidth.paper_rate ~d:5 360 in
  let rng = Prng.Rng.create 83 in
  let approx =
    Kernel.Nystrom.fit ~rng ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h
      ~landmarks:40 points
  in
  let exact =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h points
  in
  let x = Array.init 400 (fun i -> float_of_int (i mod 7) /. 7.) in
  [
    Test.make ~name:"nystrom: fit 40 landmarks (400 pts)"
      (Staged.stage (fun () ->
           Kernel.Nystrom.fit ~rng:(Prng.Rng.create 83) ~kernel:Kernel.Kernel_fn.Rbf
             ~bandwidth:h ~landmarks:40 points));
    Test.make ~name:"nystrom: W~x multiply (400 pts, 40 lm)"
      (Staged.stage (fun () -> Kernel.Nystrom.multiply approx x));
    Test.make ~name:"nystrom: exact Wx multiply (400 pts)"
      (Staged.stage (fun () -> Mat.mv exact x));
    Test.make ~name:"nystrom: exact W build (400 pts)"
      (Staged.stage (fun () ->
           Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h points));
  ]

let scalable_ablation =
  (* kNN-sparsified graph at 800 points: CSR+CG path vs dense Cholesky *)
  let rng = Prng.Rng.create 84 in
  let samples = Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 800 in
  let points = Array.map (fun s -> s.Dataset.Synthetic.x) samples in
  let labels = Array.init 200 (fun i -> samples.(i).Dataset.Synthetic.y) in
  let h = Kernel.Bandwidth.paper_rate ~d:5 200 in
  let sparse_w =
    Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h ~k:12 points
  in
  let sparse_problem =
    Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_sparse sparse_w) ~labels
  in
  [
    Test.make ~name:"scalable: csr+cg hard solve (800 pts, knn-12)"
      (Staged.stage (fun () -> Gssl.Scalable.solve_hard ~tol:1e-9 sparse_problem));
    Test.make ~name:"scalable: dense cholesky hard solve (800 pts, knn-12)"
      (Staged.stage (fun () -> Gssl.Hard.solve sparse_problem));
    Test.make ~name:"scalable: gauss-seidel hard solve (800 pts, knn-12)"
      (Staged.stage (fun () ->
           Gssl.Scalable.solve_stationary ~tol:1e-9
             Sparse.Stationary.Gauss_seidel sparse_problem));
  ]

let baseline_benches =
  let problem =
    synthetic_problem ~seed:85 ~model:Dataset.Synthetic.Model1 ~n:150 ~m:100
  in
  let rng = Prng.Rng.create 86 in
  let samples = Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 250 in
  let labeled =
    Array.init 150 (fun i -> (samples.(i).Dataset.Synthetic.x, samples.(i).Dataset.Synthetic.y))
  in
  let unlabeled = Array.init 100 (fun a -> samples.(150 + a).Dataset.Synthetic.x) in
  let h = Kernel.Bandwidth.paper_rate ~d:5 150 in
  [
    Test.make ~name:"baseline: local-global consistency (n+m=250)"
      (Staged.stage (fun () -> Gssl.Local_global.scores problem));
    Test.make ~name:"baseline: laprls fit+predict (n+m=250)"
      (Staged.stage (fun () ->
           Gssl.Laprls.predict_unlabeled
             (Gssl.Laprls.fit ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h ~labeled
                unlabeled)));
  ]

(* ------------------------------------------------------------------ *)
(* telemetry profile: --profile / --smoke                              *)
(* ------------------------------------------------------------------ *)

module Profile = struct
  module T = Telemetry

  (* Phases whose baseline is under 5 ms are timed as the median of
     [short_calls] calls, the first included: a single call that short
     measures scheduler noise as much as the phase. *)
  let short_calls = 11

  let timed_call name f =
    T.Registry.reset ();
    T.Span.with_ name (fun () -> ignore (Sys.opaque_identity (f ())));
    T.Span.total_ms name

  (* A phase's first call, on a fresh registry, so every counter in the
     report is attributable to that phase alone.  Returns its wall time
     and the report, which takes the phase's final wall time and ends
     with the [extra] fields. *)
  let first_call ?(extra = []) name f =
    let first_ms = timed_call name f in
    let matvecs = T.Counter.get "sparse.matvecs" + T.Counter.get "linalg.gemv" in
    let iterations =
      T.Counter.get "cg.iterations" + T.Counter.get "stationary.iterations"
    in
    let counters =
      List.filter (fun (_, v) -> v <> 0) (T.Counter.snapshot ())
    in
    (* every fallback-chain counter, zeros included: "no escalation" is a
       claim the profile should make explicitly, not by omission *)
    let fallback_prefix = "robust.fallback." in
    let fallback =
      List.filter
        (fun (k, _) ->
          String.length k >= String.length fallback_prefix
          && String.sub k 0 (String.length fallback_prefix) = fallback_prefix)
        (T.Counter.snapshot ())
    in
    (* per-span latency percentiles for this phase (the registry was
       fresh at phase start, so every histogram belongs to it) *)
    let quantiles = Obs.Histogram.quantiles_json () in
    let report wall_ms =
      T.Export.(
        Obj
          ([
            ("name", Str name);
            ("wall_ms", Num wall_ms);
            ("span_ms_quantiles", quantiles);
            ("matvecs", Num (float_of_int matvecs));
            ("iterations", Num (float_of_int iterations));
            ( "counters",
              Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) counters)
            );
            ( "fallback",
              Obj (List.map (fun (k, v) -> (k, Num (float_of_int v))) fallback)
            );
          ]
          @ extra))
    in
    (first_ms, report)

  (* One phase = one instrumented solve; further [calls] only refine its
     wall time. *)
  let run_phase ?(calls = 1) ?extra name f =
    let first_ms, report = first_call ?extra name f in
    report
      (Stats.Descriptive.median
         (Array.init calls (fun k ->
              if k = 0 then first_ms else timed_call name f)))

  (* Two short phases whose wall-time ratio is a gated speedup, timed in
     alternating calls (a, b, a, b, …) so that a burst of host noise
     lands on both legs rather than on whichever ran second.  Each leg
     keeps its first-call counters and the median of its own
     [short_calls] calls. *)
  let run_pair (name_a, f_a) (name_b, f_b) =
    let first_a, report_a = first_call name_a f_a in
    let first_b, report_b = first_call name_b f_b in
    let ms_a = Array.make short_calls first_a in
    let ms_b = Array.make short_calls first_b in
    for k = 1 to short_calls - 1 do
      ms_a.(k) <- timed_call name_a f_a;
      ms_b.(k) <- timed_call name_b f_b
    done;
    ( report_a (Stats.Descriptive.median ms_a),
      report_b (Stats.Descriptive.median ms_b) )

  let knn_problem ~seed ~count ~n_labeled ~k =
    let rng = Prng.Rng.create seed in
    let samples =
      Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 count
    in
    let points = Array.map (fun s -> s.Dataset.Synthetic.x) samples in
    let labels =
      Array.init n_labeled (fun i -> samples.(i).Dataset.Synthetic.y)
    in
    let h = Kernel.Bandwidth.paper_rate ~d:5 n_labeled in
    let w =
      Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h ~k points
    in
    Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_sparse w) ~labels

  (* The reference the kd-tree's build races: every point's [k] nearest
     others by a full scan, one query a pool row, each kept sorted by
     (distance², index) through insertion (a later index never displaces
     an equal distance).  Distances run over a flat copy in
     [Vec.dist2_sq]'s operation order, so the lists are the tree's. *)
  let scan_knn points k =
    let n = Array.length points and d = Array.length points.(0) in
    let flat = Array.concat (Array.to_list points) in
    let out = Array.make n [||] in
    Parallel.Dispatch.run Parallel.Dispatch.Pairwise ~work:(n * n) n
      (fun lo hi ->
        let d2 = Array.make k 0. and id = Array.make k 0 in
        for i = lo to hi - 1 do
          let size = ref 0 in
          for j = 0 to n - 1 do
            if j <> i then begin
              let acc = ref 0. in
              for c = 0 to d - 1 do
                let dx = flat.((j * d) + c) -. flat.((i * d) + c) in
                acc := !acc +. (dx *. dx)
              done;
              let dj = !acc in
              if !size < k || dj < d2.(k - 1) then begin
                let p = ref (Stdlib.min !size (k - 1)) in
                while !p > 0 && d2.(!p - 1) > dj do
                  d2.(!p) <- d2.(!p - 1);
                  id.(!p) <- id.(!p - 1);
                  decr p
                done;
                d2.(!p) <- dj;
                id.(!p) <- j;
                if !size < k then incr size
              end
            end
          done;
          out.(i) <- Array.copy id
        done);
    out

  (* Words a CG solve allocates per iteration, on this domain (where the
     solver allocates) with telemetry off (so span bookkeeping is not
     counted): the difference between two solves capped at 2 and 8
     iterations, which share every set-up cost, over 6.  [solve k] must
     raise [Failure] (no convergence) at both caps.  The minor heap is
     emptied at both ends of each window, so a promotion inside it moves
     only words allocated inside it. *)
  let words_per_iteration solve =
    let words () =
      Gc.minor ();
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let run k =
      let w0 = words () in
      (match solve k with
      | _ ->
          failwith
            (Printf.sprintf "bench: a solve capped at %d iterations converged" k)
      | exception Failure _ -> ());
      words () -. w0
    in
    T.Registry.with_disabled (fun () ->
        ignore (run 2);
        (run 8 -. run 2) /. 6.)

  (* The bound [make bench-smoke] holds CG to, shared with test_scale's
     allocation test: far below the n words one fresh vector costs. *)
  let max_words_per_iteration = 1024.

  let report ~smoke () =
    let n, m, knn_count, knn_k =
      if smoke then (40, 40, 150, 10) else (150, 150, 800, 12)
    in
    (* scaling-layer sizes: ann_n is where the kd-tree's kNN graph
       (ann_build) races the O(n²) scan (knn_exact_build) on the same
       points; mg_n is the
       low-label-rate solve the V-cycle preconditioner exists for;
       scale_n is the end-to-end graph-build + multigrid-solve pipeline
       (10⁶ vertices in profile mode). *)
    let ann_n = if smoke then 3000 else 8000 in
    let ann_k = 8 in
    let mg_n = if smoke then 4000 else 100_000 in
    let scale_n = if smoke then 20_000 else 1_000_000 in
    (* serial-vs-parallel kernel phases: run both legs over one fixture,
       assert the parallel leg is bit-identical to the serial one, and
       report the wall-clock ratio (meaningful only on multicore boxes;
       on a single hardware thread it hovers around or below 1). *)
    let gemm_n = if smoke then 160 else 512 in
    let pair_n = if smoke then 300 else 1500 in
    let spmv_n = if smoke then 300 else 800 in
    let spmv_reps = 40 in
    let par_domains = Stdlib.max 2 (Parallel.Pool.default_domain_count ()) in
    (* fixtures are built before telemetry is enabled *)
    let dense_problem =
      synthetic_problem ~seed:90 ~model:Dataset.Synthetic.Model1 ~n ~m
    in
    let sparse_problem =
      knn_problem ~seed:91 ~count:knn_count ~n_labeled:(knn_count / 4) ~k:knn_k
    in
    let krng = Prng.Rng.create 97 in
    let gemm_a = Mat.init gemm_n gemm_n (fun _ _ -> Prng.Rng.float krng) in
    let gemm_b = Mat.init gemm_n gemm_n (fun _ _ -> Prng.Rng.float krng) in
    let pair_points =
      Array.map
        (fun s -> s.Dataset.Synthetic.x)
        (synthetic_samples ~seed:98 ~model:Dataset.Synthetic.Model1 ~count:pair_n)
    in
    let spmv_w =
      let points =
        Array.map
          (fun s -> s.Dataset.Synthetic.x)
          (synthetic_samples ~seed:99 ~model:Dataset.Synthetic.Model1
             ~count:spmv_n)
      in
      let h = Kernel.Bandwidth.paper_rate ~d:5 spmv_n in
      Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h ~k:12
        points
    in
    let spmv_x = Array.init spmv_n (fun i -> sin (float_of_int i)) in
    let spmv_loop () =
      let out = ref spmv_x in
      for _ = 1 to spmv_reps do
        out := Sparse.Csr.mv spmv_w spmv_x
      done;
      !out
    in
    (* bit-identity references, computed serially and untimed *)
    let gemm_ref = Parallel.Pool.sequential (fun () -> Mat.mm gemm_a gemm_b) in
    let pair_ref =
      Parallel.Pool.sequential (fun () ->
          Kernel.Pairwise.sq_distance_matrix pair_points)
    in
    let spmv_ref = Parallel.Pool.sequential spmv_loop in
    let assert_identical kernel ok =
      if not ok then
        failwith
          (Printf.sprintf
             "bench: %s parallel result is not bit-identical to serial" kernel)
    in
    let short name f = run_phase ~calls:short_calls name f in
    (* parallel legs: the fixture sizes sit above every kernel's
       dispatch threshold, so these phases go through the pool (validate
       checks the decision counters) — they exist to prove bit-identity
       and measure the raw pool cost *)
    let par name f =
      short name (fun () -> Parallel.Pool.with_default_domains par_domains f)
    in
    (* serve-layer soak: replay a deterministic chaos trace (with replay
       verification, so the phase also proves digest determinism) through
       the admission-controlled engine on a virtual clock.  The phase's
       wall_ms is the real replay cost; the virtual-clock latency
       percentiles ride along as pseudo-phases below so the regression
       gate tracks serving latency, not just solver throughput. *)
    let soak_cfg =
      { Serve.Soak.default with
        Serve.Soak.requests = (if smoke then 600 else 3000);
        verify_replay = true }
    in
    let soak_summary = ref None in
    let journal_summary = ref None in
    (* scaling fixtures: one point cloud shared by the tree-vs-scan
       graph-build race; one low-label-rate kNN problem shared by the
       flat-vs-multigrid CG race; raw points + labels for the end-to-end
       pipeline (there the graph build happens inside the phase, because
       build cost is part of what scale_1m measures) *)
    let ann_points =
      Array.map
        (fun s -> s.Dataset.Synthetic.x)
        (synthetic_samples ~seed:101 ~model:Dataset.Synthetic.Model1
           ~count:ann_n)
    in
    let ann_h = Kernel.Bandwidth.paper_rate ~d:5 ann_n in
    let mg_problem =
      knn_problem ~seed:102 ~count:mg_n
        ~n_labeled:(Stdlib.max 4 (mg_n / 200)) ~k:ann_k
    in
    let scale_samples =
      synthetic_samples ~seed:103 ~model:Dataset.Synthetic.Model1
        ~count:scale_n
    in
    let scale_points =
      Array.map (fun s -> s.Dataset.Synthetic.x) scale_samples
    in
    let scale_labeled = Stdlib.max 8 (scale_n / 1000) in
    let scale_labels =
      Array.init scale_labeled (fun i -> scale_samples.(i).Dataset.Synthetic.y)
    in
    let scale_h = Kernel.Bandwidth.paper_rate ~d:5 scale_labeled in
    if scan_knn ann_points ann_k <> Graph.Kdtree.all_k_nearest ann_points ann_k
    then failwith "bench: the kd-tree's lists differ from the full scan";
    Obs.Histogram.attach_to_spans ();
    T.Registry.enable ();
    (* the factorized λ path races the naive one (speedup.lambda_path) *)
    let lambda_path, lambda_path_naive =
      run_pair
        ("lambda_path", fun () -> Gssl.Lambda_path.compute dense_problem)
        ( "lambda_path_naive",
          fun () ->
            Gssl.Lambda_path.compute ~strategy:Gssl.Lambda_path.Naive
              dense_problem )
    in
    (* flat_cg and mg_cg also report the words a CG iteration
       allocates on their problem *)
    let cg_words precond =
      [
        ( "words_per_iteration",
          T.Export.Num
            (words_per_iteration (fun k ->
                 Gssl.Scalable.solve_hard ~tol:1e-9 ~max_iter:k ~precond
                   ~unanchored:`Impute mg_problem)) );
      ]
    in
    let phases =
      [
        short "hard_direct" (fun () ->
            Gssl.Hard.solve ~solver:Gssl.Hard.Cholesky dense_problem);
        (* same solve plus its health certificate, so the report tracks
           the overhead of the observability layer itself *)
        short "hard_direct_observed" (fun () ->
            let x = Gssl.Hard.solve ~solver:Gssl.Hard.Cholesky dense_problem in
            Gssl.System.certify ~system:"gssl.hard" ~rung:"cholesky"
              ~attempts:[]
              { Gssl.System.a =
                  Gssl.System.Dense (Gssl.Hard.system_matrix dense_problem);
                b = Gssl.Hard.rhs dense_problem }
              x);
        short "hard_cg" (fun () ->
            Gssl.Scalable.solve_hard ~tol:1e-9 sparse_problem);
        short "hard_gauss_seidel" (fun () ->
            Gssl.Scalable.solve_stationary ~tol:1e-9
              Sparse.Stationary.Gauss_seidel sparse_problem);
        (* scaling layer: the kd-tree's kNN graph races the O(n²) scan
           for the same neighbour lists (checked equal above), the
           multigrid-preconditioned solve races flat (Jacobi-
           preconditioned) CG on the same low-label-rate problem under
           an iteration-reduction contract, and scale_1m runs the whole
           pipeline — graph build plus multigrid hard solve — end to end
           (10⁶ vertices in profile mode); the two builds take the
           median of 5 calls, as their ratio is a gated speedup *)
        run_phase ~calls:5 "knn_exact_build" (fun () ->
            scan_knn ann_points ann_k);
        run_phase ~calls:5 "ann_build" (fun () ->
            Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf
              ~bandwidth:ann_h ~k:ann_k ann_points);
        run_phase ~extra:(cg_words `Jacobi) "flat_cg" (fun () ->
            Gssl.Scalable.solve_hard ~tol:1e-9 ~unanchored:`Impute mg_problem);
        run_phase ~extra:(cg_words `Multigrid) "mg_cg" (fun () ->
            Gssl.Scalable.solve_hard ~tol:1e-9 ~precond:`Multigrid
              ~unanchored:`Impute mg_problem);
        run_phase "scale_1m" (fun () ->
            let w =
              Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf
                ~bandwidth:scale_h ~k:ann_k scale_points
            in
            Gssl.Scalable.solve_hard ~tol:1e-8 ~precond:`Multigrid
              ~unanchored:`Impute
              (Gssl.Problem.make
                 ~graph:(Graph.Weighted_graph.of_sparse w)
                 ~labels:scale_labels));
        short "soft_direct" (fun () ->
            Gssl.Soft.solve ~method_:Gssl.Soft.Full_cholesky ~lambda:0.1
              dense_problem);
        short "soft_cg" (fun () ->
            Gssl.Soft.solve ~method_:(Gssl.Soft.Cg { tol = 1e-9 }) ~lambda:0.1
              sparse_problem);
        lambda_path;
        lambda_path_naive;
        short "gemm_serial" (fun () ->
            Parallel.Pool.sequential (fun () -> Mat.mm gemm_a gemm_b));
        par "gemm_par" (fun () ->
            let r = Mat.mm gemm_a gemm_b in
            assert_identical "gemm" (r = gemm_ref);
            r);
        short "pairwise_serial" (fun () ->
            Parallel.Pool.sequential (fun () ->
                Kernel.Pairwise.sq_distance_matrix pair_points));
        par "pairwise_par" (fun () ->
            let r = Kernel.Pairwise.sq_distance_matrix pair_points in
            assert_identical "pairwise" (r = pair_ref);
            r);
        short "spmv_serial" (fun () -> Parallel.Pool.sequential spmv_loop);
        par "spmv_par" (fun () ->
            let r = spmv_loop () in
            assert_identical "spmv" (r = spmv_ref);
            r);
        (* resilient layer: a clean solve must stay on the first rung
           (all fallback counters 0), a CG budget of 1 must escalate *)
        short "resilient_hard_clean" (fun () ->
            Gssl.Resilient.solve_hard dense_problem);
        short "resilient_hard_capped" (fun () ->
            Gssl.Resilient.solve_hard ~cg_max_iter:1 sparse_problem);
        run_phase "soak_replay" (fun () ->
            let s = Serve.Soak.run soak_cfg in
            if not (Serve.Soak.ok s) then
              failwith
                (Printf.sprintf "bench: soak violated serving invariants:\n%s"
                   (Serve.Soak.describe s));
            soak_summary := Some s;
            s);
        (* same trace with per-request span journaling on: proves the
           observability pipeline is free on the virtual clock (p50 and
           the response digest must match soak_replay bit-for-bit) and
           puts its real wall cost in the report *)
        run_phase "soak_journal" (fun () ->
            let s =
              Serve.Soak.run { soak_cfg with Serve.Soak.journal = true }
            in
            if not (Serve.Soak.ok s) then
              failwith
                (Printf.sprintf
                   "bench: journaled soak violated invariants:\n%s"
                   (Serve.Soak.describe s));
            journal_summary := Some s;
            s);
        (* byte-level hostile-client soak through the framed transport
           (lib/net): replays a seeded trace of clean and corrupt
           connections through Conn + Engine.handle on the virtual
           clock, with replay verification, so the phase gates both the
           transport's wall cost and its digest determinism *)
        run_phase "transport_replay" (fun () ->
            let s =
              Net.Hostile.run
                { Net.Hostile.default with
                  Net.Hostile.connections = (if smoke then 400 else 1500);
                  verify_replay = true;
                  journal = true }
            in
            if not (Net.Hostile.ok s) then
              failwith
                (Printf.sprintf
                   "bench: hostile transport soak violated invariants:\n%s"
                   (Net.Hostile.describe s));
            s);
      ]
    in
    T.Registry.disable ();
    T.Registry.reset ();
    (* virtual-clock latency percentiles as gate-visible pseudo-phases;
       they are seed-deterministic, so any drift versus the baseline is a
       behavior change in the serve layer, not scheduler noise *)
    let phases =
      match !soak_summary with
      | None -> phases
      | Some s ->
          let pseudo name v =
            T.Export.(
              Obj
                [
                  ("name", Str name);
                  ("wall_ms", Num v);
                  ("span_ms_quantiles", Obj []);
                  ("matvecs", Num 0.);
                  ("iterations", Num 0.);
                  ("counters", Obj []);
                  ("fallback", Obj []);
                ])
          in
          let journaled =
            match !journal_summary with
            | Some j -> j
            | None -> failwith "bench: soak_journal produced no summary"
          in
          (* The journaling-cost contract: recording every span tree must
             not move the virtual clock at all, so the journaled run's
             latency distribution and per-request outcome digest are
             required to be bit-identical to the plain run — a 0% p50
             overhead, well inside the < 5% budget the gate tracks via
             the journal_overhead pseudo-phase below. *)
          if journaled.Serve.Soak.p50_ms <> s.Serve.Soak.p50_ms then
            failwith
              (Printf.sprintf
                 "bench: journaling moved soak p50 from %g to %g"
                 s.Serve.Soak.p50_ms journaled.Serve.Soak.p50_ms);
          if not (Int64.equal journaled.Serve.Soak.digest s.Serve.Soak.digest)
          then failwith "bench: journaling changed the soak outcome digest";
          if journaled.Serve.Soak.journal_lines <> journaled.Serve.Soak.responses
          then failwith "bench: journal line count != responses";
          let journal_overhead =
            if s.Serve.Soak.p50_ms > 0. then
              journaled.Serve.Soak.p50_ms /. s.Serve.Soak.p50_ms
            else 1.
          in
          phases
          @ [
              pseudo "soak_p50" s.Serve.Soak.p50_ms;
              pseudo "soak_p99" s.Serve.Soak.p99_ms;
              (* error-budget burn rate of the latency SLO over the soak
                 window — seed-deterministic, so baseline drift means the
                 serve layer's compliance profile changed *)
              pseudo "slo_burn" s.Serve.Soak.slo.Obs.Slo.latency_burn;
              pseudo "journal_overhead" journal_overhead;
            ]
    in
    let open T.Export in
    let phase_field field name =
      let is_phase p =
        match member "name" p with Some (Str s) -> s = name | _ -> false
      in
      match List.find_opt is_phase phases with
      | Some p -> (match member field p with Some (Num v) -> v | _ -> 0.)
      | None -> 0.
    in
    let wall = phase_field "wall_ms" in
    let iters = phase_field "iterations" in
    let ratio serial par =
      let s = wall serial and p = wall par in
      if p > 0. then s /. p else 0.
    in
    (* The "speedup" object is the tested contract: each ratio must stay
       >= 1.0.  The parallel kernel legs' serial/parallel ratios are
       diagnostics under "forced_parallel", not contracts: on a 2-domain
       box they sit well below 1. *)
    let speedup =
      Obj
        [
          ("lambda_path", Num (ratio "lambda_path_naive" "lambda_path"));
          (* algorithmic ratios, meaningful on any core count: the
             kd-tree's graph build must beat the O(n²) scan for the same
             lists on wall clock, and multigrid-preconditioned CG must
             need fewer iterations than flat CG on the same system *)
          ("ann_build", Num (ratio "knn_exact_build" "ann_build"));
          ( "mg_cg_iters",
            Num
              (let f = iters "flat_cg" and m = iters "mg_cg" in
               if m > 0. then f /. m else 0.) );
        ]
    in
    let forced_parallel =
      Obj
        [
          ("gemm", Num (ratio "gemm_serial" "gemm_par"));
          ("pairwise", Num (ratio "pairwise_serial" "pairwise_par"));
          ("spmv", Num (ratio "spmv_serial" "spmv_par"));
        ]
    in
    render
      (Obj
         [
           ("report", Str "gssl-bench-profile");
           ("mode", Str (if smoke then "smoke" else "profile"));
           ( "sizes",
             Obj
               [
                 ("n", Num (float_of_int n));
                 ("m", Num (float_of_int m));
                 ("knn_points", Num (float_of_int knn_count));
                 ("knn_k", Num (float_of_int knn_k));
                 ("gemm_n", Num (float_of_int gemm_n));
                 ("pairwise_points", Num (float_of_int pair_n));
                 ("spmv_points", Num (float_of_int spmv_n));
                 ("ann_points", Num (float_of_int ann_n));
                 ("ann_k", Num (float_of_int ann_k));
                 ("mg_points", Num (float_of_int mg_n));
                 ("scale_points", Num (float_of_int scale_n));
               ] );
           ("domains", Num (float_of_int par_domains));
           ("speedup", speedup);
           ("forced_parallel", forced_parallel);
           ("phases", Arr phases);
         ])

  (* The smoke contract: the report must parse back, cover the hard and
     soft paths, expose {wall_ms, matvecs, iterations} per phase, and the
     iterative hard path must show nonzero matvec/iteration counters. *)
  let validate json_text =
    let open T.Export in
    let json = parse json_text in
    let phases =
      match member "phases" json with
      | Some (Arr l) when l <> [] -> l
      | _ -> failwith "bench smoke: missing or empty phases array"
    in
    let field name phase =
      match member name phase with
      | Some (Num v) -> v
      | _ ->
          failwith
            (Printf.sprintf "bench smoke: phase lacks numeric field %S" name)
    in
    let phase_name p =
      match member "name" p with Some (Str s) -> s | _ -> "?"
    in
    List.iter
      (fun p ->
        ignore (field "wall_ms" p);
        ignore (field "matvecs" p);
        ignore (field "iterations" p);
        match member "span_ms_quantiles" p with
        | Some (Obj _) -> ()
        | _ ->
            failwith
              (Printf.sprintf
                 "bench smoke: phase %S lacks span_ms_quantiles object"
                 (phase_name p)))
      phases;
    let find name =
      match List.find_opt (fun p -> phase_name p = name) phases with
      | Some p -> p
      | None -> failwith (Printf.sprintf "bench smoke: phase %S missing" name)
    in
    List.iter
      (fun name -> ignore (find name))
      [
        "hard_direct"; "hard_direct_observed"; "hard_cg"; "soft_direct";
        "soft_cg"; "resilient_hard_clean"; "resilient_hard_capped";
        "lambda_path"; "lambda_path_naive"; "gemm_serial"; "gemm_par";
        "pairwise_serial"; "pairwise_par"; "spmv_serial"; "spmv_par";
        "soak_replay";
        "soak_journal"; "transport_replay"; "soak_p50"; "soak_p99";
        "slo_burn"; "journal_overhead"; "knn_exact_build"; "ann_build";
        "flat_cg"; "mg_cg"; "scale_1m";
      ];
    (* the soak percentiles are virtual-clock values: they must be
       strictly positive (something was actually served) and ordered *)
    let p50 = field "wall_ms" (find "soak_p50")
    and p99 = field "wall_ms" (find "soak_p99") in
    if p50 <= 0. then failwith "bench smoke: soak p50 is not positive";
    if p99 < p50 then failwith "bench smoke: soak p99 below p50";
    (* journaling must stay within 5% of the plain replay's p50 (it is
       exactly 1.0 by construction — the assert inside the report build
       already demands bit-equality — but the gate re-checks the report) *)
    let overhead = field "wall_ms" (find "journal_overhead") in
    if overhead < 0.95 || overhead > 1.05 then
      failwith
        (Printf.sprintf "bench smoke: journal overhead %g outside [0.95, 1.05]"
           overhead);
    let burn = field "wall_ms" (find "slo_burn") in
    if burn < 0. then failwith "bench smoke: negative slo burn rate";
    let counter p name =
      match member "counters" p with
      | Some (Obj kvs) -> (
          match List.assoc_opt name kvs with Some (Num v) -> v | _ -> 0.)
      | _ -> failwith "bench smoke: phase lacks counters object"
    in
    (* the parallel legs must have chosen the parallel branch and
       actually gone through the pool *)
    List.iter
      (fun kernel ->
        let name = kernel ^ "_par" in
        let p = find name in
        if counter p (Printf.sprintf "parallel.tune.%s.parallel" kernel) <= 0.
        then
          failwith
            (Printf.sprintf
               "bench smoke: phase %S logged no parallel.tune.%s.parallel \
                decision"
               name kernel);
        if counter p "parallel.pool.tasks" <= 0. then
          failwith
            (Printf.sprintf
               "bench smoke: phase %S submitted no pool tasks" name))
      [ "gemm"; "pairwise"; "spmv" ];
    (* the factorized lambda path must share its factorizations across
       the grid (1 Cholesky for the hard endpoint + 1 for L22), while the
       naive path pays one per positive grid point *)
    let path_chol = counter (find "lambda_path") "linalg.cholesky_factor" in
    if path_chol > 2. then
      failwith
        (Printf.sprintf
           "bench smoke: factorized lambda_path ran %g Cholesky factorizations"
           path_chol);
    if counter (find "lambda_path") "gssl.lambda_path_factorized" < 1. then
      failwith "bench smoke: lambda_path did not take the factorized road";
    if counter (find "lambda_path_naive") "linalg.cholesky_factor" < 13. then
      failwith
        "bench smoke: naive lambda_path shared factorizations unexpectedly";
    (* the scaling layer's contracts: both graph-building phases must
       have built a kd-tree, both CG phases must surface their
       iteration counts — per phase and through the cg.iterations
       histogram — and the multigrid-preconditioned solve must need
       strictly fewer iterations than flat CG on the same system *)
    if counter (find "ann_build") "graph.ann.builds" < 1. then
      failwith "bench smoke: ann_build built no kd-tree";
    if counter (find "scale_1m") "graph.ann.builds" < 1. then
      failwith "bench smoke: scale_1m built no kd-tree";
    if counter (find "mg_cg") "gssl.scalable_mg_solves" < 1. then
      failwith "bench smoke: mg_cg did not take the multigrid path";
    let cg_iter_histogram name =
      match member "span_ms_quantiles" (find name) with
      | Some (Obj kvs) -> (
          match List.assoc_opt "cg.iterations" kvs with
          | Some (Obj fields) -> (
              match List.assoc_opt "max" fields with
              | Some (Num v) -> v
              | _ ->
                  failwith
                    (Printf.sprintf
                       "bench smoke: phase %S cg.iterations histogram lacks \
                        max"
                       name))
          | _ ->
              failwith
                (Printf.sprintf
                   "bench smoke: phase %S lacks a cg.iterations histogram"
                   name))
      | _ -> failwith "bench smoke: phase lacks span_ms_quantiles object"
    in
    let flat_iters = field "iterations" (find "flat_cg")
    and mg_iters = field "iterations" (find "mg_cg") in
    if flat_iters <= 0. then
      failwith "bench smoke: flat_cg reported zero iterations";
    if mg_iters <= 0. then
      failwith "bench smoke: mg_cg reported zero iterations";
    if mg_iters >= flat_iters then
      failwith
        (Printf.sprintf
           "bench smoke: multigrid CG took %g iterations, flat CG %g — no \
            iteration reduction"
           mg_iters flat_iters);
    (* a CG iteration writes into its solve's workspace: allocating
       per iteration (a fresh vector costs mg_points words) fails here *)
    List.iter
      (fun name ->
        let words = field "words_per_iteration" (find name) in
        if words > max_words_per_iteration then
          failwith
            (Printf.sprintf
               "bench smoke: %s allocates %g words per CG iteration (bound \
                %g)"
               name words max_words_per_iteration))
      [ "flat_cg"; "mg_cg" ];
    if cg_iter_histogram "flat_cg" <> flat_iters then
      failwith
        "bench smoke: flat_cg histogram disagrees with the iteration counter";
    if cg_iter_histogram "mg_cg" <> mg_iters then
      failwith
        "bench smoke: mg_cg histogram disagrees with the iteration counter";
    (* the speedup contract: every recorded ratio must be >= 1.0 — the
       shared lambda-path factorization losing to the naive path, the
       kd-tree's graph losing to the full scan or multigrid not cutting
       CG iterations is a real regression *)
    (match member "speedup" json with
    | Some (Obj kvs) ->
        List.iter
          (fun k ->
            match List.assoc_opt k kvs with
            | Some (Num v) ->
                if v < 1.0 then
                  failwith
                    (Printf.sprintf
                       "bench smoke: speedup %s = %g violates the >= 1.0 \
                        contract"
                       k v)
            | _ ->
                failwith
                  (Printf.sprintf "bench smoke: speedup lacks field %S" k))
          [ "lambda_path"; "ann_build"; "mg_cg_iters" ]
    | _ -> failwith "bench smoke: missing speedup object");
    let hard_cg = find "hard_cg" in
    if field "matvecs" hard_cg <= 0. then
      failwith "bench smoke: hard_cg reported zero matvecs";
    if field "iterations" hard_cg <= 0. then
      failwith "bench smoke: hard_cg reported zero iterations";
    let fallback_fields p =
      match member "fallback" p with
      | Some (Obj kvs) ->
          List.map
            (fun (k, v) ->
              match v with
              | Num x -> (k, x)
              | _ ->
                  failwith
                    (Printf.sprintf
                       "bench smoke: fallback counter %S is not numeric" k))
            kvs
      | _ -> failwith "bench smoke: phase lacks fallback object"
    in
    let clean_fb = fallback_fields (find "resilient_hard_clean") in
    if clean_fb = [] then
      failwith "bench smoke: no robust.fallback.* counters registered";
    List.iter
      (fun (k, v) ->
        if v <> 0. then
          failwith
            (Printf.sprintf
               "bench smoke: clean resilient solve escalated (%s = %g)" k v))
      clean_fb;
    let capped_total =
      List.fold_left (fun acc (_, v) -> acc +. v) 0.
        (fallback_fields (find "resilient_hard_capped"))
    in
    if capped_total <= 0. then
      failwith "bench smoke: capped resilient solve triggered no fallback"

  let run ?out ?(par_focus = false) ~smoke () =
    let text = report ~smoke () in
    print_endline text;
    (match out with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc text;
            output_char oc '\n');
        Printf.eprintf "bench report written to %s\n%!" path
    | None -> ());
    if smoke then begin
      validate text;
      prerr_endline "bench smoke ok: profile JSON parses and is complete"
    end;
    if par_focus then
      T.Export.(
        let json = parse text in
        List.iter
          (fun section ->
            match member section json with
            | Some (Obj kvs) ->
                List.iter
                  (fun (k, v) ->
                    match v with
                    | Num x -> Printf.eprintf "%s %-12s %.2fx\n%!" section k x
                    | _ -> ())
                  kvs
            | _ -> ())
          [ "forced_parallel"; "speedup" ])
end

(* ------------------------------------------------------------------ *)
(* run & report                                                        *)
(* ------------------------------------------------------------------ *)

let all_tests =
  [
    fig_bench "fig1: one replicate (Model 1, n=100, m=30)"
      ~model:Dataset.Synthetic.Model1 ~n:100 ~m:30 1;
    fig_bench "fig2: one replicate (Model 1, n=100, m=300)"
      ~model:Dataset.Synthetic.Model1 ~n:100 ~m:300 2;
    fig_bench "fig3: one replicate (Model 2, n=100, m=30)"
      ~model:Dataset.Synthetic.Model2 ~n:100 ~m:30 3;
    fig_bench "fig4: one replicate (Model 2, n=100, m=300)"
      ~model:Dataset.Synthetic.Model2 ~n:100 ~m:300 4;
    fig5_bench;
  ]
  @ complexity_benches @ solver_ablation @ soft_method_ablation @ kernel_ablation
  @ dense_vs_sparse_ablation @ incremental_ablation @ nystrom_ablation
  @ scalable_ablation @ baseline_benches

let benchmark test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.8) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances test in
  Analyze.all ols Toolkit.Instance.monotonic_clock raw

let run_bechamel () =
  print_string "Benchmarks: per-figure work units, Prop II.1 complexity, ablations\n";
  print_string "(time per run; see DESIGN.md section 3 and 5 for the mapping)\n\n";
  Printf.printf "%-52s  %14s\n" "benchmark" "time/run";
  print_string (String.make 70 '-');
  print_newline ();
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name result ->
          let name =
            (* strip the "g/" grouping prefix *)
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          match Analyze.OLS.estimates result with
          | Some [ ns ] ->
              let display =
                if ns >= 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
                else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
                else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
                else Printf.sprintf "%8.0f ns" ns
              in
              Printf.printf "%-52s  %14s\n%!" name display
          | _ -> Printf.printf "%-52s  %14s\n%!" name "n/a")
        results)
    all_tests

let () =
  match Array.to_list Sys.argv with
  | _ :: [] -> run_bechamel ()
  | _ :: [ "--profile" ] -> Profile.run ~smoke:false ()
  | _ :: [ "--smoke" ] -> Profile.run ~smoke:true ()
  | _ :: [ "--par-smoke" ] -> Profile.run ~smoke:true ~par_focus:true ()
  | _ :: [ "--profile"; "--out"; path ] -> Profile.run ~out:path ~smoke:false ()
  | _ :: [ "--smoke"; "--out"; path ] -> Profile.run ~out:path ~smoke:true ()
  | _ :: [ "--par-smoke"; "--out"; path ] ->
      Profile.run ~out:path ~smoke:true ~par_focus:true ()
  | _ ->
      prerr_endline
        "usage: bench/main.exe [--profile | --smoke | --par-smoke] [--out \
         report.json]";
      exit 2
