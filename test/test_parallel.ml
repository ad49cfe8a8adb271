(* The domain pool and everything routed through it: scheduling
   determinism, exception propagation, nesting, domain-safe telemetry
   counters, and qcheck bit-identity of the parallel kernels (gemm,
   gemv, CSR spmv, the fused Laplacian operators, pairwise distances,
   parallel sweeps) against their serial or naive reference under every
   domain count.  The dispatch rule itself is pinned in
   test_autotune.ml. *)

open Test_util
module Pool = Parallel.Pool
module Dispatch = Parallel.Dispatch
module Csr = Sparse.Csr
module Wg = Graph.Weighted_graph

(* the domain counts every bit-identity property must agree across *)
let domain_counts =
  [ 1; 2; Stdlib.max 2 (Pool.default_domain_count ()) ]

(* ------------------------------------------------------------------ *)
(* pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_for_fills () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun n ->
              List.iter
                (fun grain ->
                  let out = Array.make (Stdlib.max 1 n) (-1) in
                  Pool.parallel_for ~grain pool n (fun lo hi ->
                      for i = lo to hi - 1 do
                        out.(i) <- 3 * i
                      done);
                  for i = 0 to n - 1 do
                    Alcotest.(check int)
                      (Printf.sprintf "d=%d n=%d g=%d i=%d" domains n grain i)
                      (3 * i) out.(i)
                  done)
                [ 1; 2; 7; 64 ])
            [ 0; 1; 2; 7; 100; 1000 ]))
    [ 1; 2; 4 ]

let test_exception_propagates () =
  Pool.with_pool ~domains:2 (fun pool ->
      match
        Pool.parallel_for ~grain:1 pool 100 (fun lo _ ->
            if lo = 57 then failwith "chunk 57 exploded")
      with
      | () -> Alcotest.fail "expected the chunk exception to re-raise"
      | exception Failure msg ->
          Alcotest.(check string) "message" "chunk 57 exploded" msg);
  (* the pool survives a failed job *)
  Pool.with_pool ~domains:2 (fun pool ->
      let acc = Atomic.make 0 in
      Pool.parallel_for pool 10 (fun lo hi ->
          ignore (Atomic.fetch_and_add acc (hi - lo)));
      Alcotest.(check int) "pool usable after exception" 10 (Atomic.get acc))

let test_nested_runs_inline () =
  (* a parallel_for inside a pool task must not deadlock and must still
     produce the full result *)
  Pool.with_pool ~domains:2 (fun pool ->
      let out = Array.make 64 0 in
      Pool.parallel_for ~grain:4 pool 8 (fun lo hi ->
          for i = lo to hi - 1 do
            Pool.parallel_for ~grain:2 pool 8 (fun lo2 hi2 ->
                for j = lo2 to hi2 - 1 do
                  out.((i * 8) + j) <- (i * 8) + j
                done)
          done);
      for k = 0 to 63 do
        Alcotest.(check int) (Printf.sprintf "cell %d" k) k out.(k)
      done)

let test_sequential_forces_inline () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.with_enabled (fun () ->
      let before = Telemetry.Counter.get "parallel.pool.tasks" in
      Pool.with_pool ~domains:4 (fun pool ->
          Pool.sequential (fun () ->
              Pool.parallel_for ~grain:1 pool 100 (fun _ _ -> ())));
      Alcotest.(check int)
        "no pool tasks under sequential" before
        (Telemetry.Counter.get "parallel.pool.tasks"))

let test_pool_basics () =
  check_raises_invalid "domains 0" (fun () -> ignore (Pool.create ~domains:0 ()));
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "size" 3 (Pool.size pool));
  Alcotest.(check int) "default_grain small" 1 (Pool.default_grain 5);
  Alcotest.(check int) "default_grain 640" 10 (Pool.default_grain 640);
  (* shutdown is idempotent and later jobs run inline *)
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  let hit = ref 0 in
  Pool.parallel_for pool 5 (fun lo hi -> hit := !hit + (hi - lo));
  Alcotest.(check int) "inline after shutdown" 5 !hit

(* ------------------------------------------------------------------ *)
(* satellite: domain-safe counters (exactness under contention)        *)
(* ------------------------------------------------------------------ *)

let test_counter_hammer () =
  let c = Telemetry.Counter.make "test.parallel_hammer" in
  Telemetry.Registry.with_enabled (fun () ->
      let before = Telemetry.Counter.value c in
      let per_domain = 200_000 in
      let hammer () =
        for _ = 1 to per_domain do
          Telemetry.Counter.incr c
        done
      in
      let d = Domain.spawn hammer in
      hammer ();
      Domain.join d;
      Alcotest.(check int)
        "2 x 200k concurrent increments, not one lost"
        (before + (2 * per_domain))
        (Telemetry.Counter.value c))

(* ------------------------------------------------------------------ *)
(* bit-identity of the parallel kernels                                *)
(* ------------------------------------------------------------------ *)

(* Run [f] serially and under every domain count; all results must be
   bit-identical (compared with [equal]). *)
let check_bit_identical name equal f =
  let reference = Pool.sequential f in
  List.for_all
    (fun d ->
      let got = Pool.with_default_domains d f in
      let ok = equal reference got in
      if not ok then
        QCheck.Test.fail_reportf "%s: domains=%d differs from serial" name d;
      ok)
    domain_counts

let mat_equal (a : Mat.t) (b : Mat.t) =
  a.Mat.rows = b.Mat.rows && a.Mat.cols = b.Mat.cols && a.Mat.data = b.Mat.data

let qcheck_gemm =
  qprop ~count:40 "parallel gemm bit-identical to serial" (fun seed ->
      let rng = Prng.Rng.create seed in
      (* upper range crosses the gemm parallel threshold (rows*cols*n >=
         65536); lower range covers degenerate 1-row/1-col shapes *)
      let r = 1 + Prng.Rng.int rng 48
      and k = 1 + Prng.Rng.int rng 48
      and c = 1 + Prng.Rng.int rng 48 in
      let a = random_mat rng r k and b = random_mat rng k c in
      check_bit_identical "gemm" mat_equal (fun () -> Mat.mm a b))

let qcheck_gemm_large =
  qprop ~count:5 "parallel gemm bit-identical above threshold" (fun seed ->
      let rng = Prng.Rng.create seed in
      let n = 48 + Prng.Rng.int rng 16 in
      let a = random_mat rng n n and b = random_mat rng n n in
      check_bit_identical "gemm-large" mat_equal (fun () -> Mat.mm a b))

let qcheck_gemv =
  qprop ~count:40 "parallel gemv bit-identical to serial" (fun seed ->
      let rng = Prng.Rng.create seed in
      let r = 1 + Prng.Rng.int rng 200 and c = 1 + Prng.Rng.int rng 200 in
      let a = random_mat rng r c and x = random_vec rng c in
      check_bit_identical "gemv" ( = ) (fun () -> Mat.mv a x))

let qcheck_spmv =
  qprop ~count:40 "parallel CSR spmv bit-identical to serial" (fun seed ->
      let rng = Prng.Rng.create seed in
      let r = 1 + Prng.Rng.int rng 90 and c = 1 + Prng.Rng.int rng 90 in
      let dense =
        Mat.init r c (fun _ _ ->
            if Prng.Rng.bernoulli rng 0.6 then Prng.Rng.uniform rng (-2.) 2.
            else 0.)
      in
      let m = Sparse.Csr.of_dense dense in
      let x = random_vec rng c in
      check_bit_identical "spmv" ( = ) (fun () -> Sparse.Csr.mv m x))

let qcheck_pairwise =
  qprop ~count:25 "parallel pairwise distances bit-identical" (fun seed ->
      let rng = Prng.Rng.create seed in
      (* crosses the 64-point parallel threshold in the upper range *)
      let n = 1 + Prng.Rng.int rng 110 in
      let pts = Array.init n (fun _ -> random_vec rng 3) in
      check_bit_identical "pairwise" mat_equal (fun () ->
          Kernel.Pairwise.sq_distance_matrix pts))

let qcheck_knn =
  qprop ~count:20 "parallel kNN neighbour lists bit-identical" (fun seed ->
      let rng = Prng.Rng.create seed in
      (* crosses the 256-point parallel threshold in the upper range *)
      let n = 2 + Prng.Rng.int rng 400 in
      let k = 1 + Prng.Rng.int rng (Stdlib.min 8 (n - 1)) in
      let pts = Array.init n (fun _ -> random_vec rng 3) in
      check_bit_identical "knn" ( = ) (fun () ->
          Graph.Kdtree.all_k_nearest pts k))

(* ------------------------------------------------------------------ *)
(* kernels against naive references, either side of the threshold     *)
(* ------------------------------------------------------------------ *)

(* Run [f] with telemetry on under every domain count: the result must
   be bit-identical to [reference], and [kernel] must have taken the
   parallel branch exactly when [work] reaches its threshold. *)
let check_bits_everywhere name kernel ~work reference f =
  let expect_parallel = work >= Dispatch.threshold kernel in
  List.iter
    (fun d ->
      let p0 = dispatch_decisions kernel "parallel" in
      let got =
        Pool.with_default_domains d (fun () ->
            Telemetry.Registry.with_enabled f)
      in
      if got <> reference then
        QCheck.Test.fail_reportf "%s: bits differ under %d domain(s)" name d;
      if dispatch_decisions kernel "parallel" > p0 <> expect_parallel then
        QCheck.Test.fail_reportf "%s (work %d): expected the %s branch" name
          work
          (if expect_parallel then "parallel" else "serial"))
    domain_counts

let naive_mm (a : Mat.t) (b : Mat.t) =
  let r = a.Mat.rows and k = a.Mat.cols and c = b.Mat.cols in
  let out = Array.make (r * c) 0. in
  for i = 0 to r - 1 do
    for kk = 0 to k - 1 do
      let aik = a.Mat.data.((i * k) + kk) in
      for j = 0 to c - 1 do
        out.((i * c) + j) <- out.((i * c) + j) +. (aik *. b.Mat.data.((kk * c) + j))
      done
    done
  done;
  out

let check_mm_naive tag r k c rng =
  let a = random_mat rng r k and b = random_mat rng k c in
  check_bits_everywhere
    (Printf.sprintf "%s %dx%dx%d" tag r k c)
    Dispatch.Gemm ~work:(r * k * c) (naive_mm a b)
    (fun () -> (Mat.mm a b).Mat.data)

let gemm_matches_naive =
  qprop ~count:12 "Mat.mm bit-identical to the naive ikj loop" (fun seed ->
      let rng = Prng.Rng.create seed in
      (* r*k*c straddles the 2^16 gemm threshold *)
      let r = 1 + Prng.Rng.int rng 48
      and k = 1 + Prng.Rng.int rng 48
      and c = 1 + Prng.Rng.int rng 48 in
      check_mm_naive "gemm" r k c rng;
      true)

let gemm_packed_path_matches_naive =
  qprop ~count:4 "packed GEMM path (large, odd shapes) matches the naive loop"
    (fun seed ->
      let rng = Prng.Rng.create seed in
      (* full 4x4 tiles plus tail rows and columns of the packed
         micro-kernel, all above the gemm threshold (r*k*c >= 68310) *)
      let r = 45 + Prng.Rng.int rng 11
      and k = 33 + Prng.Rng.int rng 9
      and c = 46 + Prng.Rng.int rng 11 in
      check_mm_naive "packed gemm" r k c rng;
      true)

let gemv_matches_naive =
  qprop ~count:10 "Mat.mv bit-identical to the naive dot loop" (fun seed ->
      let rng = Prng.Rng.create seed in
      (* below the 2^15 gemv threshold and above it, at every row count
         mod 4: Mat.mv_into's four-row sweeps and its one-row tail, over
         the whole range and over pool chunks of 4 to 10 rows *)
      let shapes k =
        [
          ((4 * Prng.Rng.int rng 24) + k, 1 + Prng.Rng.int rng 96);
          ((4 * (49 + Prng.Rng.int rng 110)) + k, 168 + Prng.Rng.int rng 48);
        ]
      in
      List.iter
        (fun (r, c) ->
          let a = random_mat rng r c in
          let x = random_vec rng c in
          let reference =
            Array.init r (fun i ->
                let acc = ref 0. in
                for j = 0 to c - 1 do
                  acc := !acc +. (a.Mat.data.((i * c) + j) *. x.(j))
                done;
                !acc)
          in
          check_bits_everywhere
            (Printf.sprintf "gemv %dx%d" r c)
            Dispatch.Gemv ~work:(r * c) reference
            (fun () ->
              let y = Array.make r nan in
              Mat.mv_into a x y;
              y))
        (List.concat_map shapes [ 1; 2; 3; 4 ]);
      true)

let fused_spmv_matches_unfused =
  qprop ~count:15 "Csr.lap_mv / fused_lap_mv bit-identical to unfused compose"
    (fun seed ->
      let rng = Prng.Rng.create seed in
      (* at 25% density n <= 51 stays below the 2^12 spmv threshold and
         n >= 140 lands above it *)
      List.iter
        (fun n ->
          let w = Csr.of_dense (random_sparse_nonneg rng n) in
          let work = Csr.nnz w in
          let deg = random_vec rng n
          and vdiag = random_vec rng n
          and x = random_vec rng n in
          let lambda = Prng.Rng.uniform rng 0. 2. in
          let wx = Csr.mv w x in
          let lap_ref = Array.init n (fun i -> (deg.(i) *. x.(i)) -. wx.(i)) in
          check_bits_everywhere "lap_mv" Dispatch.Spmv ~work lap_ref (fun () ->
              Csr.lap_mv w ~deg x);
          let fused_ref =
            Array.init n (fun i ->
                (vdiag.(i) *. x.(i))
                +. (lambda *. ((deg.(i) *. x.(i)) -. wx.(i))))
          in
          check_bits_everywhere "fused_lap_mv" Dispatch.Spmv ~work fused_ref
            (fun () -> Csr.fused_lap_mv w ~deg ~vdiag ~lambda x))
        [ 2 + Prng.Rng.int rng 50; 140 + Prng.Rng.int rng 40 ];
      true)

let operator_matches_unfused =
  qprop ~count:10
    "Laplacian.operator (sparse and dense) bit-identical to V f + lambda L f"
    (fun seed ->
      let rng = Prng.Rng.create seed in
      (* n <= 31 stays below both the spmv and the gemv threshold;
         n >= 182 reaches both (n^2 >= 2^15 for the dense operator) *)
      List.iter
        (fun n ->
          let w = random_weights rng n in
          let lambda = Prng.Rng.uniform rng 0. 2. in
          let n_labeled = Prng.Rng.int rng (n + 1) in
          let x = random_vec rng n in
          let csr = Csr.of_dense w in
          List.iter
            (fun (tag, g, kernel, work) ->
              let d = Wg.degrees g in
              let wx =
                match Wg.storage g with
                | Wg.Sparse c -> Csr.mv c x
                | Wg.Dense m ->
                    Array.init n (fun i ->
                        let acc = ref 0. in
                        for j = 0 to n - 1 do
                          acc :=
                            !acc +. (m.Mat.data.((i * m.Mat.cols) + j) *. x.(j))
                        done;
                        !acc)
              in
              let reference =
                match Wg.storage g with
                | Wg.Sparse _ ->
                    (* the sparse path multiplies by an explicit 0/1 vdiag *)
                    Array.init n (fun i ->
                        let vd = if i < n_labeled then 1. else 0. in
                        (vd *. x.(i))
                        +. (lambda *. ((d.(i) *. x.(i)) -. wx.(i))))
                | Wg.Dense _ ->
                    Array.init n (fun i ->
                        let v_part = if i < n_labeled then x.(i) else 0. in
                        v_part +. (lambda *. ((d.(i) *. x.(i)) -. wx.(i))))
              in
              let op = Graph.Laplacian.operator ~lambda ~n_labeled g in
              let apply () =
                let y = Array.make n nan in
                op.Sparse.Linop.apply x y;
                y
              in
              check_bits_everywhere
                (Printf.sprintf "operator(%s) n=%d" tag n)
                kernel ~work reference apply;
              (* a dense apply counts as one gemv of 2n^2 + 4n flops *)
              if tag = "dense" then
                Telemetry.Registry.with_enabled (fun () ->
                    let count name = Telemetry.Counter.get name in
                    let g0 = count "linalg.gemv" and f0 = count "linalg.flops" in
                    ignore (apply ());
                    if
                      count "linalg.gemv" - g0 <> 1
                      || count "linalg.flops" - f0 <> (2 * n * n) + (4 * n)
                    then
                      QCheck.Test.fail_reportf
                        "operator(dense) n=%d: %d gemv, %d flops" n
                        (count "linalg.gemv" - g0)
                        (count "linalg.flops" - f0)))
            [
              ("sparse", Wg.of_sparse csr, Dispatch.Spmv, Csr.nnz csr);
              ("dense", Wg.of_dense w, Dispatch.Gemv, n * n);
            ])
        (* the dense apply's gemv sweeps four rows at a time: sizes
           above the threshold at every n mod 4 *)
        (let big = 4 * (46 + Prng.Rng.int rng 20) in
         [ 2 + Prng.Rng.int rng 30; big; big + 1; big + 2; big + 3 ]);
      true)

(* ------------------------------------------------------------------ *)
(* satellite: lambda-path factorization reuse                          *)
(* ------------------------------------------------------------------ *)

let random_problem rng n m =
  let points =
    Array.init (n + m) (fun _ ->
        [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let labels =
    Array.init n (fun _ -> if Prng.Rng.bernoulli rng 0.5 then 1. else 0.)
  in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels

let qcheck_lambda_path_strategies_agree =
  qprop ~count:15 "lambda path: factorized = naive along the grid"
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let n = 3 + Prng.Rng.int rng 8 and m = 2 + Prng.Rng.int rng 8 in
      let problem = random_problem rng n m in
      let fac = Gssl.Lambda_path.compute ~strategy:Gssl.Lambda_path.Factorized problem in
      let naive = Gssl.Lambda_path.compute ~strategy:Gssl.Lambda_path.Naive problem in
      Array.iteri
        (fun k (p : Gssl.Lambda_path.point) ->
          let q = naive.Gssl.Lambda_path.points.(k) in
          let d = Vec.norm_inf (Vec.sub p.Gssl.Lambda_path.scores q.Gssl.Lambda_path.scores) in
          if d > 1e-6 then
            QCheck.Test.fail_reportf
              "lambda=%g: strategies differ by %g" p.Gssl.Lambda_path.lambda d)
        fac.Gssl.Lambda_path.points;
      true)

let test_lambda_path_shares_factorization () =
  let rng = Prng.Rng.create 11 in
  let problem = random_problem rng 8 6 in
  Telemetry.Registry.reset ();
  Telemetry.Registry.with_enabled (fun () ->
      let chol () = Telemetry.Counter.get "linalg.cholesky_factor" in
      let c0 = chol () in
      ignore (Gssl.Lambda_path.compute problem);
      let fac = chol () - c0 in
      (* one Cholesky for the hard endpoint + one of L22 for the grid *)
      Alcotest.(check bool)
        (Printf.sprintf "factorized path: %d factorizations <= 2" fac)
        true (fac <= 2);
      let c1 = chol () in
      ignore
        (Gssl.Lambda_path.compute ~strategy:Gssl.Lambda_path.Naive problem);
      let naive = chol () - c1 in
      Alcotest.(check bool)
        (Printf.sprintf "naive path: %d factorizations >= 13" naive)
        true (naive >= 13));
  Telemetry.Registry.reset ()

(* ------------------------------------------------------------------ *)
(* satellite: pooled grid_parallel                                     *)
(* ------------------------------------------------------------------ *)

let test_grid_parallel_pooled_identity () =
  let f ~x rng = [ (x *. Prng.Rng.float rng) +. 1e9; Prng.Rng.float rng ] in
  let args = (3, [ 0.5; 1.; 2.; 4. ], [ "a"; "b" ]) in
  let seed, xs, labels = args in
  let reference = Experiment.Sweep.grid ~seed ~reps:6 ~xs ~labels f in
  let same (a : Experiment.Sweep.series list) b =
    List.for_all2
      (fun (s : Experiment.Sweep.series) (t : Experiment.Sweep.series) ->
        s.Experiment.Sweep.label = t.Experiment.Sweep.label
        && s.Experiment.Sweep.xs = t.Experiment.Sweep.xs
        && s.Experiment.Sweep.means = t.Experiment.Sweep.means
        && s.Experiment.Sweep.stderrs = t.Experiment.Sweep.stderrs)
      a b
  in
  List.iter
    (fun domains ->
      let got =
        Experiment.Sweep.grid_parallel ~domains ~seed ~reps:6 ~xs ~labels f
      in
      Alcotest.(check bool)
        (Printf.sprintf "grid_parallel domains=%d = grid" domains)
        true (same reference got))
    [ 1; 2; 4 ];
  (* default-pool route (no explicit count) *)
  let got =
    Pool.with_default_domains 2 (fun () ->
        Experiment.Sweep.grid_parallel ~seed ~reps:6 ~xs ~labels f)
  in
  Alcotest.(check bool) "grid_parallel via default pool = grid" true
    (same reference got);
  check_raises_invalid "domains 0" (fun () ->
      ignore (Experiment.Sweep.grid_parallel ~domains:0 ~seed ~reps:6 ~xs ~labels f))

let test_pool_span_reaches_chrome_trace () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.with_enabled (fun () ->
      Obs.Chrome_trace.start ();
      Fun.protect ~finally:Obs.Chrome_trace.stop (fun () ->
          Pool.with_pool ~domains:2 (fun pool ->
              Pool.parallel_for ~grain:1 pool 8 (fun _ _ -> ()));
          let names =
            List.map
              (fun (e : Obs.Chrome_trace.event) -> e.Obs.Chrome_trace.name)
              (Obs.Chrome_trace.events ())
          in
          Alcotest.(check bool)
            "parallel.pool.job span captured in the trace" true
            (List.mem "parallel.pool.job" names);
          match Obs.Chrome_trace.validate (Telemetry.Export.parse (Obs.Chrome_trace.to_json ())) with
          | Ok k -> Alcotest.(check bool) "trace validates" true (k >= 1)
          | Error e -> Alcotest.failf "trace invalid: %s" e));
  Telemetry.Registry.reset ()

let test_grid_parallel_uses_pool () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.with_enabled (fun () ->
      let tasks () = Telemetry.Counter.get "parallel.pool.tasks" in
      let t0 = tasks () in
      ignore
        (Experiment.Sweep.grid_parallel ~domains:2 ~seed:5 ~reps:4
           ~xs:[ 1.; 2. ] ~labels:[ "v" ] (fun ~x rng ->
             [ x +. Prng.Rng.float rng ]));
      Alcotest.(check bool) "sweep went through the pool" true (tasks () > t0));
  Telemetry.Registry.reset ()

let suite =
  ( "parallel",
    [
      case "parallel_for fills every index" test_parallel_for_fills;
      case "exceptions propagate" test_exception_propagates;
      case "nested parallel_for runs inline" test_nested_runs_inline;
      case "sequential disables dispatch" test_sequential_forces_inline;
      case "pool basics" test_pool_basics;
      case "counter exact under 2-domain hammer" test_counter_hammer;
      qcheck_gemm;
      qcheck_gemm_large;
      qcheck_gemv;
      qcheck_spmv;
      qcheck_pairwise;
      qcheck_knn;
      gemm_matches_naive;
      gemm_packed_path_matches_naive;
      gemv_matches_naive;
      fused_spmv_matches_unfused;
      operator_matches_unfused;
      qcheck_lambda_path_strategies_agree;
      case "lambda path shares one factorization" test_lambda_path_shares_factorization;
      case "grid_parallel pooled = grid" test_grid_parallel_pooled_identity;
      case "grid_parallel counts pool tasks" test_grid_parallel_uses_pool;
      case "pool spans reach chrome traces" test_pool_span_reaches_chrome_trace;
    ] )
