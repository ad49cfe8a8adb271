(* Wave-3 feature tests: two moons, the SBM generator, local-global
   consistency, LapRLS, scalable sparse solver, baseline studies. *)

open Test_util
module Tm = Dataset.Two_moons
module Gen = Graph.Generators
module Lgc = Gssl.Local_global
module Laprls = Gssl.Laprls
module Scal = Gssl.Scalable
module Vec = Linalg.Vec
module Mat = Linalg.Mat

(* ---------- two moons ---------- *)

let test_two_moons_basics () =
  let rng = Prng.Rng.create 1 in
  let s = Tm.generate rng 100 in
  Alcotest.(check int) "count" 100 (Array.length s);
  let moon1 = Array.fold_left (fun acc x -> if x.Tm.label then acc + 1 else acc) 0 s in
  Alcotest.(check int) "balanced" 50 moon1;
  Array.iter
    (fun x -> Alcotest.(check int) "2-d" 2 (Array.length x.Tm.x))
    s;
  check_raises_invalid "negative n" (fun () -> ignore (Tm.generate rng (-1)));
  check_raises_invalid "negative noise" (fun () ->
      ignore (Tm.generate ~noise:(-0.1) rng 10))

let test_two_moons_geometry () =
  (* with zero noise, moon-1 points lie on the upper half circle *)
  let rng = Prng.Rng.create 2 in
  let s = Tm.generate ~noise:0. rng 200 in
  Array.iter
    (fun p ->
      if p.Tm.label then begin
        let r = Vec.norm2 p.Tm.x in
        check_float ~tol:1e-9 "on unit circle" 1. r;
        Alcotest.(check bool) "upper half" true (p.Tm.x.(1) >= -1e-12)
      end)
    s

let test_two_moons_separable_by_gssl () =
  let rng = Prng.Rng.create 3 in
  let samples = Tm.generate rng 200 in
  let problem, truth = Tm.to_problem ~labeled_per_moon:2 samples in
  let scores = Gssl.Hard.solve problem in
  let pred = Gssl.Estimator.classify scores in
  let hits = ref 0 in
  Array.iteri (fun i p -> if p = truth.(i) then incr hits) pred;
  let acc = float_of_int !hits /. float_of_int (Array.length truth) in
  Alcotest.(check bool) "hard criterion >95% from 4 labels" true (acc > 0.95)

let test_two_moons_guards () =
  let rng = Prng.Rng.create 4 in
  let samples = Tm.generate rng 10 in
  check_raises_invalid "too many labels requested" (fun () ->
      ignore (Tm.to_problem ~labeled_per_moon:5 samples));
  check_raises_invalid "zero labels" (fun () ->
      ignore (Tm.to_problem ~labeled_per_moon:0 samples))

(* ---------- graph generators ---------- *)

let laplacian_spectrum g =
  Linalg.Eigen.eigenvalues (Graph.Laplacian.dense g)

let test_known_spectra () =
  (* complete graph K_n Laplacian eigenvalues: 0 and n (multiplicity n-1) *)
  let k5 = Mat.init 5 5 (fun i j -> if i = j then 0. else 1.) in
  let spec = laplacian_spectrum (Graph.Weighted_graph.of_dense k5) in
  check_float ~tol:1e-9 "K5 lambda1" 0. spec.(0);
  for i = 1 to 4 do
    check_float ~tol:1e-8 "K5 lambda_i = n" 5. spec.(i)
  done;
  (* star S_n: eigenvalues 0, 1 (n-2 times), n *)
  let star = Mat.init 5 5 (fun i j -> if (i = 0) <> (j = 0) then 1. else 0.) in
  let star_spec = laplacian_spectrum (Graph.Weighted_graph.of_dense star) in
  check_float ~tol:1e-9 "star lambda1" 0. star_spec.(0);
  check_float ~tol:1e-8 "star lambda2" 1. star_spec.(1);
  check_float ~tol:1e-8 "star max" 5. star_spec.(4)

let test_sbm_structure () =
  let rng = Prng.Rng.create 5 in
  let g, blocks = Gen.stochastic_block rng ~sizes:[| 10; 15 |] ~p_in:1. ~p_out:0. in
  Alcotest.(check int) "order" 25 (Graph.Weighted_graph.order g);
  Alcotest.(check int) "two components" 2 (Graph.Connectivity.count_components g);
  Alcotest.(check int) "block of vertex 0" 0 blocks.(0);
  Alcotest.(check int) "block of vertex 24" 1 blocks.(24);
  check_raises_invalid "bad p" (fun () ->
      ignore (Gen.stochastic_block rng ~sizes:[| 2 |] ~p_in:2. ~p_out:0.))

let test_sbm_community_recovery () =
  (* dense blocks + sparse cross edges: the hard criterion recovers the
     partition from one label per block *)
  let rng = Prng.Rng.create 6 in
  let g, blocks =
    Gen.stochastic_block rng ~sizes:[| 20; 20 |] ~p_in:0.8 ~p_out:0.05
  in
  (* relabel so one vertex of each block is labeled first *)
  let v0 = 0 and v1 = 20 in
  let order =
    Array.append [| v0; v1 |]
      (Array.of_list
         (List.filter (fun v -> v <> v0 && v <> v1) (List.init 40 Fun.id)))
  in
  let w = Graph.Weighted_graph.to_dense g in
  let wp = Mat.init 40 40 (fun i j -> Mat.get w order.(i) order.(j)) in
  let problem =
    Gssl.Problem.make
      ~graph:(Graph.Weighted_graph.of_dense wp)
      ~labels:[| 0.; 1. |]
  in
  let scores = Gssl.Hard.solve problem in
  let hits = ref 0 in
  Array.iteri
    (fun k s ->
      let v = order.(k + 2) in
      let predicted = if s >= 0.5 then 1 else 0 in
      if predicted = blocks.(v) then incr hits)
    scores;
  Alcotest.(check bool) "recovers >90% of the partition" true
    (float_of_int !hits /. 38. > 0.9)

(* ---------- local & global consistency ---------- *)

let random_binary_problem rng n m =
  let points =
    Array.init (n + m) (fun _ ->
        [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let labels = Array.init n (fun i -> if i mod 2 = 0 then 1. else 0.) in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels

let test_lgc_guards () =
  let rng = Prng.Rng.create 7 in
  let p = random_binary_problem rng 4 3 in
  check_raises_invalid "alpha = 1" (fun () -> ignore (Lgc.scores ~alpha:1. p));
  check_raises_invalid "alpha = 0" (fun () -> ignore (Lgc.scores ~alpha:0. p));
  check_raises_invalid "bad seed length" (fun () ->
      ignore (Lgc.propagate p [| 1. |]));
  let bad = Gssl.Problem.make
      ~graph:(Graph.Weighted_graph.of_dense (Mat.ones 3 3))
      ~labels:[| 0.5 |]
  in
  check_raises_invalid "non-binary labels" (fun () -> ignore (Lgc.scores bad))

let prop_lgc_scores_in_01 seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 8 in
  let p = random_binary_problem rng n m in
  Array.for_all (fun s -> s >= 0. && s <= 1.) (Lgc.scores p)

let prop_lgc_propagate_linear seed =
  (* the propagation operator is linear *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 5 and m = 1 + Prng.Rng.int rng 5 in
  let p = random_binary_problem rng n m in
  let total = n + m in
  let y1 = random_vec rng total and y2 = random_vec rng total in
  let lhs = Lgc.propagate p (Vec.add y1 y2) in
  let rhs = Vec.add (Lgc.propagate p y1) (Lgc.propagate p y2) in
  Vec.approx_equal ~tol:1e-7 lhs rhs

let test_lgc_separates_moons () =
  let rng = Prng.Rng.create 8 in
  let samples = Tm.generate rng 200 in
  let problem, truth = Tm.to_problem ~labeled_per_moon:2 samples in
  let scores = Lgc.scores problem in
  let pred = Array.map (fun s -> s >= 0.5) scores in
  let hits = ref 0 in
  Array.iteri (fun i p -> if p = truth.(i) then incr hits) pred;
  let acc = float_of_int !hits /. float_of_int (Array.length truth) in
  (* LGC with alpha=0.99 and only 2 labels/moon is a little noisier than
     the hard criterion; 85% is still far above the ~50% a non-graph
     method achieves here *)
  if acc <= 0.85 then Alcotest.failf "LGC accuracy %.4f <= 0.85" acc

(* ---------- LapRLS ---------- *)

let test_laprls_interpolates_with_tiny_regularization () =
  (* gamma_a, gamma_i -> 0: in-sample labeled predictions approach the
     observed labels (kernel ridge interpolation) *)
  let labeled = [| ([| 0. |], 1.); ([| 2. |], 0.); ([| 4. |], 1.) |] in
  let model =
    Laprls.fit ~gamma_a:1e-10 ~gamma_i:0. ~kernel:Kernel.Kernel_fn.Rbf
      ~bandwidth:0.5 ~labeled [||]
  in
  Array.iter
    (fun (x, y) -> check_float ~tol:1e-4 "interpolates" y (Laprls.predict model x))
    labeled

let test_laprls_guards () =
  check_raises_invalid "no labels" (fun () ->
      ignore
        (Laprls.fit ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1. ~labeled:[||] [||]));
  check_raises_invalid "bad bandwidth" (fun () ->
      ignore
        (Laprls.fit ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:0.
           ~labeled:[| ([| 0. |], 1.) |] [||]));
  check_raises_invalid "negative gamma" (fun () ->
      ignore
        (Laprls.fit ~gamma_a:(-1.) ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.
           ~labeled:[| ([| 0. |], 1.) |] [||]));
  let model =
    Laprls.fit ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.
      ~labeled:[| ([| 0.; 0. |], 1.) |] [||]
  in
  check_raises_invalid "predict dim" (fun () ->
      ignore (Laprls.predict model [| 0. |]))

let test_laprls_unlabeled_predictions () =
  let rng = Prng.Rng.create 9 in
  let labeled =
    Array.init 10 (fun _ ->
        let x = Prng.Rng.float rng in
        ([| x |], x))
  in
  let unlabeled = Array.init 5 (fun i -> [| 0.1 +. (0.2 *. float_of_int i) |]) in
  let model =
    Laprls.fit ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:0.5 ~labeled unlabeled
  in
  let preds = Laprls.predict_unlabeled model in
  Alcotest.(check int) "one per unlabeled" 5 (Array.length preds);
  (* in-sample predictions = out-of-sample evaluation at the same point *)
  Array.iteri
    (fun i x ->
      check_float ~tol:1e-9 "in = out of sample" (Laprls.predict model x) preds.(i))
    unlabeled;
  Alcotest.(check int) "coefficients length" 15
    (Array.length (Laprls.coefficients model))

let prop_laprls_smooth_on_manifold seed =
  (* with strong manifold regularization, predictions at nearby unlabeled
     points are close *)
  let rng = Prng.Rng.create seed in
  let labeled =
    Array.init 6 (fun _ ->
        ([| Prng.Rng.float rng |], if Prng.Rng.bool rng then 1. else 0.))
  in
  let base = Prng.Rng.float rng in
  let unlabeled = [| [| base |]; [| base +. 0.01 |] |] in
  let model =
    Laprls.fit ~gamma_a:1e-4 ~gamma_i:10. ~kernel:Kernel.Kernel_fn.Rbf
      ~bandwidth:0.5 ~labeled unlabeled
  in
  let preds = Laprls.predict_unlabeled model in
  abs_float (preds.(0) -. preds.(1)) < 0.1

(* ---------- scalable sparse path ---------- *)

let sparse_problem rng n m =
  let points =
    Array.init (n + m) (fun _ ->
        [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let labels = Array.init n (fun i -> if i mod 2 = 0 then 1. else 0.) in
  let k = Stdlib.min 8 (n + m - 1) in
  let w = Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 ~k points in
  Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_sparse w) ~labels

let prop_scalable_matches_dense seed =
  let rng = Prng.Rng.create seed in
  let n = 4 + Prng.Rng.int rng 8 and m = 2 + Prng.Rng.int rng 10 in
  let p = sparse_problem rng n m in
  match Gssl.Hard.solve p with
  | exception Gssl.Hard.Unanchored_unlabeled _ -> (
      (* the sparse path must agree on the failure too *)
      match Scal.solve_hard p with
      | exception Gssl.Hard.Unanchored_unlabeled _ -> true
      | _ -> false)
  | dense -> Vec.approx_equal ~tol:1e-6 dense (Scal.solve_hard ~tol:1e-12 p)

let prop_scalable_stationary_matches seed =
  let rng = Prng.Rng.create seed in
  let n = 4 + Prng.Rng.int rng 6 and m = 2 + Prng.Rng.int rng 8 in
  let p = sparse_problem rng n m in
  match Gssl.Hard.solve p with
  | exception Gssl.Hard.Unanchored_unlabeled _ -> true
  | dense -> (
      match Scal.solve_stationary ~tol:1e-12 Sparse.Stationary.Gauss_seidel p with
      | exception Failure _ -> true (* slow convergence tolerated *)
      | gs -> Vec.approx_equal ~tol:1e-6 dense gs)

let test_scalable_system_shape () =
  let rng = Prng.Rng.create 10 in
  let p = sparse_problem rng 6 4 in
  let a, b = Scal.system_csr p in
  Alcotest.(check (pair int int)) "m x m" (4, 4) (Sparse.Csr.dims a);
  Alcotest.(check int) "rhs length" 4 (Array.length b);
  (* CSR system equals the dense system *)
  check_mat ~tol:1e-10 "system matches dense"
    (Gssl.Hard.system_matrix p) (Sparse.Csr.to_dense a)

(* ---------- baseline studies (smoke + shape) ---------- *)

let test_baseline_comparison_shape () =
  let fig = Experiment.Baselines.method_comparison ~reps:2 ~seed:90 ~ns:[ 50; 150 ] () in
  Alcotest.(check int) "five methods" 5 (List.length fig.Experiment.Sweep.series);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Experiment.Sweep.label ^ " finite")
        true
        (Array.for_all Float.is_finite s.Experiment.Sweep.means))
    fig.Experiment.Sweep.series

let test_significance_report () =
  let s = Experiment.Baselines.significance_report ~reps:10 ~seed:91 ~n:80 ~m:15 () in
  Alcotest.(check bool) "mentions wilcoxon" true
    (Astring.String.is_infix ~affix:"wilcoxon" s);
  Alcotest.(check bool) "has hard row" true
    (Astring.String.is_infix ~affix:"hard" s)

let test_two_moons_report () =
  let s = Experiment.Baselines.two_moons_report ~seed:92 ~n:120 () in
  Alcotest.(check bool) "mentions moons" true
    (Astring.String.is_infix ~affix:"Two moons" s)

let suite =
  ( "baselines",
    [
      case "two moons: basics" test_two_moons_basics;
      case "two moons: geometry" test_two_moons_geometry;
      case "two moons: gssl separates" test_two_moons_separable_by_gssl;
      case "two moons: guards" test_two_moons_guards;
      case "generators: known spectra" test_known_spectra;
      case "generators: SBM structure" test_sbm_structure;
      case "generators: SBM recovery" test_sbm_community_recovery;
      case "lgc: guards" test_lgc_guards;
      qprop "lgc: scores in [0,1]" prop_lgc_scores_in_01;
      qprop "lgc: propagation linear" prop_lgc_propagate_linear;
      case "lgc: separates moons" test_lgc_separates_moons;
      case "laprls: interpolation limit" test_laprls_interpolates_with_tiny_regularization;
      case "laprls: guards" test_laprls_guards;
      case "laprls: unlabeled predictions" test_laprls_unlabeled_predictions;
      qprop ~count:30 "laprls: manifold smoothness" prop_laprls_smooth_on_manifold;
      qprop ~count:50 "scalable: matches dense hard" prop_scalable_matches_dense;
      qprop ~count:30 "scalable: stationary matches" prop_scalable_stationary_matches;
      case "scalable: system shape" test_scalable_system_shape;
      case "baselines: comparison shape" test_baseline_comparison_shape;
      case "baselines: significance report" test_significance_report;
      case "baselines: two moons report" test_two_moons_report;
    ] )
