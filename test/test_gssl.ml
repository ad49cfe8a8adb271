(* Tests of the paper's core: problem construction, hard/soft criteria,
   label propagation, Nadaraya-Watson, the theory diagnostics, and the
   paper-level facts (Propositions II.1/II.2, the toy example, the
   harmonic/maximum principles). *)

open Test_util
module P = Gssl.Problem
module Hard = Gssl.Hard
module Soft = Gssl.Soft
module Lp = Gssl.Label_propagation
module Nw = Gssl.Nadaraya_watson
module Est = Gssl.Estimator
module Theory = Gssl.Theory
module Mat = Linalg.Mat
module Vec = Linalg.Vec

(* A connected random problem: points in [0,2]^2 with an RBF graph of
   bandwidth 1.5 (weights never vanish, so always connected). *)
let random_problem ?(continuous = false) rng n m =
  let points = Array.init (n + m) (fun _ ->
      [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let labels =
    Array.init n (fun _ ->
        if continuous then Prng.Rng.uniform rng (-1.) 1.
        else if Prng.Rng.bernoulli rng 0.5 then 1.
        else 0.)
  in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels

(* ---------- Problem ---------- *)

let test_problem_validation () =
  let g = Graph.Weighted_graph.of_dense (Mat.ones 3 3) in
  check_raises_invalid "no labels" (fun () -> ignore (P.make ~graph:g ~labels:[||]));
  check_raises_invalid "too many labels" (fun () ->
      ignore (P.make ~graph:g ~labels:(Vec.zeros 4)));
  let p = P.make ~graph:g ~labels:[| 1.; 0. |] in
  Alcotest.(check int) "n" 2 (P.n_labeled p);
  Alcotest.(check int) "m" 1 (P.n_unlabeled p);
  Alcotest.(check int) "size" 3 (P.size p);
  Alcotest.(check (array int)) "labeled idx" [| 0; 1 |] (P.labeled_indices p);
  Alcotest.(check (array int)) "unlabeled idx" [| 2 |] (P.unlabeled_indices p)

let test_problem_blocks () =
  let rng = Prng.Rng.create 1 in
  let p = random_problem rng 3 2 in
  let w11, w12, w21, w22 = P.blocks p in
  Alcotest.(check (pair int int)) "w11" (3, 3) (Mat.dims w11);
  Alcotest.(check (pair int int)) "w12" (3, 2) (Mat.dims w12);
  Alcotest.(check (pair int int)) "w21" (2, 3) (Mat.dims w21);
  Alcotest.(check (pair int int)) "w22" (2, 2) (Mat.dims w22);
  check_mat ~tol:1e-12 "w21 = w12^T" (Mat.transpose w12) w21;
  (* degrees = row sums of the full matrix *)
  let w = Graph.Weighted_graph.to_dense p.P.graph in
  check_vec ~tol:1e-12 "degrees" (Mat.row_sums w) (P.degrees p)

let test_problem_of_points () =
  let labeled = [| ([| 0. |], 1.); ([| 1. |], 0.) |] in
  let unlabeled = [| [| 0.5 |] |] in
  let p =
    P.of_points ~kernel:Kernel.Kernel_fn.Rbf
      ~bandwidth:(Kernel.Bandwidth.Fixed 1.) ~labeled ~unlabeled
  in
  Alcotest.(check int) "size" 3 (P.size p);
  Alcotest.(check bool) "coupling > 0" true ((P.unlabeled_coupling p).(0) > 0.);
  check_raises_invalid "no labeled" (fun () ->
      ignore
        (P.of_points ~kernel:Kernel.Kernel_fn.Rbf
           ~bandwidth:(Kernel.Bandwidth.Fixed 1.) ~labeled:[||] ~unlabeled))

(* ---------- Hard criterion ---------- *)

let test_hard_m_zero () =
  let g = Graph.Weighted_graph.of_dense (Mat.ones 2 2) in
  let p = P.make ~graph:g ~labels:[| 1.; 0. |] in
  Alcotest.(check int) "empty prediction" 0 (Array.length (Hard.solve p));
  check_vec "solve_full = labels" [| 1.; 0. |] (Hard.solve_full p)

let test_hard_two_point_interpolation () =
  (* one unlabeled point connected to two labeled ones: prediction is the
     weight-proportional average *)
  let w =
    Mat.of_arrays
      [| [| 0.; 0.; 3. |]; [| 0.; 0.; 1. |]; [| 3.; 1.; 0. |] |]
  in
  let p = P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels:[| 1.; 0. |] in
  check_vec ~tol:1e-12 "weighted average" [| 0.75 |] (Hard.solve p)

let test_hard_unanchored () =
  (* unlabeled vertex 2 isolated from everything *)
  let w =
    Mat.of_arrays
      [| [| 0.; 1.; 0. |]; [| 1.; 0.; 0. |]; [| 0.; 0.; 0. |] |]
  in
  let p = P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels:[| 1.; 0. |] in
  match Hard.solve p with
  | exception Hard.Unanchored_unlabeled 2 -> ()
  | exception Hard.Unanchored_unlabeled v -> Alcotest.failf "wrong vertex %d" v
  | _ -> Alcotest.fail "expected Unanchored_unlabeled"

let test_anchored_mask_smallest_vertex () =
  (* labels on 0 and 1; 2, 3 and 4 reach them; 5-7 form an unlabeled
     component and 6 is isolated *)
  let w = Mat.zeros 8 8 in
  List.iter
    (fun (i, j) ->
      Mat.set w i j 1.;
      Mat.set w j i 1.)
    [ (0, 2); (1, 3); (3, 4); (5, 7) ];
  let p = P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels:[| 1.; 0. |] in
  Alcotest.(check (array bool))
    "mask over vertices 2..7"
    [| true; true; true; false; false; false |]
    (P.anchored_mask p);
  let expect_vertex_5 name f =
    match f () with
    | exception Hard.Unanchored_unlabeled 5 -> ()
    | exception Hard.Unanchored_unlabeled v ->
        Alcotest.failf "%s: reported vertex %d, expected 5" name v
    | _ -> Alcotest.failf "%s: expected Unanchored_unlabeled" name
  in
  expect_vertex_5 "Hard.solve" (fun () -> ignore (Hard.solve p));
  expect_vertex_5 "Scalable.solve_hard" (fun () ->
      ignore (Gssl.Scalable.solve_hard ~unanchored:`Raise p));
  expect_vertex_5 "Scalable.solve_stationary" (fun () ->
      ignore
        (Gssl.Scalable.solve_stationary Sparse.Stationary.Gauss_seidel p));
  expect_vertex_5 "Incremental.create" (fun () ->
      ignore (Gssl.Incremental.create p))

(* Whether a Cholesky factorization of the singular system succeeds
   depends on the unanchored pair's weight; the anchoring check must
   not. *)
let test_incremental_unanchored_pair () =
  List.iter
    (fun w ->
      match Gssl.Incremental.create (unanchored_pair_problem w) with
      | exception Hard.Unanchored_unlabeled 3 -> ()
      | exception Hard.Unanchored_unlabeled v ->
          Alcotest.failf "w = %g: reported vertex %d, expected 3" w v
      | _ -> Alcotest.failf "w = %g: expected Unanchored_unlabeled" w)
    [ 0.3; 0.7; 0.01 ]

let prop_hard_solvers_agree seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 8 in
  let p = random_problem rng n m in
  let chol = Hard.solve ~solver:Hard.Cholesky p in
  let lu = Hard.solve ~solver:Hard.Lu p in
  let cg = Hard.solve ~solver:(Hard.Cg { tol = 1e-12 }) p in
  Vec.approx_equal ~tol:1e-7 chol lu && Vec.approx_equal ~tol:1e-6 chol cg

let prop_hard_maximum_principle seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 8 in
  let p = random_problem ~continuous:true rng n m in
  let f = Hard.solve p in
  let lo = Vec.min p.P.labels and hi = Vec.max p.P.labels in
  Array.for_all (fun v -> v >= lo -. 1e-8 && v <= hi +. 1e-8) f

let prop_hard_is_harmonic seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 8 in
  let p = random_problem ~continuous:true rng n m in
  Hard.is_harmonic p (Hard.solve_full p)

let prop_hard_minimizes_energy seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem ~continuous:true rng n m in
  let f = Hard.solve_full p in
  let base = Hard.energy p f in
  (* any perturbation of the unlabeled scores must not lower the energy *)
  let ok = ref true in
  for _ = 1 to 5 do
    let g = Vec.copy f in
    for a = n to n + m - 1 do
      g.(a) <- g.(a) +. Prng.Rng.uniform rng (-0.5) 0.5
    done;
    if Hard.energy p g < base -. 1e-9 then ok := false
  done;
  !ok

let prop_hard_m1_equals_nw seed =
  (* with a single unlabeled point the hard solution is exactly the
     Nadaraya-Watson estimate: d - w_self = sum of labeled weights *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 10 in
  let p = random_problem ~continuous:true rng n 1 in
  let hard = Hard.solve p in
  let nw = Nw.of_problem p in
  Vec.approx_equal ~tol:1e-9 hard nw

let prop_hard_shift_equivariant seed =
  (* adding c to every label adds c to every prediction (affine
     equivariance of the harmonic solution) *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem ~continuous:true rng n m in
  let c = Prng.Rng.uniform rng (-2.) 2. in
  let shifted =
    P.make ~graph:p.P.graph ~labels:(Vec.add_scalar c p.P.labels)
  in
  Vec.approx_equal ~tol:1e-7
    (Vec.add_scalar c (Hard.solve p))
    (Hard.solve shifted)

(* ---------- Soft criterion ---------- *)

let test_soft_lambda_guard () =
  let rng = Prng.Rng.create 2 in
  let p = random_problem rng 3 2 in
  check_raises_invalid "lambda 0" (fun () -> ignore (Soft.solve ~lambda:0. p));
  check_raises_invalid "lambda negative" (fun () ->
      ignore (Soft.solve ~lambda:(-1.) p))

let prop_soft_methods_agree seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 8 in
  let p = random_problem rng n m in
  let lambda = 0.01 +. Prng.Rng.float rng in
  let full = Soft.solve ~method_:Soft.Full_cholesky ~lambda p in
  let block = Soft.solve ~method_:Soft.Block ~lambda p in
  let cg = Soft.solve ~method_:(Soft.Cg { tol = 1e-12 }) ~lambda p in
  Vec.approx_equal ~tol:1e-6 full block && Vec.approx_equal ~tol:1e-6 full cg

let prop_soft_full_methods_agree seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  let lambda = 0.05 +. Prng.Rng.float rng in
  let full = Soft.solve_full ~method_:Soft.Full_cholesky ~lambda p in
  let block = Soft.solve_full ~method_:Soft.Block ~lambda p in
  Vec.approx_equal ~tol:1e-6 full block

let prop_soft_lambda_to_zero_is_hard seed =
  (* Proposition II.1: the λ→0 limit of the soft criterion is the hard
     criterion *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  let hard = Hard.solve p in
  let soft = Soft.solve ~method_:Soft.Block ~lambda:1e-9 p in
  Vec.approx_equal ~tol:1e-5 hard soft

let prop_soft_lambda_large_collapses seed =
  (* Proposition II.2: λ→∞ predicts the label mean everywhere *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  let soft = Soft.solve ~lambda:1e7 p in
  let ybar = Soft.lambda_infinity_limit p in
  Vec.norm_inf (Vec.add_scalar (-.ybar) soft) < 1e-4

(* Deterministic regression pins of the two propositions: fixed seeds,
   every solver method, so a numerical regression in any backend trips
   them even if the randomized properties happen to miss it. *)
let regression_seeds = [ 1; 2; 3; 7; 42 ]

let test_prop_ii1_regression () =
  List.iter
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let n = 3 + Prng.Rng.int rng 6 and m = 2 + Prng.Rng.int rng 6 in
      let p = random_problem rng n m in
      let hard = Hard.solve p in
      List.iter
        (fun (name, method_) ->
          let soft = Soft.solve ~method_ ~lambda:1e-9 p in
          check_vec ~tol:1e-5
            (Printf.sprintf "Prop II.1 seed %d, %s" seed name)
            hard soft)
        [
          ("block", Soft.Block);
          ("full cholesky", Soft.Full_cholesky);
          ("cg", Soft.Cg { tol = 1e-13 });
        ])
    regression_seeds

let test_prop_ii2_regression () =
  List.iter
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let n = 3 + Prng.Rng.int rng 6 and m = 2 + Prng.Rng.int rng 6 in
      let p = random_problem rng n m in
      let ybar = Soft.lambda_infinity_limit p in
      check_float ~tol:1e-12 "collapse target is the labeled mean"
        (Vec.mean p.P.labels) ybar;
      let err = Vec.norm_inf (Vec.add_scalar (-.ybar) (Soft.solve ~lambda:1e8 p)) in
      if err > 1e-5 then
        Alcotest.failf "Prop II.2 seed %d: sup distance to label mean %g" seed err;
      (* the collapse is monotone in lambda along the way *)
      let dist lambda =
        Vec.norm_inf (Vec.add_scalar (-.ybar) (Soft.solve ~lambda p))
      in
      let d1 = dist 1. and d2 = dist 100. and d3 = dist 1e4 in
      if not (d2 <= d1 +. 1e-9 && d3 <= d2 +. 1e-9) then
        Alcotest.failf "Prop II.2 seed %d: collapse not monotone (%g, %g, %g)"
          seed d1 d2 d3)
    regression_seeds

let prop_soft_minimizes_objective seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem ~continuous:true rng n m in
  let lambda = 0.1 +. Prng.Rng.float rng in
  let f = Soft.solve_full ~lambda p in
  let base = Soft.objective ~lambda p f in
  let ok = ref true in
  for _ = 1 to 5 do
    let g = Array.map (fun v -> v +. Prng.Rng.uniform rng (-0.3) 0.3) f in
    if Soft.objective ~lambda p g < base -. 1e-9 then ok := false
  done;
  !ok

let prop_soft_training_error_grows_with_lambda seed =
  (* more smoothing => labeled scores drift further from the labels *)
  let rng = Prng.Rng.create seed in
  let n = 3 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  let err lambda =
    let f = Soft.solve_full ~lambda p in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let d = p.P.labels.(i) -. f.(i) in
      acc := !acc +. (d *. d)
    done;
    !acc
  in
  err 0.01 <= err 1. +. 1e-9

(* ---------- Label propagation ---------- *)

let prop_propagation_matches_hard seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 8 in
  let p = random_problem rng n m in
  let hard = Hard.solve p in
  let lp = Lp.solve_exn ~tol:1e-13 p in
  Vec.approx_equal ~tol:1e-6 hard lp

let test_propagation_reports_iterations () =
  let rng = Prng.Rng.create 3 in
  let p = random_problem rng 5 3 in
  let out = Lp.run p in
  Alcotest.(check bool) "converged" true out.Lp.converged;
  Alcotest.(check bool) "iterated" true (out.Lp.iterations > 0);
  Alcotest.(check bool) "delta small" true (out.Lp.final_delta <= 1e-10)

let test_propagation_max_iter () =
  let rng = Prng.Rng.create 4 in
  let p = random_problem rng 5 3 in
  let out = Lp.run ~max_iter:1 p in
  Alcotest.(check bool) "not converged in 1 step" false out.Lp.converged

let test_propagation_init () =
  let rng = Prng.Rng.create 5 in
  let p = random_problem rng 4 2 in
  (* warm start at the solution converges immediately-ish *)
  let sol = Hard.solve p in
  let out = Lp.run ~init:sol p in
  Alcotest.(check bool) "warm start fast" true (out.Lp.iterations <= 3);
  check_raises_invalid "bad init length" (fun () ->
      ignore (Lp.run ~init:[| 0. |] p))

(* ---------- Nadaraya-Watson ---------- *)

let test_nw_direct () =
  let labeled = [| ([| 0. |], 0.); ([| 2. |], 1.) |] in
  let q =
    Nw.predict ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1. ~labeled [| 1. |]
  in
  (* equidistant: average *)
  check_float ~tol:1e-12 "midpoint" 0.5 q;
  check_raises_invalid "no labeled" (fun () ->
      ignore (Nw.predict ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1. ~labeled:[||] [| 0. |]))

let test_nw_locality () =
  let labeled = [| ([| 0. |], 0.); ([| 10. |], 1.) |] in
  let q =
    Nw.predict ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1. ~labeled [| 0.1 |]
  in
  Alcotest.(check bool) "near 0-labeled point" true (q < 0.01)

let prop_nw_in_label_range seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 10 in
  let labeled =
    Array.init n (fun _ -> (random_vec rng 2, Prng.Rng.uniform rng (-1.) 1.))
  in
  let ys = Array.map snd labeled in
  let q =
    Nw.predict ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:2. ~labeled (random_vec rng 2)
  in
  q >= Vec.min ys -. 1e-9 && q <= Vec.max ys +. 1e-9

let prop_nw_of_problem_matches_direct seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 5 in
  let points =
    Array.init (n + m) (fun _ ->
        [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let labels = Array.init n (fun _ -> Prng.Rng.float rng) in
  let labeled = Array.init n (fun i -> (points.(i), labels.(i))) in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  let p = P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels in
  let via_problem = Nw.of_problem p in
  let direct =
    Array.init m (fun a ->
        Nw.predict ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 ~labeled
          points.(n + a))
  in
  Vec.approx_equal ~tol:1e-9 via_problem direct

(* ---------- Estimator facade ---------- *)

let test_estimator_mapping () =
  Alcotest.(check bool) "lambda 0 -> Hard" true
    (Est.criterion_of_lambda 0. = Est.Hard);
  Alcotest.(check bool) "lambda pos -> Soft" true
    (Est.criterion_of_lambda 0.5 = Est.Soft 0.5);
  check_raises_invalid "negative" (fun () -> ignore (Est.criterion_of_lambda (-1.)));
  check_float "roundtrip" 0.5 (Est.lambda_of_criterion (Est.Soft 0.5));
  Alcotest.(check string) "name" "hard (lambda=0)" (Est.criterion_name Est.Hard)

let prop_estimator_strategies_agree seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  let h1 = Est.predict ~strategy:Est.Direct Est.Hard p in
  let h2 = Est.predict ~strategy:Est.Iterative Est.Hard p in
  let s1 = Est.predict ~strategy:Est.Direct (Est.Soft 0.3) p in
  let s2 = Est.predict ~strategy:Est.Iterative (Est.Soft 0.3) p in
  Vec.approx_equal ~tol:1e-6 h1 h2 && Vec.approx_equal ~tol:1e-6 s1 s2

let test_classify () =
  Alcotest.(check (array bool)) "threshold 0.5" [| true; false; true |]
    (Est.classify [| 0.9; 0.2; 0.5 |]);
  Alcotest.(check (array bool)) "custom threshold" [| true; true; true |]
    (Est.classify ~threshold:0.1 [| 0.9; 0.2; 0.5 |])

(* ---------- Theory diagnostics ---------- *)

let test_tiny_elements_bound_formula () =
  (* M/(n h^d) with M = 2 k*/(s beta) *)
  check_float "bound value" (2. /. (0.5 *. 0.5) /. (100. *. 0.5))
    (Theory.tiny_elements_bound ~k_star:1. ~beta:0.5 ~s:0.5 ~n:100 ~h:(0.5 ** 0.2) ~d:5);
  check_raises_invalid "bad params" (fun () ->
      ignore (Theory.tiny_elements_bound ~k_star:0. ~beta:1. ~s:1. ~n:1 ~h:1. ~d:1))

let prop_d22_inv_w22_row_sums_below_one seed =
  (* rows of D22^{-1} W22 sum to (unlabeled mass)/(degree) < 1 when the
     unlabeled point touches the labeled set *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  let b = Theory.d22_inv_w22 p in
  Array.for_all (fun s -> s < 1.) (Mat.row_sums b)

let prop_tiny_elements_shrink_with_n seed =
  let rng = Prng.Rng.create seed in
  let m = 3 in
  let small = random_problem rng 5 m in
  let rng2 = Prng.Rng.create seed in
  let large = random_problem rng2 60 m in
  Theory.tiny_elements_max large < Theory.tiny_elements_max small +. 1e-12

let test_neumann_partial_sum_guard () =
  let rng = Prng.Rng.create 6 in
  let p = random_problem rng 4 2 in
  check_raises_invalid "l=0" (fun () -> ignore (Theory.neumann_partial_sum p 0))

let prop_neumann_gives_inverse seed =
  (* I + S = (I - D22^{-1}W22)^{-1}, so (I + S)(I - B) = I *)
  let rng = Prng.Rng.create seed in
  let n = 3 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 4 in
  let p = random_problem rng n m in
  if not (Theory.neumann_converges ~l:300 ~tol:1e-11 p) then true
  else begin
    let s = Theory.neumann_partial_sum p 300 in
    let b = Theory.d22_inv_w22 p in
    let i_plus_s = Mat.add (Mat.eye m) s in
    let i_minus_b = Mat.sub (Mat.eye m) b in
    Mat.approx_equal ~tol:1e-6 (Mat.eye m) (Mat.mm i_plus_s i_minus_b)
  end

let prop_g_residual_bounded seed =
  (* |g_(n+a)| <= max|Y| * (unlabeled mass ratio) — the bound used in the
     proof *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  (* labels are 0/1 here so max|Y| <= 1 *)
  let bound = Theory.unlabeled_mass_ratio p in
  Array.for_all (fun g -> abs_float g <= bound +. 1e-9) (Theory.g_residuals p)

let prop_nw_gap_vs_mass_ratio seed =
  (* the full gap |hard - NW| is controlled by the coupling ratio (the
     proof's mechanism); we check a generous 3x multiple *)
  let rng = Prng.Rng.create seed in
  let n = 5 + Prng.Rng.int rng 10 and m = 1 + Prng.Rng.int rng 3 in
  let p = random_problem rng n m in
  let gap = Vec.norm_inf (Theory.nw_gap p) in
  let ratio = Theory.unlabeled_mass_ratio p in
  gap <= (3. *. ratio) +. 1e-9

let prop_soft_collapse_monotone seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p = random_problem rng n m in
  let e1 = Theory.soft_collapse_error ~lambda:1. p in
  let e2 = Theory.soft_collapse_error ~lambda:100. p in
  e2 <= e1 +. 1e-9

(* ---------- dense kernels: bits and allocation ---------- *)

(* Eq. (5)'s matrix and right-hand side read entry by entry through
   Weighted_graph.weight, as they were before dense storage read W's
   rows directly. *)
let reference_system problem =
  let n = P.n_labeled problem and m = P.n_unlabeled problem in
  let d = P.degrees problem in
  let g = problem.P.graph in
  let a =
    Mat.init m m (fun a b ->
        let w = Graph.Weighted_graph.weight g (n + a) (n + b) in
        if a = b then d.(n + a) -. w else -.w)
  in
  let y = problem.P.labels in
  let b =
    Array.init m (fun a ->
        let acc = ref 0. in
        for i = 0 to n - 1 do
          acc := !acc +. (Graph.Weighted_graph.weight g (n + a) i *. y.(i))
        done;
        !acc)
  in
  (a, b)

let prop_hard_system_bits seed =
  let rng = Prng.Rng.create seed in
  let size = 2 + Prng.Rng.int rng 40 in
  let w = random_weights rng size in
  for i = 0 to size - 1 do
    if Prng.Rng.bool rng then Mat.set w i i (Prng.Rng.uniform rng 0.1 1.)
  done;
  let labels = random_vec rng (1 + Prng.Rng.int rng (size - 1)) in
  let bits = Array.map Int64.bits_of_float in
  List.for_all
    (fun graph ->
      let p = P.make ~graph ~labels in
      let a, b = reference_system p in
      bits (Hard.system_matrix p).Mat.data = bits a.Mat.data
      && bits (Hard.rhs p) = bits b)
    [
      Graph.Weighted_graph.of_dense w;
      Graph.Weighted_graph.of_sparse (Sparse.Csr.of_dense w);
    ]

(* One Figs. 1-4 replicate's dense stages at N = 600 allocate what they
   return and little else: Problem.of_points one N x N matrix (the
   similarity, written over its distances), degrees and the anchored
   mask O(N) words on a fresh graph, a dense soft-operator apply a few
   words.  Counting an entry-by-entry pass that boxes its floats, these
   read ~10 words per entry, N^2 words and 2 words per row. *)
let test_dense_stages_allocate_little () =
  Parallel.Pool.with_default_domains 1 (fun () ->
      let rng = Prng.Rng.create 23 in
      let size = 600 and n = 60 in
      let point () = random_vec rng 5 in
      let labeled = Array.init n (fun _ -> (point (), Prng.Rng.float rng)) in
      let unlabeled = Array.init (size - n) (fun _ -> point ()) in
      let p, words =
        alloc_words (fun () ->
            P.of_points ~kernel:Kernel.Kernel_fn.Rbf
              ~bandwidth:(Kernel.Bandwidth.Fixed 4.) ~labeled ~unlabeled)
      in
      let per_entry = words /. float_of_int (size * size) in
      if per_entry > 1.1 then
        Alcotest.failf "of_points: %.2f words per entry at N = %d (bound 1.1)"
          per_entry size;
      let w = Graph.Weighted_graph.to_dense p.P.graph in
      let fresh () =
        P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels:p.P.labels
      in
      let linear name f =
        let q = fresh () in
        let _, words = alloc_words (fun () -> f q) in
        if words > float_of_int (10 * size) then
          Alcotest.failf "%s: %.0f words at N = %d (bound %d)" name words size
            (10 * size)
      in
      linear "degrees" (fun q -> ignore (P.degrees q));
      linear "anchored_mask" (fun q -> ignore (P.anchored_mask q));
      let op =
        Graph.Laplacian.operator ~lambda:0.1 ~n_labeled:n (fresh ()).P.graph
      in
      let x = random_vec rng size and y = Array.make size 0. in
      let applies = 20 in
      let _, words =
        alloc_words (fun () ->
            for _ = 1 to applies do
              op.Sparse.Linop.apply x y
            done)
      in
      let per_apply = words /. float_of_int applies in
      if per_apply > 64. then
        Alcotest.failf "dense operator: %.0f words per apply at N = %d (bound 64)"
          per_apply size)

let suite =
  ( "gssl",
    [
      case "problem validation" test_problem_validation;
      case "problem blocks" test_problem_blocks;
      case "problem of_points" test_problem_of_points;
      case "hard: m=0" test_hard_m_zero;
      case "hard: two-point interpolation" test_hard_two_point_interpolation;
      case "hard: unanchored detection" test_hard_unanchored;
      case "anchored mask: solvers report the smallest unanchored vertex"
        test_anchored_mask_smallest_vertex;
      case "incremental: unanchored pair raises at any weight"
        test_incremental_unanchored_pair;
      qprop "hard: solvers agree" prop_hard_solvers_agree;
      qprop "hard: maximum principle" prop_hard_maximum_principle;
      qprop "hard: solution harmonic" prop_hard_is_harmonic;
      qprop "hard: minimizes energy" prop_hard_minimizes_energy;
      qprop "hard: m=1 equals NW" prop_hard_m1_equals_nw;
      qprop "hard: shift equivariant" prop_hard_shift_equivariant;
      case "soft: lambda guard" test_soft_lambda_guard;
      qprop "soft: methods agree" prop_soft_methods_agree;
      qprop "soft: full methods agree" prop_soft_full_methods_agree;
      qprop "Prop II.1: soft(0+) = hard" prop_soft_lambda_to_zero_is_hard;
      qprop "Prop II.2: soft(inf) = label mean" prop_soft_lambda_large_collapses;
      case "Prop II.1 regression (fixed seeds, all methods)" test_prop_ii1_regression;
      case "Prop II.2 regression (fixed seeds, monotone collapse)" test_prop_ii2_regression;
      qprop "soft: minimizes objective" prop_soft_minimizes_objective;
      qprop "soft: training error grows in lambda"
        prop_soft_training_error_grows_with_lambda;
      qprop "propagation matches hard" prop_propagation_matches_hard;
      case "propagation outcome fields" test_propagation_reports_iterations;
      case "propagation max_iter" test_propagation_max_iter;
      case "propagation warm start" test_propagation_init;
      case "nw: direct evaluation" test_nw_direct;
      case "nw: locality" test_nw_locality;
      qprop "nw: stays in label range" prop_nw_in_label_range;
      qprop "nw: of_problem = direct" prop_nw_of_problem_matches_direct;
      case "estimator: criterion mapping" test_estimator_mapping;
      qprop "estimator: strategies agree" prop_estimator_strategies_agree;
      case "estimator: classify" test_classify;
      case "theory: bound formula" test_tiny_elements_bound_formula;
      qprop "theory: B row sums < 1" prop_d22_inv_w22_row_sums_below_one;
      qprop "theory: tiny elements shrink" prop_tiny_elements_shrink_with_n;
      case "theory: neumann guard" test_neumann_partial_sum_guard;
      qprop "theory: neumann inverse" prop_neumann_gives_inverse;
      qprop "theory: g residual bound" prop_g_residual_bounded;
      qprop "theory: nw gap vs mass ratio" prop_nw_gap_vs_mass_ratio;
      qprop "theory: collapse monotone" prop_soft_collapse_monotone;
      qprop "hard: system_matrix, rhs = per-entry weight reads (dense, CSR)"
        prop_hard_system_bits;
      case "dense replicate stages allocate O(N^2) once, O(N), O(1)"
        test_dense_stages_allocate_little;
    ] )
