(* Wave-5 tests: explicit failure-mode / failure-injection coverage for
   the solvers. *)

open Test_util
module Vec = Linalg.Vec
module Mat = Linalg.Mat

(* ---------- failure modes / failure injection ---------- *)

let test_cg_iteration_cap () =
  let rng = Prng.Rng.create 11 in
  let a = random_spd rng 30 in
  let b = random_vec rng 30 in
  let out = Sparse.Cg.solve ~max_iter:1 ~tol:1e-14 (Sparse.Linop.of_dense a) b in
  Alcotest.(check bool) "capped" true (not out.Sparse.Cg.converged);
  Alcotest.(check int) "one iteration" 1 out.Sparse.Cg.iterations;
  match
    Sparse.Cg.solve_exn ~max_iter:1 ~tol:1e-14 (Sparse.Linop.of_dense a) b
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure from solve_exn"

let test_stationary_divergence_detected () =
  (* non-diagonally-dominant symmetric matrix: Jacobi diverges but the
     outcome reports converged = false rather than looping forever *)
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  let out =
    Sparse.Stationary.solve ~max_iter:50 Sparse.Stationary.Jacobi
      (Sparse.Csr.of_dense a) [| 1.; 1. |]
  in
  Alcotest.(check bool) "not converged" false out.Sparse.Stationary.converged

let test_propagation_cap_reported () =
  let rng = Prng.Rng.create 12 in
  let points = Array.init 20 (fun _ -> random_vec rng 2) in
  let labels = Array.init 5 (fun i -> float_of_int (i mod 2)) in
  let w = Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:2. points in
  let p = Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels in
  match Gssl.Label_propagation.solve_exn ~max_iter:1 p with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure at max_iter 1"

let test_singular_soft_system_detected () =
  (* a graph with an isolated unlabeled vertex makes V + lambda L singular
     on that coordinate; the solver must fail loudly, not return garbage *)
  let w = Mat.zeros 3 3 in
  Mat.set w 0 1 1.;
  Mat.set w 1 0 1.;
  let p = Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels:[| 1.; 0. |] in
  match Gssl.Soft.solve ~lambda:0.5 p with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on singular soft system"

let test_nw_nan_on_unreachable () =
  (* compact kernel, far-away unlabeled point: NW is undefined (nan) *)
  let labeled = [| ([| 0. |], 1.) |] in
  let q =
    Gssl.Nadaraya_watson.predict ~kernel:Kernel.Kernel_fn.Box ~bandwidth:1.
      ~labeled [| 50. |]
  in
  Alcotest.(check bool) "nan" true (Float.is_nan q)

let test_jacobi_eigen_max_sweeps () =
  let rng = Prng.Rng.create 13 in
  let a = random_symmetric rng 12 in
  match Linalg.Eigen.jacobi ~max_sweeps:0 a with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure with zero sweeps"

let suite =
  ( "wave5",
    [
      case "failure: cg iteration cap" test_cg_iteration_cap;
      case "failure: jacobi divergence" test_stationary_divergence_detected;
      case "failure: propagation cap" test_propagation_cap_reported;
      case "failure: singular soft system" test_singular_soft_system_detected;
      case "failure: NW undefined far away" test_nw_nan_on_unreachable;
      case "failure: eigen sweep cap" test_jacobi_eigen_max_sweeps;
    ] )
