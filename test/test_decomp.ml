(* LU, Cholesky, QR, eigen and block-inverse tests. *)

open Test_util
module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Lu = Linalg.Lu
module Cholesky = Linalg.Cholesky
module Qr = Linalg.Qr
module Eigen = Linalg.Eigen

(* ---------- LU ---------- *)

let test_lu_solve_known () =
  (* 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3 *)
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  check_vec ~tol:1e-12 "2x2 solve" [| 1.; 3. |] (Lu.solve a [| 5.; 10. |])

let test_lu_needs_pivoting () =
  (* zero leading pivot forces a row swap *)
  let a = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_vec ~tol:1e-12 "permutation solve" [| 2.; 1. |] (Lu.solve a [| 1.; 2. |])

let test_lu_det () =
  check_float "det identity" 1. (Lu.det (Mat.eye 4));
  check_float "det diag" 24. (Lu.det (Mat.diag [| 1.; 2.; 3.; 4. |]));
  check_float "det swap sign" (-1.)
    (Lu.det (Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |]));
  check_float "det singular" 0.
    (Lu.det (Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |]))

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.(check bool) "is_singular" true (Lu.is_singular a);
  (match Lu.factor a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular");
  check_raises_invalid "not square" (fun () -> Lu.factor (Mat.zeros 2 3))

let test_lu_inverse () =
  let a = Mat.of_arrays [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  check_mat ~tol:1e-12 "inverse"
    (Mat.of_arrays [| [| 0.6; -0.7 |]; [| -0.2; 0.4 |] |])
    (Lu.inverse a)

let prop_lu_reconstruct seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = random_mat rng n n in
  match Lu.factor a with
  | exception Lu.Singular _ -> true (* rare for random matrices; skip *)
  | { lu; perm; _ } ->
      let l = Mat.init n n (fun i j -> if i = j then 1. else if j < i then Mat.get lu i j else 0.) in
      let u = Mat.init n n (fun i j -> if j >= i then Mat.get lu i j else 0.) in
      let pa = Mat.init n n (fun i j -> Mat.get a perm.(i) j) in
      Mat.approx_equal ~tol:1e-7 pa (Mat.mm l u)

let prop_lu_solve_residual seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = random_mat rng n n and b = random_vec rng n in
  match Lu.solve a b with
  | exception Lu.Singular _ -> true
  | x -> Vec.norm_inf (Vec.sub (Mat.mv a x) b) < 1e-6

let prop_inverse_identity seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 8 in
  let a = random_mat rng n n in
  match Lu.inverse a with
  | exception Lu.Singular _ -> true
  | ainv -> Mat.approx_equal ~tol:1e-6 (Mat.eye n) (Mat.mm a ainv)

let prop_det_product seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 6 in
  let a = random_mat rng n n and b = random_mat rng n n in
  let lhs = Lu.det (Mat.mm a b) and rhs = Lu.det a *. Lu.det b in
  abs_float (lhs -. rhs) <= 1e-6 *. (1. +. abs_float rhs)

(* ---------- Cholesky ---------- *)

let test_cholesky_known () =
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  let l = Cholesky.factor a in
  check_mat ~tol:1e-12 "L L^T = A" a (Mat.mm l (Mat.transpose l));
  check_float ~tol:1e-12 "lower triangular" 0. (Mat.get l 0 1)

let test_cholesky_not_pd () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (match Cholesky.factor a with
  | exception Cholesky.Not_positive_definite _ -> ()
  | _ -> Alcotest.fail "expected Not_positive_definite");
  Alcotest.(check bool) "is_spd false" false (Cholesky.is_spd a);
  Alcotest.(check bool) "is_spd true" true (Cholesky.is_spd (Mat.eye 3))

let test_cholesky_log_det () =
  let a = Mat.diag [| 2.; 3.; 4. |] in
  check_float ~tol:1e-12 "log_det" (log 24.) (Cholesky.log_det a)

let prop_cholesky_solve seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = random_spd rng n and b = random_vec rng n in
  let x = Cholesky.solve a b in
  Vec.norm_inf (Vec.sub (Mat.mv a x) b) < 1e-6

let prop_cholesky_matches_lu seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = random_spd rng n and b = random_vec rng n in
  Vec.approx_equal ~tol:1e-6 (Cholesky.solve a b) (Lu.solve a b)

let prop_cholesky_reconstruct seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = random_spd rng n in
  let l = Cholesky.factor a in
  Mat.approx_equal ~tol:1e-6 a (Mat.mm l (Mat.transpose l))

(* ---------- QR ---------- *)

let test_qr_known () =
  let a = Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.; 0. |] |] in
  let x = Qr.solve_least_squares a [| 3.; 4.; 7. |] in
  check_vec ~tol:1e-12 "trivial least squares" [| 3.; 4. |] x

let test_qr_rank_deficient () =
  let a = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |]; [| 1.; 1. |] |] in
  match Qr.solve_least_squares a [| 1.; 2.; 3. |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on rank-deficient input"

let test_qr_shape_guard () =
  check_raises_invalid "rows < cols" (fun () -> Qr.factor (Mat.zeros 2 3))

let prop_qr_reconstruct seed =
  let rng = Prng.Rng.create seed in
  let c = 1 + Prng.Rng.int rng 6 in
  let r = c + Prng.Rng.int rng 6 in
  let a = random_mat rng r c in
  let f = Qr.factor a in
  Mat.approx_equal ~tol:1e-7 a (Mat.mm (Qr.q f) (Qr.r f))

let prop_qr_orthonormal seed =
  let rng = Prng.Rng.create seed in
  let c = 1 + Prng.Rng.int rng 6 in
  let r = c + Prng.Rng.int rng 6 in
  let a = random_mat rng r c in
  let q = Qr.q (Qr.factor a) in
  Mat.approx_equal ~tol:1e-8 (Mat.eye c) (Mat.gram q)

let prop_qr_least_squares_normal_equations seed =
  let rng = Prng.Rng.create seed in
  let c = 1 + Prng.Rng.int rng 5 in
  let r = c + 1 + Prng.Rng.int rng 6 in
  let a = random_mat rng r c and b = random_vec rng r in
  match Qr.solve_least_squares a b with
  | exception Failure _ -> true
  | x ->
      (* residual must be orthogonal to the column space: A^T (Ax - b) = 0 *)
      let resid = Vec.sub (Mat.mv a x) b in
      Vec.norm_inf (Mat.tmv a resid) < 1e-6

let prop_qr_solve_matches_lu seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 8 in
  let a = random_mat rng n n and b = random_vec rng n in
  match (Qr.solve a b, Lu.solve a b) with
  | exception _ -> true
  | x_qr, x_lu -> Vec.approx_equal ~tol:1e-5 x_qr x_lu

(* ---------- Eigen ---------- *)

let test_jacobi_diagonal () =
  let { Eigen.values; _ } = Eigen.jacobi (Mat.diag [| 3.; 1.; 2. |]) in
  check_vec ~tol:1e-10 "sorted eigenvalues" [| 1.; 2.; 3. |] values

let test_jacobi_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3 *)
  let { Eigen.values; vectors } =
    Eigen.jacobi (Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |])
  in
  check_vec ~tol:1e-10 "eigenvalues" [| 1.; 3. |] values;
  (* eigenvector for 3 is (1,1)/sqrt2 up to sign *)
  let v = Mat.col vectors 1 in
  check_float ~tol:1e-10 "eigenvector ratio" 1. (v.(0) /. v.(1))

let test_power_iteration () =
  let a = Mat.diag [| 1.; 5.; 2. |] in
  let lambda, v = Eigen.power_iteration a [| 1.; 1.; 1. |] in
  check_float ~tol:1e-8 "dominant eigenvalue" 5. lambda;
  check_float ~tol:1e-4 "dominant direction" 1. (abs_float v.(1));
  (match Eigen.power_iteration a (Vec.zeros 3) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on zero start")

let test_gershgorin () =
  let a = Mat.of_arrays [| [| 2.; -1. |]; [| -1.; 2. |] |] in
  Alcotest.(check bool) "bound >= spectral radius" true
    (Eigen.spectral_radius_bound a >= 3. -. 1e-12)

let prop_eigen_reconstruct seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 7 in
  let a = random_symmetric rng n in
  let { Eigen.values; vectors } = Eigen.jacobi a in
  let lam = Mat.diag values in
  let reconstructed = Mat.mm vectors (Mat.mm lam (Mat.transpose vectors)) in
  Mat.approx_equal ~tol:1e-6 a reconstructed

let prop_eigen_orthogonal seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 7 in
  let a = random_symmetric rng n in
  let { Eigen.vectors; _ } = Eigen.jacobi a in
  Mat.approx_equal ~tol:1e-8 (Mat.eye n) (Mat.gram vectors)

let prop_eigen_trace seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 7 in
  let a = random_symmetric rng n in
  let { Eigen.values; _ } = Eigen.jacobi a in
  abs_float (Vec.sum values -. Mat.trace a) < 1e-7 *. (1. +. abs_float (Mat.trace a))

let prop_spd_has_positive_spectrum seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 7 in
  let a = random_spd rng n in
  let { Eigen.values; _ } = Eigen.jacobi a in
  Array.for_all (fun l -> l > 0.) values && Eigen.is_positive_semidefinite a

let suite =
  ( "decompositions",
    [
      case "lu: known 2x2" test_lu_solve_known;
      case "lu: pivoting required" test_lu_needs_pivoting;
      case "lu: determinants" test_lu_det;
      case "lu: singular detection" test_lu_singular;
      case "lu: known inverse" test_lu_inverse;
      qprop "lu: PA = LU" prop_lu_reconstruct;
      qprop "lu: solve residual small" prop_lu_solve_residual;
      qprop "lu: A A^-1 = I" prop_inverse_identity;
      qprop "lu: det(AB) = det A det B" prop_det_product;
      case "cholesky: known factor" test_cholesky_known;
      case "cholesky: rejects non-PD" test_cholesky_not_pd;
      case "cholesky: log_det" test_cholesky_log_det;
      qprop "cholesky: solve residual small" prop_cholesky_solve;
      qprop "cholesky: matches LU" prop_cholesky_matches_lu;
      qprop "cholesky: A = L L^T" prop_cholesky_reconstruct;
      case "qr: trivial least squares" test_qr_known;
      case "qr: rank-deficient fails" test_qr_rank_deficient;
      case "qr: shape guard" test_qr_shape_guard;
      qprop "qr: A = QR" prop_qr_reconstruct;
      qprop "qr: Q^T Q = I" prop_qr_orthonormal;
      qprop "qr: normal equations hold" prop_qr_least_squares_normal_equations;
      qprop "qr: square solve matches LU" prop_qr_solve_matches_lu;
      case "eigen: diagonal matrix" test_jacobi_diagonal;
      case "eigen: known 2x2" test_jacobi_known_2x2;
      case "eigen: power iteration" test_power_iteration;
      case "eigen: Gershgorin bound" test_gershgorin;
      qprop "eigen: V D V^T = A" prop_eigen_reconstruct;
      qprop "eigen: orthogonal vectors" prop_eigen_orthogonal;
      qprop "eigen: trace = sum of eigenvalues" prop_eigen_trace;
      qprop "eigen: SPD spectrum positive" prop_spd_has_positive_spectrum;
    ] )
