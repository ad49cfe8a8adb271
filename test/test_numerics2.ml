(* Tests for the second-wave numerics: SVD, rank-one updates, Nystrom
   approximation. *)

open Test_util
module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Svd = Linalg.Svd
module R1 = Linalg.Rank_one

(* ---------- SVD ---------- *)

let test_svd_diagonal () =
  let a = Mat.diag [| 3.; 1.; 2. |] in
  let { Svd.s; _ } = Svd.decompose a in
  check_vec ~tol:1e-10 "singular values sorted" [| 3.; 2.; 1. |] s

let test_svd_rank_deficient () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |] in
  let d = Svd.decompose a in
  Alcotest.(check int) "rank 1" 1 (Svd.rank d);
  check_float "second sv ~ 0" 0. ~tol:1e-8 d.Svd.s.(1);
  Alcotest.(check bool) "condition infinite" true
    (Float.is_integer (Svd.condition_number d) = false
    || Svd.condition_number d = infinity
    || Svd.condition_number d > 1e12)

let test_svd_shape_guard () =
  check_raises_invalid "m < n" (fun () -> ignore (Svd.decompose (Mat.zeros 2 3)))

let prop_svd_reconstruct seed =
  let rng = Prng.Rng.create seed in
  let c = 1 + Prng.Rng.int rng 6 in
  let r = c + Prng.Rng.int rng 6 in
  let a = random_mat rng r c in
  Mat.approx_equal ~tol:1e-7 a (Svd.reconstruct (Svd.decompose a))

let prop_svd_orthogonality seed =
  let rng = Prng.Rng.create seed in
  let c = 1 + Prng.Rng.int rng 6 in
  let r = c + Prng.Rng.int rng 6 in
  let a = random_mat rng r c in
  let { Svd.u; v; _ } = Svd.decompose a in
  Mat.approx_equal ~tol:1e-8 (Mat.eye c) (Mat.gram u)
  && Mat.approx_equal ~tol:1e-8 (Mat.eye c) (Mat.gram v)

let prop_svd_values_descending seed =
  let rng = Prng.Rng.create seed in
  let c = 1 + Prng.Rng.int rng 6 in
  let r = c + Prng.Rng.int rng 6 in
  let { Svd.s; _ } = Svd.decompose (random_mat rng r c) in
  let ok = ref true in
  for i = 1 to Array.length s - 1 do
    if s.(i) > s.(i - 1) +. 1e-12 then ok := false;
    if s.(i) < 0. then ok := false
  done;
  !ok

let prop_svd_matches_eigen seed =
  (* singular values of A = sqrt of eigenvalues of A^T A *)
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 5 in
  let a = random_mat rng (n + 2) n in
  let { Svd.s; _ } = Svd.decompose a in
  let eigs = Linalg.Eigen.eigenvalues (Mat.gram a) in
  let ok = ref true in
  for i = 0 to n - 1 do
    let expected = sqrt (Stdlib.max 0. eigs.(n - 1 - i)) in
    if abs_float (s.(i) -. expected) > 1e-6 *. (1. +. expected) then ok := false
  done;
  !ok

let prop_pseudo_inverse_properties seed =
  (* Moore-Penrose: A A+ A = A *)
  let rng = Prng.Rng.create seed in
  let c = 1 + Prng.Rng.int rng 5 in
  let r = c + Prng.Rng.int rng 5 in
  let a = random_mat rng r c in
  let pinv = Svd.pseudo_inverse (Svd.decompose a) in
  Mat.approx_equal ~tol:1e-6 a (Mat.mm a (Mat.mm pinv a))

let test_pseudo_inverse_of_invertible () =
  let a = Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 4. |] |] in
  check_mat ~tol:1e-10 "pinv = inverse"
    (Mat.of_arrays [| [| 0.5; 0. |]; [| 0.; 0.25 |] |])
    (Svd.pseudo_inverse (Svd.decompose a))

(* ---------- rank-one updates ---------- *)

let prop_sherman_morrison seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 8 in
  let a = random_spd rng n in
  let u = random_vec rng n and v = random_vec rng n in
  let a_inv = Linalg.Lu.inverse a in
  match R1.sherman_morrison a_inv u v with
  | exception Failure _ -> true (* singular update: allowed *)
  | updated ->
      let direct = Mat.add a (Mat.outer u v) in
      (match Linalg.Lu.inverse direct with
      | exception Linalg.Lu.Singular _ -> true
      | expected -> Mat.approx_equal ~tol:1e-5 expected updated)

let prop_symmetric_update seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 8 in
  let a = random_spd rng n in
  let u = random_vec rng n in
  let c = 0.1 +. Prng.Rng.float rng in
  let updated = R1.symmetric_update (Linalg.Lu.inverse a) c u in
  let direct = Linalg.Lu.inverse (Mat.add a (Mat.scale c (Mat.outer u u))) in
  Mat.approx_equal ~tol:1e-5 direct updated

let test_sherman_morrison_guards () =
  let a_inv = Mat.eye 2 in
  check_raises_invalid "dim mismatch" (fun () ->
      ignore (R1.sherman_morrison a_inv [| 1. |] [| 1.; 2. |]));
  (* u v^T = -I on a 1-dim space makes A + uv^T singular *)
  let one = Mat.eye 1 in
  match R1.sherman_morrison one [| -1. |] [| 1. |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on singular update"

let prop_delete_row_col seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 7 in
  let a = random_spd rng n in
  let k = Prng.Rng.int rng n in
  let b = Linalg.Lu.inverse a in
  let reduced_inv = R1.delete_row_col b k in
  (* direct route: delete from A, invert *)
  let keep = Array.init (n - 1) (fun i -> if i < k then i else i + 1) in
  let a_red = Mat.init (n - 1) (n - 1) (fun i j -> Mat.get a keep.(i) keep.(j)) in
  Mat.approx_equal ~tol:1e-5 (Linalg.Lu.inverse a_red) reduced_inv

let test_delete_guards () =
  check_raises_invalid "bad index" (fun () ->
      ignore (R1.delete_row_col (Mat.eye 3) 3))

(* ---------- Nystrom ---------- *)

let sample_points rng n d = Array.init n (fun _ -> random_vec rng d)

let test_nystrom_exact_with_all_landmarks () =
  (* l = n reproduces the kernel matrix exactly (W is PSD) *)
  let rng = Prng.Rng.create 61 in
  let points = sample_points rng 12 2 in
  let exact =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  let approx =
    Kernel.Nystrom.fit ~rng ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5
      ~landmarks:12 points
  in
  Alcotest.(check bool) "error tiny" true
    (Kernel.Nystrom.approximation_error approx exact < 1e-6)

let test_nystrom_guards () =
  let rng = Prng.Rng.create 62 in
  let points = sample_points rng 5 2 in
  check_raises_invalid "zero landmarks" (fun () ->
      ignore
        (Kernel.Nystrom.fit ~rng ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.
           ~landmarks:0 points));
  check_raises_invalid "too many landmarks" (fun () ->
      ignore
        (Kernel.Nystrom.fit ~rng ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.
           ~landmarks:6 points))

let prop_nystrom_multiply_matches_dense seed =
  let rng = Prng.Rng.create seed in
  let n = 4 + Prng.Rng.int rng 12 in
  let points = sample_points rng n 2 in
  let l = 1 + Prng.Rng.int rng n in
  let approx =
    Kernel.Nystrom.fit ~rng ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5
      ~landmarks:l points
  in
  let dense = Kernel.Nystrom.approx_dense approx in
  let x = random_vec rng n in
  Vec.approx_equal ~tol:1e-7 (Mat.mv dense x) (Kernel.Nystrom.multiply approx x)

let prop_nystrom_error_decreases seed =
  (* more landmarks cannot make the approximation (much) worse *)
  let rng = Prng.Rng.create seed in
  let n = 16 in
  let points = sample_points rng n 2 in
  let exact =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  let err l =
    let rng = Prng.Rng.create (seed + 1) in
    Kernel.Nystrom.approximation_error
      (Kernel.Nystrom.fit ~rng ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5
         ~landmarks:l points)
      exact
  in
  err 16 <= err 4 +. 1e-6

let suite =
  ( "numerics2",
    [
      case "svd: diagonal" test_svd_diagonal;
      case "svd: rank deficiency" test_svd_rank_deficient;
      case "svd: shape guard" test_svd_shape_guard;
      qprop "svd: U S V^T = A" prop_svd_reconstruct;
      qprop "svd: U, V orthonormal" prop_svd_orthogonality;
      qprop "svd: values descending" prop_svd_values_descending;
      qprop "svd: matches eigen of gram" prop_svd_matches_eigen;
      qprop "svd: A A+ A = A" prop_pseudo_inverse_properties;
      case "svd: pinv of invertible" test_pseudo_inverse_of_invertible;
      qprop "rank1: sherman-morrison" prop_sherman_morrison;
      qprop "rank1: symmetric update" prop_symmetric_update;
      case "rank1: guards" test_sherman_morrison_guards;
      qprop "rank1: delete row/col" prop_delete_row_col;
      case "rank1: delete guards" test_delete_guards;
      case "nystrom: exact at l=n" test_nystrom_exact_with_all_landmarks;
      case "nystrom: guards" test_nystrom_guards;
      qprop "nystrom: multiply = dense" prop_nystrom_multiply_matches_dense;
      qprop ~count:30 "nystrom: error decreases in l" prop_nystrom_error_decreases;
    ] )
