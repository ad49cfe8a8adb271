(* Wave-7 tests: condition-number estimation (incl. the classic
   Hilbert-matrix stress test). *)

open Test_util
module Refine = Linalg.Refine
module Mat = Linalg.Mat

(* ---------- conditioning ---------- *)

let hilbert n =
  Mat.init n n (fun i j -> 1. /. float_of_int (i + j + 1))

let test_condition_identity () =
  check_float ~tol:1e-6 "cond(I) = 1" 1. (Refine.condition_estimate (Mat.eye 5))

let test_condition_diagonal () =
  let a = Mat.diag [| 10.; 1.; 0.1 |] in
  check_float ~tol:1e-3 "cond = ratio" 100. (Refine.condition_estimate a)

let test_condition_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.(check bool) "singular -> infinity" true
    (Refine.condition_estimate a = infinity)

let test_condition_hilbert_large () =
  (* cond(Hilbert 8) ~ 1.5e10: the estimate must recognise severe
     ill-conditioning *)
  Alcotest.(check bool) "hilbert badly conditioned" true
    (Refine.condition_estimate (hilbert 8) > 1e8)

let prop_condition_at_least_one seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 8 in
  let a = random_mat rng n n in
  let c = Refine.condition_estimate a in
  c >= 1. -. 1e-6

let prop_condition_matches_svd seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 in
  let a = random_mat rng n n in
  let est = Refine.condition_estimate a in
  if est = infinity then true
  else begin
    let exact = Linalg.Svd.condition_number (Linalg.Svd.decompose a) in
    abs_float (est -. exact) < 0.05 *. exact
  end

let suite =
  ( "wave7",
    [
      case "condition: identity" test_condition_identity;
      case "condition: diagonal ratio" test_condition_diagonal;
      case "condition: singular" test_condition_singular;
      case "condition: Hilbert blow-up" test_condition_hilbert_large;
      qprop "condition: >= 1" prop_condition_at_least_one;
      qprop ~count:50 "condition: matches SVD" prop_condition_matches_svd;
    ] )
