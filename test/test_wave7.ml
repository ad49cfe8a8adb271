(* Wave-7 tests: iterative refinement and conditioning (incl. the
   classic Hilbert-matrix stress test). *)

open Test_util
module Refine = Linalg.Refine
module Mat = Linalg.Mat
module Vec = Linalg.Vec

(* ---------- refinement & conditioning ---------- *)

let hilbert n =
  Mat.init n n (fun i j -> 1. /. float_of_int (i + j + 1))

let test_refinement_improves_hilbert_solve () =
  (* Hilbert matrices are famously ill-conditioned; refinement must not
     make the residual worse, and should leave it at roundoff level *)
  let n = 8 in
  let a = hilbert n in
  let x_true = Vec.init n (fun i -> float_of_int (i mod 3) -. 1.) in
  let b = Mat.mv a x_true in
  let x0 = Linalg.Lu.solve a b in
  let x1 = Refine.solve_refined ~iterations:3 a b in
  let resid x = Vec.norm2 (Vec.sub (Mat.mv a x) b) in
  Alcotest.(check bool) "refined residual <= direct" true
    (resid x1 <= resid x0 +. 1e-15);
  Alcotest.(check bool) "refined residual tiny" true (resid x1 < 1e-12)

let prop_refine_no_worse seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 10 in
  let a = random_spd rng n in
  let b = random_vec rng n in
  let x0 = Linalg.Lu.solve a b in
  let x1 = Refine.refine a b x0 in
  let resid x = Vec.norm2 (Vec.sub (Mat.mv a x) b) in
  resid x1 <= resid x0 +. 1e-12

let prop_refine_fixes_perturbed_start seed =
  (* start from a deliberately corrupted solution: refinement restores it *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 in
  let a = random_spd rng n in
  let b = random_vec rng n in
  let exact = Linalg.Lu.solve a b in
  let corrupted = Array.map (fun v -> v +. Prng.Rng.uniform rng (-0.5) 0.5) exact in
  let fixed = Refine.refine ~iterations:3 a b corrupted in
  Vec.approx_equal ~tol:1e-6 exact fixed

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
      case "refine: Hilbert system" test_refinement_improves_hilbert_solve;
      qprop "refine: never worse" prop_refine_no_worse;
      qprop "refine: repairs corrupted start" prop_refine_fixes_perturbed_start;
      case "condition: identity" test_condition_identity;
      case "condition: diagonal ratio" test_condition_diagonal;
      case "condition: singular" test_condition_singular;
      case "condition: Hilbert blow-up" test_condition_hilbert_large;
      qprop "condition: >= 1" prop_condition_at_least_one;
      qprop ~count:50 "condition: matches SVD" prop_condition_matches_svd;
    ] )
