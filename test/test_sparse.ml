(* COO / CSR / iterative solvers. *)

open Test_util
module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Coo = Sparse.Coo
module Csr = Sparse.Csr
module Cg = Sparse.Cg
module Linop = Sparse.Linop
module Stationary = Sparse.Stationary

let random_sparse rng r c =
  let coo = Coo.create r c in
  let fill = 0.3 in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if Prng.Rng.float rng < fill then
        Coo.add coo i j (Prng.Rng.uniform rng (-3.) 3.)
    done
  done;
  coo

let test_coo_basics () =
  let coo = Coo.create 2 3 in
  Alcotest.(check (pair int int)) "dims" (2, 3) (Coo.dims coo);
  Coo.add coo 0 1 2.;
  Coo.add coo 1 2 3.;
  Coo.add coo 0 1 0.5;
  Alcotest.(check int) "nnz counts triplets" 3 (Coo.nnz coo);
  Coo.add coo 1 0 0.;
  Alcotest.(check int) "zero ignored" 3 (Coo.nnz coo);
  check_raises_invalid "oob" (fun () -> Coo.add coo 2 0 1.);
  let dense = Coo.to_dense coo in
  check_float "duplicates summed" 2.5 (Mat.get dense 0 1)

let test_csr_of_coo_merges () =
  let coo = Coo.create 2 2 in
  Coo.add coo 0 0 1.;
  Coo.add coo 0 0 2.;
  Coo.add coo 1 1 4.;
  let csr = Csr.of_coo coo in
  Alcotest.(check int) "nnz after merge" 2 (Csr.nnz csr);
  check_float "merged value" 3. (Csr.get csr 0 0);
  check_float "absent is zero" 0. (Csr.get csr 0 1)

let test_csr_get_bounds () =
  let csr = Csr.of_dense (Mat.eye 2) in
  check_raises_invalid "get oob" (fun () -> Csr.get csr 0 2)

let test_csr_diag_rowsums () =
  let m = Mat.of_arrays [| [| 1.; 2. |]; [| 0.; 3. |] |] in
  let csr = Csr.of_dense m in
  check_vec "diagonal" [| 1.; 3. |] (Csr.diagonal csr);
  check_vec "row sums" [| 3.; 3. |] (Csr.row_sums csr)

let test_csr_scale_add () =
  let a = Csr.of_dense (Mat.eye 2) in
  let b = Csr.of_dense (Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |]) in
  check_mat "add" (Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |])
    (Csr.to_dense (Csr.add a b));
  check_mat "scale" (Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 2. |] |])
    (Csr.to_dense (Csr.scale 2. a))

let test_csr_symmetric () =
  Alcotest.(check bool) "identity symmetric" true (Csr.is_symmetric (Csr.of_dense (Mat.eye 3)));
  let asym = Csr.of_dense (Mat.of_arrays [| [| 0.; 1. |]; [| 0.; 0. |] |]) in
  Alcotest.(check bool) "asymmetric detected" false (Csr.is_symmetric asym)

let prop_csr_roundtrip seed =
  let rng = Prng.Rng.create seed in
  let r = 1 + Prng.Rng.int rng 10 and c = 1 + Prng.Rng.int rng 10 in
  let coo = random_sparse rng r c in
  Mat.approx_equal (Coo.to_dense coo) (Csr.to_dense (Csr.of_coo coo))

let prop_csr_mv_matches_dense seed =
  let rng = Prng.Rng.create seed in
  let r = 1 + Prng.Rng.int rng 10 and c = 1 + Prng.Rng.int rng 10 in
  let coo = random_sparse rng r c in
  let dense = Coo.to_dense coo and csr = Csr.of_coo coo in
  let x = random_vec rng c in
  Vec.approx_equal ~tol:1e-9 (Mat.mv dense x) (Csr.mv csr x)

let prop_csr_tmv_matches_dense seed =
  let rng = Prng.Rng.create seed in
  let r = 1 + Prng.Rng.int rng 10 and c = 1 + Prng.Rng.int rng 10 in
  let coo = random_sparse rng r c in
  let dense = Coo.to_dense coo and csr = Csr.of_coo coo in
  let x = random_vec rng r in
  Vec.approx_equal ~tol:1e-9 (Mat.tmv dense x) (Csr.tmv csr x)

let prop_csr_transpose seed =
  let rng = Prng.Rng.create seed in
  let r = 1 + Prng.Rng.int rng 10 and c = 1 + Prng.Rng.int rng 10 in
  let coo = random_sparse rng r c in
  let csr = Csr.of_coo coo in
  Mat.approx_equal
    (Mat.transpose (Csr.to_dense csr))
    (Csr.to_dense (Csr.transpose csr))

let prop_csr_get_matches_dense seed =
  let rng = Prng.Rng.create seed in
  let r = 1 + Prng.Rng.int rng 8 and c = 1 + Prng.Rng.int rng 8 in
  let coo = random_sparse rng r c in
  let dense = Coo.to_dense coo and csr = Csr.of_coo coo in
  let ok = ref true in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if abs_float (Mat.get dense i j -. Csr.get csr i j) > 1e-12 then ok := false
    done
  done;
  !ok

(* [Csr.of_coo] copies a row whose columns already strictly increase
   and sorts-and-merges any other; both must give the dense sum.  The
   presorted matrix is emitted column-major (each row still increasing)
   and the shuffled one is the raw triplets, duplicates included, in
   random order.  Integer values keep every duplicate sum exact, so the
   two CSRs must also agree bit for bit, and with [Csr.of_sorted_rows]
   fed the dense matrix's nonzeros row by row. *)
let prop_csr_of_coo_presorted_and_shuffled seed =
  let rng = Prng.Rng.create seed in
  let r = 1 + Prng.Rng.int rng 12 and c = 1 + Prng.Rng.int rng 12 in
  let triplets =
    Array.init (Prng.Rng.int rng 80) (fun _ ->
        ( Prng.Rng.int rng r,
          Prng.Rng.int rng c,
          float_of_int (1 + Prng.Rng.int rng 9) ))
  in
  let dense = Mat.zeros r c in
  Array.iter
    (fun (i, j, v) -> Mat.set dense i j (Mat.get dense i j +. v))
    triplets;
  let presorted = Coo.create r c in
  for j = 0 to c - 1 do
    for i = 0 to r - 1 do
      Coo.add presorted i j (Mat.get dense i j)
    done
  done;
  let shuffled = Coo.create r c in
  Array.iter
    (fun t ->
      let i, j, v = triplets.(t) in
      Coo.add shuffled i j v)
    (Prng.Rng.permutation rng (Array.length triplets));
  let increasing (csr : Csr.t) =
    let ok = ref true in
    for i = 0 to r - 1 do
      for k = csr.row_ptr.(i) + 1 to csr.row_ptr.(i + 1) - 1 do
        if csr.col_idx.(k - 1) >= csr.col_idx.(k) then ok := false
      done
    done;
    !ok
  in
  let a = Csr.of_coo presorted and b = Csr.of_coo shuffled in
  let cols = ref [] and vals = ref [] and row_ptr = Array.make (r + 1) 0 in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      let v = Mat.get dense i j in
      if v <> 0. then begin
        cols := j :: !cols;
        vals := v :: !vals
      end
    done;
    row_ptr.(i + 1) <- List.length !cols
  done;
  let s =
    Csr.of_sorted_rows ~rows:r ~cols:c ~row_ptr
      ~col_idx:(Array.of_list (List.rev !cols))
      ~values:(Array.of_list (List.rev !vals))
  in
  let same_bits (x : Csr.t) (y : Csr.t) =
    x.row_ptr = y.row_ptr && x.col_idx = y.col_idx
    && Array.map Int64.bits_of_float x.values
       = Array.map Int64.bits_of_float y.values
  in
  increasing a && increasing b
  && Mat.approx_equal ~tol:0. dense (Csr.to_dense a)
  && Mat.approx_equal ~tol:0. dense (Csr.to_dense b)
  && same_bits a b && same_bits a s

let test_csr_of_sorted_rows_rejects () =
  let mk ?(rows = 2) row_ptr col_idx values () =
    Csr.of_sorted_rows ~rows ~cols:3 ~row_ptr ~col_idx ~values
  in
  let ok = mk [| 0; 2; 3 |] [| 0; 2; 1 |] [| 1.; 2.; 3. |] () in
  check_float "accepted entry" 3. (Csr.get ok 1 1);
  let bad ?rows name row_ptr col_idx values =
    check_raises_invalid name (mk ?rows row_ptr col_idx values)
  in
  let cols = [| 0; 2; 1 |] and vals = [| 1.; 2.; 3. |] in
  bad "row_ptr too short" [| 0; 3 |] cols vals;
  bad "row_ptr too long" [| 0; 2; 3; 3 |] cols vals;
  bad "row_ptr not from 0" [| 1; 2; 3 |] cols vals;
  (* rows 0 and 2 overlap, each sorted on its own *)
  bad ~rows:3 "row_ptr decreases" [| 0; 2; 1; 3 |] [| 0; 1; 2 |] vals;
  bad "values shorter" [| 0; 2; 3 |] cols [| 1.; 2. |];
  bad "row_ptr ends before nnz" [| 0; 2; 2 |] cols vals;
  bad "unsorted row" [| 0; 2; 3 |] [| 2; 0; 1 |] vals;
  bad "repeated column" [| 0; 2; 3 |] [| 1; 1; 1 |] vals;
  bad "column past cols" [| 0; 2; 3 |] [| 0; 3; 1 |] vals;
  bad "negative column" [| 0; 2; 3 |] [| 0; 2; -1 |] vals

let prop_csr_lap_mv_into_matches seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 12 in
  let csr = Csr.of_coo (random_sparse rng n n) in
  let deg = random_vec rng n and x = random_vec rng n in
  let y = Array.make n nan in
  Csr.lap_mv_into csr ~deg x y;
  Array.map Int64.bits_of_float y
  = Array.map Int64.bits_of_float (Csr.lap_mv csr ~deg x)

(* ---------- CG ---------- *)

let test_cg_identity () =
  let out = Cg.solve (Linop.of_dense (Mat.eye 3)) [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "converged" true out.Cg.converged;
  check_vec ~tol:1e-9 "identity solve" [| 1.; 2.; 3. |] out.Cg.solution

let test_cg_zero_rhs () =
  let out = Cg.solve (Linop.of_dense (Mat.eye 3)) (Vec.zeros 3) in
  Alcotest.(check int) "no iterations" 0 out.Cg.iterations;
  check_vec "zero solution" (Vec.zeros 3) out.Cg.solution

let test_cg_non_spd_detected () =
  (* negative definite: CG must not claim convergence to a wrong answer *)
  let a = Mat.diag [| -1.; -2. |] in
  let out = Cg.solve ~precondition:false (Linop.of_dense a) [| 1.; 1. |] in
  Alcotest.(check bool) "not converged" false out.Cg.converged

let prop_cg_matches_cholesky seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 12 in
  let a = random_spd rng n and b = random_vec rng n in
  let x_cg = Cg.solve_exn ~tol:1e-12 (Linop.of_dense a) b in
  Vec.approx_equal ~tol:1e-5 (Linalg.Cholesky.solve a b) x_cg

let prop_cg_preconditioned_matches seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 12 in
  let a = random_spd rng n and b = random_vec rng n in
  let plain = Cg.solve_exn ~tol:1e-12 ~precondition:false (Linop.of_dense a) b in
  let pre = Cg.solve_exn ~tol:1e-12 ~precondition:true (Linop.of_dense a) b in
  Vec.approx_equal ~tol:1e-5 plain pre

(* ---------- stationary methods ---------- *)

let diag_dominant rng n =
  let m =
    Mat.init n n (fun i j ->
        if i = j then 0. else Prng.Rng.uniform rng (-1.) 1.)
  in
  (* make strictly diagonally dominant *)
  for i = 0 to n - 1 do
    let s = Vec.norm1 (Mat.row m i) in
    Mat.set m i i (s +. 1. +. Prng.Rng.float rng)
  done;
  m

let prop_jacobi_converges seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = diag_dominant rng n in
  let b = random_vec rng n in
  let out = Stationary.solve Stationary.Jacobi (Csr.of_dense a) b in
  out.Stationary.converged
  && Vec.approx_equal ~tol:1e-5 (Linalg.Lu.solve a b) out.Stationary.solution

let prop_gauss_seidel_converges seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = diag_dominant rng n in
  let b = random_vec rng n in
  let out = Stationary.solve Stationary.Gauss_seidel (Csr.of_dense a) b in
  out.Stationary.converged
  && Vec.approx_equal ~tol:1e-5 (Linalg.Lu.solve a b) out.Stationary.solution

let prop_sor_converges seed =
  let rng = Prng.Rng.create seed in
  let n = 1 + Prng.Rng.int rng 10 in
  let a = diag_dominant rng n in
  let b = random_vec rng n in
  let out = Stationary.solve (Stationary.Sor 1.2) (Csr.of_dense a) b in
  out.Stationary.converged
  && Vec.approx_equal ~tol:1e-5 (Linalg.Lu.solve a b) out.Stationary.solution

(* the recurrence residual CG reports must agree with the true
   residual ‖b − A x‖₂, recomputed here, on well-conditioned SPD
   systems *)
let prop_cg_true_residual_matches_recurrence seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 10 in
  let a = random_spd rng n in
  let b = random_vec rng n in
  let out = Cg.solve (Linop.of_dense a) b in
  let t = Vec.norm2 (Vec.sub b (Mat.mv a out.Cg.solution)) in
  out.Cg.converged
  && abs_float (t -. out.Cg.residual_norm) <= 1e-7 *. (1. +. Vec.norm2 b)
  && out.Cg.best_residual <= out.Cg.residual_norm +. 1e-12

let test_stationary_guards () =
  let a = Csr.of_dense (Mat.eye 2) in
  check_raises_invalid "bad omega" (fun () ->
      Stationary.solve (Stationary.Sor 2.5) a [| 1.; 1. |]);
  let zero_diag = Csr.of_dense (Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |]) in
  check_raises_invalid "zero diagonal" (fun () ->
      Stationary.solve Stationary.Jacobi zero_diag [| 1.; 1. |])

let suite =
  ( "sparse",
    [
      case "coo basics" test_coo_basics;
      case "csr merges duplicates" test_csr_of_coo_merges;
      case "csr get bounds" test_csr_get_bounds;
      case "csr diagonal/row sums" test_csr_diag_rowsums;
      case "csr scale/add" test_csr_scale_add;
      case "csr symmetry predicate" test_csr_symmetric;
      qprop "coo->csr->dense roundtrip" prop_csr_roundtrip;
      qprop "csr of_coo: presorted and shuffled = dense sum"
        prop_csr_of_coo_presorted_and_shuffled;
      case "csr of_sorted_rows rejects malformed arrays"
        test_csr_of_sorted_rows_rejects;
      qprop "csr lap_mv_into = lap_mv bit for bit" prop_csr_lap_mv_into_matches;
      qprop "csr mv = dense mv" prop_csr_mv_matches_dense;
      qprop "csr tmv = dense tmv" prop_csr_tmv_matches_dense;
      qprop "csr transpose" prop_csr_transpose;
      qprop "csr get = dense get" prop_csr_get_matches_dense;
      case "cg: identity" test_cg_identity;
      case "cg: zero rhs" test_cg_zero_rhs;
      case "cg: non-SPD detected" test_cg_non_spd_detected;
      qprop "cg matches cholesky" prop_cg_matches_cholesky;
      qprop ~count:80 "cg recurrence residual = true residual (SPD)"
        prop_cg_true_residual_matches_recurrence;
      qprop "cg preconditioning consistent" prop_cg_preconditioned_matches;
      qprop "jacobi converges (diag dominant)" prop_jacobi_converges;
      qprop "gauss-seidel converges" prop_gauss_seidel_converges;
      qprop "sor converges" prop_sor_converges;
      case "stationary guards" test_stationary_guards;
    ] )
