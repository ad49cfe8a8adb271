(* Kernel functions, bandwidth rules, pairwise distances, similarity
   matrices. *)

open Test_util
module K = Kernel.Kernel_fn
module B = Kernel.Bandwidth
module P = Kernel.Pairwise
module S = Kernel.Similarity
module Mat = Linalg.Mat

let all_kernels =
  [ K.Rbf; K.Truncated_rbf 3.; K.Box; K.Epanechnikov; K.Triangular; K.Tricube ]

let test_profiles_at_zero () =
  List.iter
    (fun k -> check_float (K.name k ^ " at 0") 1. (K.profile k 0.))
    all_kernels

let test_profile_guards () =
  check_raises_invalid "negative radius" (fun () -> ignore (K.profile K.Rbf (-1.)))

let test_rbf_values () =
  check_float "rbf(1)" (exp (-1.)) (K.profile K.Rbf 1.);
  check_float "trunc inside" (exp (-1.)) (K.profile (K.Truncated_rbf 2.) 1.);
  check_float "trunc outside" 0. (K.profile (K.Truncated_rbf 2.) 2.5)

let test_compact_kernels_vanish () =
  List.iter
    (fun k ->
      match K.support_radius k with
      | None -> ()
      | Some c ->
          check_float (K.name k ^ " vanishes past support") 0.
            (K.profile k (c +. 0.001)))
    all_kernels

let test_eval_matches_profile () =
  let x = [| 0.; 0. |] and y = [| 3.; 4. |] in
  List.iter
    (fun k ->
      check_float (K.name k ^ " eval")
        (K.profile k 2.5)
        (K.eval k ~bandwidth:2. x y))
    all_kernels;
  check_raises_invalid "bad bandwidth" (fun () ->
      ignore (K.eval K.Rbf ~bandwidth:0. x y))

let test_eval_sq_dist_consistent () =
  List.iter
    (fun k ->
      check_float ~tol:1e-12 (K.name k ^ " sq-dist path")
        (K.eval k ~bandwidth:1.7 [| 1.; 2. |] [| 4.; 6. |])
        (K.eval_sq_dist k ~bandwidth:1.7 25.))
    all_kernels

let test_paper_rbf_formula () =
  (* the paper's w_ij = exp(-||xi-xj||^2 / sigma^2) *)
  let x = [| 0. |] and y = [| 2. |] in
  let sigma = 1.5 in
  check_float "rbf = paper formula"
    (exp (-.(4. /. (sigma *. sigma))))
    (K.eval K.Rbf ~bandwidth:sigma x y)

let test_devroye_wagner_conditions () =
  Alcotest.(check bool) "plain rbf fails (ii)" false (K.satisfies_devroye_wagner K.Rbf);
  List.iter
    (fun k ->
      Alcotest.(check bool) (K.name k ^ " satisfies (i)-(iii)") true
        (K.satisfies_devroye_wagner k))
    [ K.Truncated_rbf 3.; K.Box; K.Epanechnikov; K.Triangular; K.Tricube ]

let test_lower_bound_witness () =
  List.iter
    (fun k ->
      let beta, delta = K.lower_bound_on_ball k in
      (* the witness must actually hold at the edge of the ball *)
      Alcotest.(check bool)
        (K.name k ^ " beta witness")
        true
        (K.profile k delta >= beta -. 1e-12))
    all_kernels

let test_bandwidth_paper_rate () =
  check_float "paper rate n=100 d=5"
    ((log 100. /. 100.) ** 0.2)
    (B.paper_rate ~d:5 100);
  check_raises_invalid "n=1" (fun () -> ignore (B.paper_rate ~d:5 1));
  Alcotest.(check bool) "satisfies consistency conditions" true
    (B.satisfies_consistency_conditions ~d:5 (fun n -> B.paper_rate ~d:5 n));
  Alcotest.(check bool) "constant bandwidth fails h->0" false
    (B.satisfies_consistency_conditions ~d:5 (fun _ -> 0.5));
  Alcotest.(check bool) "too-fast decay fails nh^d" false
    (B.satisfies_consistency_conditions ~d:5 (fun n -> float_of_int n ** -1.))

let test_bandwidth_select () =
  let points = [| [| 0. |]; [| 3. |]; [| 6. |] |] in
  check_float "fixed" 2.5 (B.select (B.Fixed 2.5) points);
  check_float "median heuristic" 3. (B.select B.Median_heuristic points);
  check_float "rate" (3. ** (-0.3)) (B.select (B.Rate { exponent = 0.3 }) points);
  Alcotest.(check bool) "silverman positive" true
    (B.select (B.Silverman 1) points > 0.);
  check_raises_invalid "fixed nonpositive" (fun () ->
      ignore (B.select (B.Fixed 0.) points));
  check_raises_invalid "empty" (fun () -> ignore (B.select (B.Fixed 1.) [||]))

let test_pairwise_known () =
  let points = [| [| 0.; 0. |]; [| 3.; 4. |]; [| 0.; 1. |] |] in
  let d2 = P.sq_distance_matrix points in
  check_float "d(0,1)^2" 25. (Mat.get d2 0 1);
  check_float "d(0,2)^2" 1. (Mat.get d2 0 2);
  check_float "diag" 0. (Mat.get d2 1 1);
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric d2)

let test_k_nearest () =
  let points = [| [| 0. |]; [| 1. |]; [| 10. |]; [| 0.5 |] |] in
  let nn = Graph.Kdtree.all_k_nearest points 2 in
  Alcotest.(check (array int)) "two nearest of 0" [| 3; 1 |] nn.(0);
  check_raises_invalid "k too big" (fun () ->
      ignore (Graph.Kdtree.all_k_nearest points 4))

let prop_pairwise_matches_direct seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 10 and d = 1 + Prng.Rng.int rng 5 in
  let points = Array.init n (fun _ -> random_vec rng d) in
  let d2 = P.sq_distance_matrix points in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let direct = Linalg.Vec.dist2_sq points.(i) points.(j) in
      if abs_float (Mat.get d2 i j -. direct) > 1e-7 then ok := false
    done
  done;
  !ok

(* Pairwise.sq_distance_matrix as it was before its loop was written
   out over the matrix's data: Vec.dot per pair through the Gram
   identity, clamped at 0, stored with Mat.set. *)
let reference_sq_distances points =
  let n = Array.length points in
  let sq_norms = Array.map Linalg.Vec.norm2_sq points in
  let m = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d2 =
        sq_norms.(i) +. sq_norms.(j)
        -. (2. *. Linalg.Vec.dot points.(i) points.(j))
      in
      let d2 = if d2 > 0. then d2 else 0. in
      Mat.set m i j d2;
      Mat.set m j i d2
    done
  done;
  m

(* The similarity as Mat.map built it: a second matrix, entry by entry *)
let reference_weights kernel ~bandwidth d2 =
  Mat.map (fun v -> K.eval_sq_dist kernel ~bandwidth v) d2

let bits (m : Mat.t) = Array.map Int64.bits_of_float m.Mat.data

(* random points in dimension 1-7, some repeated (exact zero distances,
   clamped rounding); n crosses the 64-point parallel threshold *)
let random_points rng =
  let n = 1 + Prng.Rng.int rng 130 and d = 1 + Prng.Rng.int rng 7 in
  let points = Array.init n (fun _ -> random_vec rng d) in
  for i = 1 to n - 1 do
    if Prng.Rng.int rng 8 = 0 then
      points.(i) <- Array.copy points.(Prng.Rng.int rng i)
  done;
  points

let prop_pairwise_bits seed =
  let points = random_points (Prng.Rng.create seed) in
  let want = bits (reference_sq_distances points) in
  List.for_all
    (fun domains ->
      Parallel.Pool.with_default_domains domains (fun () ->
          bits (P.sq_distance_matrix points) = want))
    [ 1; 2 ]

let prop_similarity_dense_bits seed =
  let rng = Prng.Rng.create seed in
  let points = random_points rng in
  let bandwidth = Prng.Rng.uniform rng 0.3 4. in
  let d2 = reference_sq_distances points in
  List.for_all
    (fun kernel ->
      bits (S.dense ~kernel ~bandwidth points)
      = bits (reference_weights kernel ~bandwidth d2))
    (K.Truncated_rbf (Prng.Rng.uniform rng 0.2 2.) :: all_kernels)

let prop_dense_of_sq_distances_bits seed =
  let rng = Prng.Rng.create seed in
  let points = random_points rng in
  let bandwidth = Prng.Rng.uniform rng 0.3 4. in
  (* any matrix, not only distances: signed zeros and negatives too *)
  let d2 = reference_sq_distances points in
  let cells = Array.length d2.Mat.data in
  for _ = 1 to 1 + (cells / 8) do
    d2.Mat.data.(Prng.Rng.int rng cells) <-
      (match Prng.Rng.int rng 3 with
      | 0 -> -0.
      | 1 -> -.Prng.Rng.uniform rng 0. 2.
      | _ -> Prng.Rng.uniform rng 0. 1e-300)
  done;
  let before = bits d2 in
  List.for_all
    (fun kernel ->
      let got = bits (S.dense_of_sq_distances ~kernel ~bandwidth d2) in
      got = bits (reference_weights kernel ~bandwidth d2) && bits d2 = before)
    (K.Truncated_rbf (Prng.Rng.uniform rng 0.2 2.) :: all_kernels)

let test_similarity_dense () =
  let points = [| [| 0. |]; [| 1. |]; [| 2. |] |] in
  let w = S.dense ~kernel:K.Rbf ~bandwidth:1. points in
  check_float "self similarity" 1. (Mat.get w 0 0);
  check_float "w(0,1)" (exp (-1.)) (Mat.get w 0 1);
  check_float "w(0,2)" (exp (-4.)) (Mat.get w 0 2);
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric w)

let test_similarity_weights_in_01 () =
  let rng = Prng.Rng.create 99 in
  let points = Array.init 20 (fun _ -> random_vec rng 3) in
  List.iter
    (fun k ->
      let w = S.dense ~kernel:k ~bandwidth:2. points in
      Array.iter
        (fun v ->
          if v < 0. || v > 1. then Alcotest.failf "weight %g outside [0,1]" v)
        w.Mat.data)
    all_kernels

let test_knn_graph () =
  let points = [| [| 0. |]; [| 0.1 |]; [| 5. |]; [| 5.1 |] |] in
  let w = S.knn ~kernel:K.Rbf ~bandwidth:1. ~k:1 points in
  Alcotest.(check bool) "symmetric" true (Sparse.Csr.is_symmetric w);
  (* 0 and 1 are mutual nearest neighbours; 0 and 2 are not neighbours *)
  Alcotest.(check bool) "near pair kept" true (Sparse.Csr.get w 0 1 > 0.);
  check_float "far pair dropped" 0. (Sparse.Csr.get w 0 2);
  check_float "diagonal kept" 1. (Sparse.Csr.get w 0 0);
  check_raises_invalid "k too large" (fun () ->
      ignore (S.knn ~kernel:K.Rbf ~bandwidth:1. ~k:4 points))

(* Bad input fails before the search: a NaN coordinate would otherwise
   sit first in most lists and weigh NaN, an infinite one weigh NaN
   against itself. *)
let test_knn_validation () =
  let rng = Prng.Rng.create 3 in
  let points () = Array.init 50 (fun _ -> random_vec rng 5) in
  let knn ?(bandwidth = 1.) ~k p = S.knn ~kernel:K.Rbf ~bandwidth ~k p in
  let names_point name i bad =
    let p = points () in
    p.(i).(2) <- bad;
    p.(i + 5).(0) <- bad;
    match knn ~k:5 p with
    | exception Invalid_argument msg ->
        if not (Astring.String.is_infix ~affix:(Printf.sprintf "point %d " i) msg)
        then Alcotest.failf "%s: message %S does not name point %d" name msg i
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  names_point "NaN" 17 Float.nan;
  names_point "infinity" 4 Float.infinity;
  names_point "-infinity" 0 Float.neg_infinity;
  let p = points () in
  check_raises_invalid "bandwidth 0" (fun () -> ignore (knn ~bandwidth:0. ~k:5 p));
  check_raises_invalid "negative bandwidth" (fun () ->
      ignore (knn ~bandwidth:(-1.) ~k:5 p));
  check_raises_invalid "NaN bandwidth" (fun () ->
      ignore (knn ~bandwidth:Float.nan ~k:5 p));
  check_raises_invalid "k = 0" (fun () -> ignore (knn ~k:0 p));
  check_raises_invalid "k = n" (fun () -> ignore (knn ~k:50 p));
  check_raises_invalid "empty" (fun () -> ignore (knn ~k:1 [||]));
  (* both ends of the range build: k = n - 1 links every pair *)
  Alcotest.(check bool) "k = 1 links every point" true
    (Sparse.Csr.nnz (knn ~k:1 p) >= 100);
  Alcotest.(check int) "k = n - 1 is complete" (50 * 50)
    (Sparse.Csr.nnz (knn ~bandwidth:100. ~k:49 p))

let test_epsilon_graph () =
  let points = [| [| 0. |]; [| 1. |]; [| 3. |] |] in
  let w = S.epsilon ~kernel:K.Rbf ~bandwidth:1. ~radius:1.5 points in
  Alcotest.(check bool) "0-1 kept" true (Sparse.Csr.get w 0 1 > 0.);
  check_float "0-2 dropped" 0. (Sparse.Csr.get w 0 2);
  Alcotest.(check bool) "1-2 dropped (dist 2 > 1.5)" true (Sparse.Csr.get w 1 2 = 0.);
  check_raises_invalid "negative radius" (fun () ->
      ignore (S.epsilon ~kernel:K.Rbf ~bandwidth:1. ~radius:(-1.) points))

let prop_knn_subgraph_of_dense seed =
  let rng = Prng.Rng.create seed in
  let n = 4 + Prng.Rng.int rng 10 in
  let points = Array.init n (fun _ -> random_vec rng 2) in
  let dense = S.dense ~kernel:K.Rbf ~bandwidth:1.5 points in
  let sparse = S.knn ~kernel:K.Rbf ~bandwidth:1.5 ~k:2 points in
  (* every kept entry must equal the dense entry *)
  let ok = ref true in
  for i = 0 to n - 1 do
    Sparse.Csr.iter_row sparse i (fun j v ->
        if abs_float (v -. Mat.get dense i j) > 1e-12 then ok := false)
  done;
  !ok

let suite =
  ( "kernel",
    [
      case "profiles at zero" test_profiles_at_zero;
      case "profile guards" test_profile_guards;
      case "rbf values" test_rbf_values;
      case "compact support vanishes" test_compact_kernels_vanish;
      case "eval via distances" test_eval_matches_profile;
      case "eval_sq_dist consistent" test_eval_sq_dist_consistent;
      case "paper RBF formula" test_paper_rbf_formula;
      case "Devroye-Wagner conditions" test_devroye_wagner_conditions;
      case "condition (iii) witness" test_lower_bound_witness;
      case "paper bandwidth rate" test_bandwidth_paper_rate;
      case "bandwidth selection" test_bandwidth_select;
      case "pairwise known values" test_pairwise_known;
      case "k nearest neighbours" test_k_nearest;
      qprop "pairwise matches direct" prop_pairwise_matches_direct;
      case "dense similarity" test_similarity_dense;
      case "weights in [0,1]" test_similarity_weights_in_01;
      case "knn graph" test_knn_graph;
      case "knn: input validation" test_knn_validation;
      case "epsilon graph" test_epsilon_graph;
      qprop "knn is subgraph of dense" prop_knn_subgraph_of_dense;
      qprop ~count:40 "pairwise = Vec.dot Gram loop, bit for bit, 1-2 domains"
        prop_pairwise_bits;
      qprop ~count:40 "Similarity.dense = per-entry eval_sq_dist, every kernel"
        prop_similarity_dense_bits;
      qprop ~count:40
        "dense_of_sq_distances = per-entry eval_sq_dist, input unchanged"
        prop_dense_of_sq_distances_bits;
    ] )
