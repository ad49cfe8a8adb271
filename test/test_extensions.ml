(* Tests for the extension modules: lambda path, cross-validated lambda
   selection, one-vs-rest multiclass. *)

open Test_util
module P = Gssl.Problem
module Path = Gssl.Lambda_path
module Cv = Gssl.Cross_validation
module Mc = Gssl.Multiclass
module Mat = Linalg.Mat
module Vec = Linalg.Vec

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
  P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels

(* ---------- lambda path ---------- *)

let test_path_endpoints () =
  let rng = Prng.Rng.create 1 in
  let p = random_problem rng 8 4 in
  let path = Path.compute p in
  let first = path.Path.points.(0) in
  check_float "grid starts at 0" 0. first.Path.lambda;
  check_float ~tol:1e-12 "lambda=0 point is hard" 0. first.Path.distance_to_hard;
  let last = path.Path.points.(Array.length path.Path.points - 1) in
  Alcotest.(check bool) "large lambda near collapse" true
    (last.Path.distance_to_collapse < 0.01);
  check_float "label mean" (Vec.mean p.P.labels) path.Path.label_mean

let test_path_guards () =
  let rng = Prng.Rng.create 2 in
  let p = random_problem rng 5 3 in
  check_raises_invalid "empty grid" (fun () -> ignore (Path.compute ~lambdas:[||] p));
  check_raises_invalid "negative lambda" (fun () ->
      ignore (Path.compute ~lambdas:[| -1.; 1. |] p));
  check_raises_invalid "not ascending" (fun () ->
      ignore (Path.compute ~lambdas:[| 1.; 0.5 |] p))

let prop_path_collapse_trend seed =
  (* sup-norm distance to the collapse value need not fall at every grid
     step, but the endpoints must order: the largest lambda is (much)
     closer to the label mean than the smallest positive one *)
  let rng = Prng.Rng.create seed in
  let n = 3 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 5 in
  let p = random_problem rng n m in
  let path = Path.compute p in
  let pts = path.Path.points in
  let last = pts.(Array.length pts - 1) in
  last.Path.distance_to_collapse <= pts.(1).Path.distance_to_collapse +. 1e-9
  && last.Path.distance_to_collapse < 0.01

let prop_path_continuity seed =
  (* on a fine grid the max step is small relative to how far the path
     travels from the hard solution: the continuity the paper's argument
     invokes.  The scale is the largest distance along the path, not the
     distance at its last point: when the hard answer lies near the label
     mean the path swings out and comes back, and the last point sits
     close to where it started. *)
  let rng = Prng.Rng.create seed in
  let n = 3 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 5 in
  let p = random_problem rng n m in
  let fine =
    Array.append [| 0. |]
      (Array.init 60 (fun i -> exp (log 1e-4 +. (float_of_int i /. 59. *. log 1e7))))
  in
  let path = Path.compute ~lambdas:fine p in
  let travel =
    Array.fold_left
      (fun acc pt -> Float.max acc pt.Path.distance_to_hard)
      0. path.Path.points
  in
  Path.max_step path <= Stdlib.max (0.35 *. travel) 1e-6

let prop_path_leaves_hard seed =
  (* distance to the hard solution starts at zero and is largest in the
     collapse regime (the two endpoints of the paper's continuity
     argument) *)
  let rng = Prng.Rng.create seed in
  let n = 3 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 5 in
  let p = random_problem rng n m in
  let path = Path.compute p in
  let pts = path.Path.points in
  let last = pts.(Array.length pts - 1) in
  pts.(0).Path.distance_to_hard = 0.
  && last.Path.distance_to_hard >= pts.(1).Path.distance_to_hard -. 1e-6

(* ---------- cross validation ---------- *)

let test_cv_guards () =
  let rng = Prng.Rng.create 3 in
  let p = random_problem rng 10 4 in
  check_raises_invalid "k=1" (fun () ->
      ignore (Cv.select ~k:1 ~rng p));
  check_raises_invalid "k > n" (fun () ->
      ignore (Cv.select ~k:11 ~rng p));
  check_raises_invalid "empty grid" (fun () ->
      ignore (Cv.select ~lambdas:[] ~rng p));
  check_raises_invalid "negative lambda" (fun () ->
      ignore (Cv.select ~lambdas:[ -0.5 ] ~rng p))

let test_cv_subproblem_structure () =
  let rng = Prng.Rng.create 4 in
  let p = random_problem rng 6 3 in
  let sub, n_holdout =
    Cv.subproblem p ~train:[| 0; 2; 4; 3 |] ~holdout:[| 1; 5 |]
  in
  Alcotest.(check int) "holdout count" 2 n_holdout;
  Alcotest.(check int) "labeled = train" 4 (P.n_labeled sub);
  Alcotest.(check int) "unlabeled = holdout + m" 5 (P.n_unlabeled sub);
  Alcotest.(check int) "same total" (P.size p) (P.size sub);
  (* labels carried over correctly *)
  check_float "label 0" p.P.labels.(0) sub.P.labels.(0);
  check_float "label 2" p.P.labels.(2) sub.P.labels.(1);
  check_raises_invalid "bad index" (fun () ->
      ignore (Cv.subproblem p ~train:[| 0 |] ~holdout:[| 7 |]))

let test_cv_subproblem_preserves_weights () =
  let rng = Prng.Rng.create 5 in
  let p = random_problem rng 5 2 in
  let sub, _ = Cv.subproblem p ~train:[| 3; 1 |] ~holdout:[| 0; 2; 4 |] in
  (* weight between train[0]=3 and holdout[1]=2 must equal original w(3,2):
     in the subproblem they sit at positions 0 and 3 *)
  check_float "permuted weight"
    (Graph.Weighted_graph.weight p.P.graph 3 2)
    (Graph.Weighted_graph.weight sub.P.graph 0 3)

let test_cv_runs_and_reports_grid () =
  let rng = Prng.Rng.create 6 in
  let p = random_problem rng 20 5 in
  let r = Cv.select ~k:4 ~rng p in
  Alcotest.(check int) "full grid scored" 7 (Array.length r.Cv.scores);
  Array.iter
    (fun (_, e) -> Alcotest.(check bool) "errors finite" true (Float.is_finite e))
    r.Cv.scores;
  Alcotest.(check bool) "best in grid" true
    (Array.exists (fun (l, _) -> l = r.Cv.best_lambda) r.Cv.scores);
  (* best must achieve the minimal error *)
  let best_err =
    snd (Array.to_list r.Cv.scores
         |> List.find (fun (l, _) -> l = r.Cv.best_lambda))
  in
  Array.iter
    (fun (_, e) -> Alcotest.(check bool) "minimal" true (best_err <= e +. 1e-12))
    r.Cv.scores

let test_cv_deterministic () =
  let p = random_problem (Prng.Rng.create 7) 16 4 in
  let r1 = Cv.select ~rng:(Prng.Rng.create 99) p in
  let r2 = Cv.select ~rng:(Prng.Rng.create 99) p in
  check_float "same pick" r1.Cv.best_lambda r2.Cv.best_lambda

(* ---------- multiclass ---------- *)

(* three well-separated clusters in 1-D *)
let cluster_problem rng ~per_class ~unlabeled_per_class =
  let centers = [| 0.; 5.; 10. |] in
  let sample c = [| centers.(c) +. Prng.Rng.uniform rng (-0.4) 0.4 |] in
  let labeled_points =
    Array.concat
      (List.init 3 (fun c -> Array.init per_class (fun _ -> sample c)))
  in
  let class_labels =
    Array.concat (List.init 3 (fun c -> Array.make per_class c))
  in
  let unlabeled_points =
    Array.concat
      (List.init 3 (fun c -> Array.init unlabeled_per_class (fun _ -> sample c)))
  in
  let truth =
    Array.concat (List.init 3 (fun c -> Array.make unlabeled_per_class c))
  in
  let points = Array.append labeled_points unlabeled_points in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  let t = Mc.make ~graph:(Graph.Weighted_graph.of_dense w) ~class_labels in
  (t, truth)

let test_multiclass_guards () =
  let g = Graph.Weighted_graph.of_dense (Mat.ones 4 4) in
  check_raises_invalid "empty" (fun () -> ignore (Mc.make ~graph:g ~class_labels:[||]));
  check_raises_invalid "negative class" (fun () ->
      ignore (Mc.make ~graph:g ~class_labels:[| 0; -1 |]));
  check_raises_invalid "gap in numbering" (fun () ->
      ignore (Mc.make ~graph:g ~class_labels:[| 0; 2 |]));
  check_raises_invalid "too many labels" (fun () ->
      ignore (Mc.make ~graph:g ~class_labels:[| 0; 1; 0; 1; 0 |]))

let test_multiclass_separated_clusters () =
  let rng = Prng.Rng.create 8 in
  let t, truth = cluster_problem rng ~per_class:6 ~unlabeled_per_class:4 in
  let pred = Mc.predict t in
  check_float "perfect on separated clusters" 1. (Mc.accuracy ~truth pred)

let test_multiclass_scores_shape () =
  let rng = Prng.Rng.create 9 in
  let t, _ = cluster_problem rng ~per_class:4 ~unlabeled_per_class:3 in
  let s = Mc.scores t in
  Alcotest.(check (pair int int)) "m x c" (9, 3) (Mat.dims s)

let prop_multiclass_hard_rows_sum_to_one seed =
  (* the per-class indicator labels sum to the all-ones label vector, and
     the hard solve is linear, so per-vertex class scores sum to the hard
     solution of the all-ones problem, which is identically 1 *)
  let rng = Prng.Rng.create seed in
  let n = 3 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 6 in
  let points =
    Array.init (n + m) (fun _ ->
        [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let n_classes = 2 + Prng.Rng.int rng 2 in
  (* ensure every class appears *)
  let class_labels =
    Array.init n (fun i ->
        if i < n_classes then i else Prng.Rng.int rng n_classes)
  in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  let t = Mc.make ~graph:(Graph.Weighted_graph.of_dense w) ~class_labels in
  let s = Mc.scores t in
  let ok = ref true in
  for i = 0 to s.Mat.rows - 1 do
    if abs_float (Vec.sum (Mat.row s i) -. 1.) > 1e-7 then ok := false
  done;
  !ok

let prop_multiclass_hard_matches_generic seed =
  (* the factored-once fast path must agree with per-class Hard solves *)
  let rng = Prng.Rng.create seed in
  let n = 4 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 5 in
  let points =
    Array.init (n + m) (fun _ -> [| Prng.Rng.uniform rng 0. 2. |])
  in
  let class_labels = Array.init n (fun i -> if i < 2 then i else Prng.Rng.int rng 2) in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.2 points
  in
  let graph = Graph.Weighted_graph.of_dense w in
  let t = Mc.make ~graph ~class_labels in
  let fast = Mc.scores t in
  let slow_col c =
    let labels = Array.map (fun cl -> if cl = c then 1. else 0.) class_labels in
    Gssl.Hard.solve (P.make ~graph ~labels)
  in
  Vec.approx_equal ~tol:1e-8 (Mat.col fast 0) (slow_col 0)
  && Vec.approx_equal ~tol:1e-8 (Mat.col fast 1) (slow_col 1)

let test_multiclass_accuracy_guards () =
  check_raises_invalid "mismatch" (fun () ->
      ignore (Mc.accuracy ~truth:[| 0 |] [| 0; 1 |]));
  check_raises_invalid "empty" (fun () -> ignore (Mc.accuracy ~truth:[||] [||]))

let suite =
  ( "extensions",
    [
      case "path: endpoints" test_path_endpoints;
      case "path: guards" test_path_guards;
      qprop "path: collapse trend" prop_path_collapse_trend;
      qprop ~count:30 "path: continuity in lambda" prop_path_continuity;
      qprop "path: leaves hard solution" prop_path_leaves_hard;
      case "cv: guards" test_cv_guards;
      case "cv: subproblem structure" test_cv_subproblem_structure;
      case "cv: subproblem weights" test_cv_subproblem_preserves_weights;
      case "cv: grid scoring" test_cv_runs_and_reports_grid;
      case "cv: deterministic" test_cv_deterministic;
      case "multiclass: guards" test_multiclass_guards;
      case "multiclass: separated clusters" test_multiclass_separated_clusters;
      case "multiclass: scores shape" test_multiclass_scores_shape;
      qprop "multiclass: rows sum to 1" prop_multiclass_hard_rows_sum_to_one;
      qprop "multiclass: fast = generic" prop_multiclass_hard_matches_generic;
      case "multiclass: accuracy guards" test_multiclass_accuracy_guards;
    ] )
