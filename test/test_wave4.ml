(* Wave-4 tests: random-walk interpretation, parallel sweeps, CSV export
   of figures. *)

open Test_util
module P = Gssl.Problem
module Rw = Gssl.Random_walk
module Vec = Linalg.Vec

let random_problem rng n m =
  let points =
    Array.init (n + m) (fun _ ->
        [| Prng.Rng.uniform rng 0. 2.; Prng.Rng.uniform rng 0. 2. |])
  in
  let labels = Array.init n (fun i -> if i mod 2 = 0 then 1. else 0.) in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5 points
  in
  (P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels, points)

(* ---------- random walk ---------- *)

let prop_absorption_equals_hard seed =
  (* the exact absorption computation must match the hard criterion *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 8 in
  let p, _ = random_problem rng n m in
  Vec.approx_equal ~tol:1e-6 (Gssl.Hard.solve p) (Rw.absorption_scores p)

let test_simulation_converges_to_hard () =
  (* Monte Carlo with many walks approximates the harmonic solution *)
  let rng = Prng.Rng.create 7 in
  let p, _ = random_problem rng 6 3 in
  let exact = Gssl.Hard.solve p in
  let approx = Rw.simulate ~rng ~walks_per_vertex:4000 p in
  Array.iteri
    (fun a e ->
      if abs_float (e -. approx.(a)) > 0.05 then
        Alcotest.failf "vertex %d: exact %.4f vs simulated %.4f" a e approx.(a))
    exact

let test_simulation_guards () =
  let rng = Prng.Rng.create 8 in
  let p, _ = random_problem rng 4 2 in
  check_raises_invalid "zero walks" (fun () ->
      ignore (Rw.simulate ~rng ~walks_per_vertex:0 p));
  (* isolated vertex cannot walk *)
  let w = Linalg.Mat.zeros 3 3 in
  Linalg.Mat.set w 0 1 1.;
  Linalg.Mat.set w 1 0 1.;
  let bad = P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels:[| 1.; 0. |] in
  check_raises_invalid "zero degree" (fun () ->
      ignore (Rw.simulate ~rng ~walks_per_vertex:1 bad))

let test_hitting_counts_shape () =
  let rng = Prng.Rng.create 9 in
  let p, _ = random_problem rng 5 4 in
  let counts = Rw.hitting_counts ~rng ~walks_per_vertex:50 p in
  Alcotest.(check int) "m rows" 4 (Array.length counts);
  Array.iter
    (fun row ->
      Alcotest.(check int) "n columns" 5 (Array.length row);
      let total = Array.fold_left ( + ) 0 row in
      Alcotest.(check bool) "all walks absorb (connected RBF graph)" true
        (total = 50))
    counts

let prop_hitting_distribution_normalized seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 5 and m = 1 + Prng.Rng.int rng 4 in
  let p, _ = random_problem rng n m in
  let counts = Rw.hitting_counts ~rng ~walks_per_vertex:20 p in
  Array.for_all
    (fun row ->
      let total = Array.fold_left ( + ) 0 row in
      total >= 0 && total <= 20)
    counts

(* ---------- parallel sweep ---------- *)

let measurement ~x rng = [ x +. Prng.Rng.float rng; 2. *. x ]

let test_parallel_matches_sequential () =
  let args = ([ 1.; 2.; 3. ], [ "a"; "b" ]) in
  let xs, labels = args in
  let seq = Experiment.Sweep.grid ~seed:5 ~reps:7 ~xs ~labels measurement in
  List.iter
    (fun domains ->
      let par =
        Experiment.Sweep.grid_parallel ~domains ~seed:5 ~reps:7 ~xs ~labels
          measurement
      in
      List.iter2
        (fun s p ->
          check_vec "means identical" s.Experiment.Sweep.means
            p.Experiment.Sweep.means;
          check_vec "stderrs identical" s.Experiment.Sweep.stderrs
            p.Experiment.Sweep.stderrs)
        seq par)
    [ 1; 2; 4 ]

let test_parallel_guards () =
  check_raises_invalid "domains = 0" (fun () ->
      ignore
        (Experiment.Sweep.grid_parallel ~domains:0 ~seed:1 ~reps:1 ~xs:[ 1. ]
           ~labels:[ "a" ] (fun ~x _ -> [ x ])))

let test_parallel_real_workload () =
  (* a miniature fig1 through the parallel path agrees with sequential *)
  let work ~x rng =
    let n = int_of_float x in
    let samples = Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 (n + 10) in
    let h = Kernel.Bandwidth.paper_rate ~d:5 n in
    let problem, truth =
      Dataset.Synthetic.to_problem ~kernel:Kernel.Kernel_fn.Rbf
        ~bandwidth:(Kernel.Bandwidth.Fixed h) ~n_labeled:n samples
    in
    [ Stats.Metrics.rmse truth (Gssl.Hard.solve problem) ]
  in
  let xs = [ 30.; 60. ] and labels = [ "hard" ] in
  let seq = Experiment.Sweep.grid ~seed:6 ~reps:4 ~xs ~labels work in
  let par = Experiment.Sweep.grid_parallel ~domains:3 ~seed:6 ~reps:4 ~xs ~labels work in
  List.iter2
    (fun s p -> check_vec "real workload identical" s.Experiment.Sweep.means p.Experiment.Sweep.means)
    seq par

(* ---------- export ---------- *)

let fixture =
  {
    Experiment.Sweep.title = "fig, with comma";
    xlabel = "n";
    ylabel = "rmse";
    series =
      [
        {
          Experiment.Sweep.label = "hard";
          xs = [| 1.; 2. |];
          means = [| 0.25; 0.125 |];
          stderrs = [| 0.01; 0. |];
        };
        {
          Experiment.Sweep.label = "soft, 0.1";
          xs = [| 1.; 2. |];
          means = [| 0.5; 0.4 |];
          stderrs = [| 0.; 0.02 |];
        };
      ];
  }

let figures_equal a b =
  a.Experiment.Sweep.title = b.Experiment.Sweep.title
  && a.Experiment.Sweep.xlabel = b.Experiment.Sweep.xlabel
  && a.Experiment.Sweep.ylabel = b.Experiment.Sweep.ylabel
  && List.for_all2
       (fun s t ->
         s.Experiment.Sweep.label = t.Experiment.Sweep.label
         && s.Experiment.Sweep.xs = t.Experiment.Sweep.xs
         && s.Experiment.Sweep.means = t.Experiment.Sweep.means
         && s.Experiment.Sweep.stderrs = t.Experiment.Sweep.stderrs)
       a.Experiment.Sweep.series b.Experiment.Sweep.series

let test_export_roundtrip () =
  let text = Experiment.Export.to_csv fixture in
  Alcotest.(check bool) "roundtrip" true
    (figures_equal fixture (Experiment.Export.of_csv text))

let test_export_file_roundtrip () =
  let path = Filename.temp_file "gssl_fig" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Experiment.Export.write_file path fixture;
      Alcotest.(check bool) "file roundtrip" true
        (figures_equal fixture (Experiment.Export.read_file path)))

let test_export_malformed () =
  (match Experiment.Export.of_csv "just,one,row\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  match Experiment.Export.of_csv "# t,x,y\nx,weird header\n1,2\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on bad header"

let suite =
  ( "wave4",
    [
      qprop "random walk: absorption = hard" prop_absorption_equals_hard;
      case "random walk: MC converges" test_simulation_converges_to_hard;
      case "random walk: guards" test_simulation_guards;
      case "random walk: hitting counts" test_hitting_counts_shape;
      qprop ~count:30 "random walk: counts bounded" prop_hitting_distribution_normalized;
      case "parallel: identical to sequential" test_parallel_matches_sequential;
      case "parallel: guards" test_parallel_guards;
      case "parallel: real workload" test_parallel_real_workload;
      case "export: roundtrip" test_export_roundtrip;
      case "export: file roundtrip" test_export_file_roundtrip;
      case "export: malformed input" test_export_malformed;
    ] )

(* ---------- absorption matrix & predictive uncertainty ---------- *)

let prop_absorption_matrix_rows_sum_to_one seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p, _ = random_problem rng n m in
  let b = Rw.absorption_matrix p in
  Array.for_all
    (fun s -> abs_float (s -. 1.) < 1e-7)
    (Linalg.Mat.row_sums b)

let prop_absorption_matrix_reproduces_hard seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p, _ = random_problem rng n m in
  let b = Rw.absorption_matrix p in
  Vec.approx_equal ~tol:1e-7 (Gssl.Hard.solve p)
    (Linalg.Mat.mv b p.P.labels)

let prop_absorption_probabilities_nonnegative seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 and m = 1 + Prng.Rng.int rng 6 in
  let p, _ = random_problem rng n m in
  let b = Rw.absorption_matrix p in
  Array.for_all (fun v -> v >= -1e-9) b.Linalg.Mat.data

let prop_predictive_std_bounded seed =
  (* binary-label variance is at most 1/4 per label, and the absorption
     weights are a distribution, so std <= 1/2 *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 and m = 1 + Prng.Rng.int rng 6 in
  let p, _ = random_problem rng n m in
  Array.for_all (fun s -> s >= 0. && s <= 0.5 +. 1e-9) (Rw.predictive_std p)

let test_predictive_std_zero_when_labels_agree () =
  (* all labels identical: zero estimated label noise, zero std *)
  let points = Array.init 6 (fun i -> [| float_of_int i *. 0.3 |]) in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1. points
  in
  let p = P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels:[| 1.; 1.; 1.; 1. |] in
  Array.iter
    (fun s -> check_float ~tol:1e-9 "zero std" 0. s)
    (Rw.predictive_std p)

let extra_cases =
  [
    qprop "absorption rows sum to 1" prop_absorption_matrix_rows_sum_to_one;
    qprop "absorption B y = hard" prop_absorption_matrix_reproduces_hard;
    qprop "absorption nonnegative" prop_absorption_probabilities_nonnegative;
    qprop "predictive std bounded" prop_predictive_std_bounded;
    case "predictive std: pure labels" test_predictive_std_zero_when_labels_agree;
  ]

let suite = (fst suite, snd suite @ extra_cases)
