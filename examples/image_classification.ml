(* Binary image classification on the simulated COIL benchmark: the
   Section V-B experiment at a single split, with per-lambda AUC,
   accuracy, F1 and MCC.

   Run with:  dune exec examples/image_classification.exe *)

module Mat = Linalg.Mat

let () =
  let rng = Prng.Rng.create 7 in
  let data = Dataset.Coil.generate rng in
  (* keep a 400-image subsample so the example runs in ~1s *)
  let keep = Prng.Rng.sample_without_replacement rng 400 1500 in
  let points = Array.map (fun i -> (Dataset.Coil.points data).(i)) keep in
  let labels = Array.map (fun i -> (Dataset.Coil.labels data).(i)) keep in
  let n_total = Array.length points in

  (* paper protocol: RBF kernel, sigma^2 = median of squared pairwise
     distances *)
  let d2 = Kernel.Pairwise.sq_distance_matrix points in
  let bandwidth =
    sqrt (Stats.Descriptive.median_of_pairwise_sq_distances points)
  in
  let w =
    Kernel.Similarity.dense_of_sq_distances ~kernel:Kernel.Kernel_fn.Rbf
      ~bandwidth d2
  in
  Printf.printf "Simulated COIL: %d images (16x16), bandwidth sigma = %.3f\n"
    n_total bandwidth;

  (* one 80/20 split *)
  let split = Dataset.Splits.ratio_split rng ~n:n_total ~labeled_fraction:0.8 in
  let train = split.Dataset.Splits.train and test = split.Dataset.Splits.test in
  let perm = Array.append train test in
  let wp = Mat.init n_total n_total (fun i j -> Mat.get w perm.(i) perm.(j)) in
  let y = Array.map (fun i -> if labels.(i) then 1. else 0.) train in
  let problem =
    Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense wp) ~labels:y
  in
  let truth = Array.map (fun i -> labels.(i)) test in
  Printf.printf "train %d / test %d\n\n" (Array.length train) (Array.length test);

  Printf.printf "%-10s  %7s  %9s  %7s  %7s\n" "criterion" "AUC" "accuracy" "F1" "MCC";
  List.iter
    (fun lambda ->
      let scores = Experiment.Figures.predict_adaptive ~lambda problem in
      let auc = Stats.Roc.auc ~truth ~scores in
      let c = Stats.Metrics.confusion ~truth scores in
      Printf.printf "lambda=%-4g  %7.4f  %9.4f  %7.4f  %7.4f\n" lambda auc
        (Stats.Metrics.accuracy c) (Stats.Metrics.f1 c) (Stats.Metrics.mcc c))
    Experiment.Figures.coil_lambdas;

  print_newline ();
  print_string
    "The hard criterion (lambda=0) should top every column - Figure 5's claim.\n"
