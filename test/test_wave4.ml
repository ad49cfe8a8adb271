(* Wave-4 tests: parallel sweeps, CSV export of figures. *)

open Test_util
module Vec = Linalg.Vec

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
      case "parallel: identical to sequential" test_parallel_matches_sequential;
      case "parallel: guards" test_parallel_guards;
      case "parallel: real workload" test_parallel_real_workload;
      case "export: roundtrip" test_export_roundtrip;
      case "export: file roundtrip" test_export_file_roundtrip;
      case "export: malformed input" test_export_malformed;
    ] )
