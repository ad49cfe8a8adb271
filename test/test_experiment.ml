(* Sweep machinery, tables/plots/report, and miniature end-to-end runs of
   the figure reproductions checking the paper's qualitative claims. *)

open Test_util
module Sweep = Experiment.Sweep
module Table = Experiment.Table
module Plot = Experiment.Ascii_plot
module Report = Experiment.Report
module Figures = Experiment.Figures

let test_replicate () =
  let acc = Sweep.replicate ~seed:1 ~reps:50 (fun rng -> Prng.Rng.float rng) in
  Alcotest.(check int) "count" 50 (Stats.Running.count acc);
  check_float ~tol:0.2 "mean near 1/2" 0.5 (Stats.Running.mean acc);
  check_raises_invalid "reps 0" (fun () ->
      ignore (Sweep.replicate ~seed:1 ~reps:0 (fun _ -> 0.)))

let test_replicate_deterministic () =
  let run () =
    Stats.Running.mean (Sweep.replicate ~seed:7 ~reps:20 (fun rng -> Prng.Rng.float rng))
  in
  check_float "same seed same result" (run ()) (run ())

let test_replicate_multi () =
  let out =
    Sweep.replicate_multi ~seed:2 ~reps:30 ~labels:[ "a"; "b" ] (fun rng ->
        let x = Prng.Rng.float rng in
        [ x; 2. *. x ])
  in
  (match out with
  | [ ("a", acc_a); ("b", acc_b) ] ->
      check_float ~tol:1e-9 "b = 2a"
        (2. *. Stats.Running.mean acc_a)
        (Stats.Running.mean acc_b)
  | _ -> Alcotest.fail "wrong shape");
  match
    Sweep.replicate_multi ~seed:2 ~reps:2 ~labels:[ "a" ] (fun _ -> [ 1.; 2. ])
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on wrong arity"

let test_grid () =
  let series =
    Sweep.grid ~seed:3 ~reps:5 ~xs:[ 1.; 2.; 3. ] ~labels:[ "x"; "x2" ]
      (fun ~x _rng -> [ x; x *. x ])
  in
  (match series with
  | [ s1; s2 ] ->
      check_vec "xs" [| 1.; 2.; 3. |] s1.Sweep.xs;
      check_vec "identity means" [| 1.; 2.; 3. |] s1.Sweep.means;
      check_vec "square means" [| 1.; 4.; 9. |] s2.Sweep.means;
      (* deterministic measurements have zero spread *)
      check_vec "zero stderr" [| 0.; 0.; 0. |] s1.Sweep.stderrs
  | _ -> Alcotest.fail "wrong number of series")

let fixture_figure =
  {
    Sweep.title = "t";
    xlabel = "x";
    ylabel = "y";
    series =
      [
        { Sweep.label = "up"; xs = [| 1.; 2. |]; means = [| 1.; 2. |]; stderrs = [| 0.; 0. |] };
        { Sweep.label = "down"; xs = [| 1.; 2. |]; means = [| 2.; 1. |]; stderrs = [| 0.; 0. |] };
      ];
  }

let test_table_render () =
  let s = Table.render ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "30"; "40" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  check_raises_invalid "ragged" (fun () ->
      ignore (Table.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_table_of_figure () =
  let s = Table.of_figure fixture_figure in
  Alcotest.(check bool) "mentions series" true
    (Astring.String.is_infix ~affix:"up" s && Astring.String.is_infix ~affix:"down" s)

let test_float_cell () =
  Alcotest.(check string) "zero" "0" (Table.float_cell 0.);
  Alcotest.(check string) "integer" "42" (Table.float_cell 42.);
  Alcotest.(check string) "decimal" "0.1235" (Table.float_cell 0.123456);
  Alcotest.(check string) "tiny uses exponent" "1.000e-08" (Table.float_cell 1e-8)

let test_ascii_plot () =
  let s = Plot.render fixture_figure in
  Alcotest.(check bool) "has legend" true (Astring.String.is_infix ~affix:"legend" s);
  Alcotest.(check bool) "nonempty grid" true (String.length s > 100);
  check_raises_invalid "too small" (fun () ->
      ignore (Plot.render ~width:2 ~height:2 fixture_figure));
  let empty = { fixture_figure with Sweep.series = [] } in
  Alcotest.(check bool) "empty note" true
    (Astring.String.is_infix ~affix:"no data" (Plot.render empty))

let test_report_markdown () =
  let s = Report.figure_markdown fixture_figure in
  Alcotest.(check bool) "markdown table" true (Astring.String.is_infix ~affix:"| x |" s)

let test_report_monotone () =
  let up = List.nth fixture_figure.Sweep.series 0 in
  let down = List.nth fixture_figure.Sweep.series 1 in
  Alcotest.(check bool) "up nondecreasing" true (Report.series_monotone_nondecreasing up);
  Alcotest.(check bool) "up not nonincreasing" false (Report.series_monotone_nonincreasing up);
  Alcotest.(check bool) "down nonincreasing" true (Report.series_monotone_nonincreasing down)

let test_report_first_best () =
  (* smaller-is-better: the "up" series starts equal-best then loses *)
  Alcotest.(check bool) "not best everywhere" false
    (Report.first_series_best fixture_figure);
  let fig_ok =
    { fixture_figure with
      Sweep.series =
        [
          { Sweep.label = "low"; xs = [| 1.; 2. |]; means = [| 0.; 0. |]; stderrs = [| 0.; 0. |] };
          { Sweep.label = "high"; xs = [| 1.; 2. |]; means = [| 1.; 1. |]; stderrs = [| 0.; 0. |] };
        ];
    }
  in
  Alcotest.(check bool) "best everywhere" true (Report.first_series_best fig_ok);
  Alcotest.(check bool) "larger-is-better flips" false
    (Report.first_series_best ~larger_is_better:true fig_ok)

(* ---------- miniature end-to-end figure checks ---------- *)

let mini_ns = [ 30; 100; 300 ]
let mini_ms = [ 10; 40 ]

let check_hard_wins fig =
  (* paper claim: the hard criterion (first series, lambda=0) has the
     smallest RMSE at every grid point *)
  Alcotest.(check bool) "hard criterion best" true (Report.first_series_best fig)

let test_fig1_shape () =
  let fig = Figures.fig1 ~reps:3 ~seed:101 ~ns:mini_ns ~m:10 () in
  Alcotest.(check int) "four series" 4 (List.length fig.Sweep.series);
  check_hard_wins fig;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Sweep.label ^ " finite")
        true
        (Array.for_all Float.is_finite s.Sweep.means))
    fig.Sweep.series

let test_fig2_shape () =
  let fig = Figures.fig2 ~reps:3 ~seed:102 ~ms:mini_ms ~n:60 () in
  check_hard_wins fig

let test_fig3_shape () =
  let fig = Figures.fig3 ~reps:3 ~seed:103 ~ns:mini_ns ~m:10 () in
  check_hard_wins fig

let test_fig4_shape () =
  let fig = Figures.fig4 ~reps:3 ~seed:104 ~ms:mini_ms ~n:60 () in
  check_hard_wins fig

let test_rmse_decreases_with_n () =
  (* consistency at work: at lambda=0, more labeled data helps *)
  let fig = Figures.fig1 ~reps:4 ~seed:105 ~ns:[ 20; 700 ] ~m:10 () in
  let hard = List.hd fig.Sweep.series in
  Alcotest.(check bool) "rmse(700) < rmse(20)" true
    (hard.Sweep.means.(1) < hard.Sweep.means.(0))

let test_lambda_ordering_at_large_n () =
  (* the gap widens with lambda: lambda=5 worst at the largest n *)
  let fig = Figures.fig1 ~reps:3 ~seed:106 ~ns:[ 400 ] ~m:10 () in
  let means = List.map (fun s -> s.Sweep.means.(0)) fig.Sweep.series in
  match means with
  | [ l0; l001; l01; l5 ] ->
      Alcotest.(check bool) "0 <= 0.01" true (l0 <= l001 +. 1e-9);
      Alcotest.(check bool) "0.01 <= 0.1" true (l001 <= l01 +. 1e-9);
      Alcotest.(check bool) "0.1 <= 5" true (l01 <= l5 +. 1e-9)
  | _ -> Alcotest.fail "expected 4 series"

let test_fig5_shape () =
  let fig = Figures.fig5 ~reps:1 ~seed:107 ~dataset_size:240 () in
  Alcotest.(check int) "three ratios" 3 (List.length fig.Sweep.series);
  List.iter
    (fun s ->
      (* paper claim: AUC is maximal at lambda = 0 for every ratio *)
      let at0 = s.Sweep.means.(0) in
      Array.iter
        (fun v ->
          Alcotest.(check bool)
            (s.Sweep.label ^ ": lambda=0 best")
            true (at0 >= v -. 1e-9))
        s.Sweep.means;
      (* and the classifier is genuinely informative *)
      Alcotest.(check bool) (s.Sweep.label ^ " beats chance") true (at0 > 0.55))
    fig.Sweep.series

let test_consistency_demo_shape () =
  let fig = Figures.consistency_demo ~seed:108 ~ns:[ 50; 400 ] ~m:5 () in
  Alcotest.(check int) "four diagnostics" 4 (List.length fig.Sweep.series);
  (* the hard-NW gap must shrink as n grows (the proof's mechanism) *)
  let gap = List.nth fig.Sweep.series 2 in
  Alcotest.(check bool) "gap shrinks" true (gap.Sweep.means.(1) < gap.Sweep.means.(0))

let test_toy_demo_output () =
  let s = Figures.toy_demo ~n:10 ~m:5 ~seed:1 in
  Alcotest.(check bool) "mentions toy" true (Astring.String.is_infix ~affix:"Toy example" s)

let test_predict_adaptive_consistent () =
  (* the adaptive dispatcher must agree with the reference solvers *)
  let rng = Prng.Rng.create 109 in
  let samples = Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 60 in
  let problem, _ =
    Dataset.Synthetic.to_problem ~kernel:Kernel.Kernel_fn.Rbf
      ~bandwidth:(Kernel.Bandwidth.Fixed 0.7) ~n_labeled:40 samples
  in
  check_vec ~tol:1e-6 "hard path"
    (Gssl.Hard.solve problem)
    (Figures.predict_adaptive ~lambda:0. problem);
  check_vec ~tol:1e-6 "soft path"
    (Gssl.Soft.solve ~lambda:0.3 problem)
    (Figures.predict_adaptive ~lambda:0.3 problem)

(* Bit pin of Figs. 1-4's series means on a reduced grid that takes
   every branch of [predict_adaptive]: hard Cholesky (m <= 400) and hard
   CG (m = 410), soft direct (n + m = 30) and soft CG (n + m = 370 and
   430).  It runs serially, with the dense kernels on a 2-domain pool
   (their row loops split into pool chunks), and with the replicates on
   a 2-domain pool (the kernels inline).  The digest was recorded from
   one-row dense loops, so all three must match it. *)
let reduced_figures_digest ~pool ~domains =
  Parallel.Pool.with_default_domains pool (fun () ->
      let figs =
        [
          Figures.fig1 ~domains ~reps:2 ~seed:11 ~ns:[ 20; 360 ] ~m:10 ();
          Figures.fig2 ~domains ~reps:2 ~seed:12 ~ms:[ 10; 410 ] ~n:20 ();
          Figures.fig3 ~domains ~reps:2 ~seed:13 ~ns:[ 20; 360 ] ~m:10 ();
          Figures.fig4 ~domains ~reps:2 ~seed:14 ~ms:[ 10; 410 ] ~n:20 ();
        ]
      in
      digest_hex (fun buf ->
          List.iter
            (fun fig ->
              List.iter
                (fun s -> Array.iter (add_float_bits buf) s.Sweep.means)
                fig.Sweep.series)
            figs))

let test_figures_pinned_bits () =
  List.iter
    (fun (name, pool, domains) ->
      Alcotest.(check string) name "00025a874fbbc93f30a91f5e8666e262"
        (reduced_figures_digest ~pool ~domains))
    [ ("serial", 1, 1); ("kernels on 2 domains", 2, 1);
      ("replicates on 2 domains", 1, 2) ]

let suite =
  ( "experiment",
    [
      case "replicate" test_replicate;
      case "replicate deterministic" test_replicate_deterministic;
      case "replicate_multi" test_replicate_multi;
      case "grid" test_grid;
      case "table render" test_table_render;
      case "table of figure" test_table_of_figure;
      case "float cell formats" test_float_cell;
      case "ascii plot" test_ascii_plot;
      case "report markdown" test_report_markdown;
      case "report monotone checks" test_report_monotone;
      case "report first-best check" test_report_first_best;
      case "fig1 mini: hard wins" test_fig1_shape;
      case "fig2 mini: hard wins" test_fig2_shape;
      case "fig3 mini: hard wins" test_fig3_shape;
      case "fig4 mini: hard wins" test_fig4_shape;
      case "fig1: rmse decreases in n" test_rmse_decreases_with_n;
      case "fig1: lambda ordering" test_lambda_ordering_at_large_n;
      case "fig5 mini: lambda=0 best" test_fig5_shape;
      case "consistency demo: gap shrinks" test_consistency_demo_shape;
      case "toy demo output" test_toy_demo_output;
      case "predict_adaptive consistent" test_predict_adaptive_consistent;
      case "figs 1-4: pinned series-mean bits, every branch"
        test_figures_pinned_bits;
    ] )
