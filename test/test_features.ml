(* Tests for the feature wave: incremental solver, active learning, CSV
   I/O, SVG plots, ablation studies. *)

open Test_util
module P = Gssl.Problem
module Inc = Gssl.Incremental
module Active = Gssl.Active
module Csv = Dataset.Csv
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
  (P.make ~graph:(Graph.Weighted_graph.of_dense w) ~labels, points)

(* ---------- incremental ---------- *)

let test_incremental_initial_matches_hard () =
  let rng = Prng.Rng.create 1 in
  let problem, _ = random_problem rng 6 5 in
  let solver = Inc.create problem in
  let direct = Gssl.Hard.solve problem in
  let scored = Inc.predict solver in
  Alcotest.(check int) "all unlabeled" 5 (Array.length scored);
  Array.iteri
    (fun k (v, s) ->
      Alcotest.(check int) "vertex order" (6 + k) v;
      check_float ~tol:1e-8 "initial score" direct.(k) s)
    scored

(* after revealing some labels, the incremental solution must equal a
   from-scratch hard solve on the problem with those labels appended *)
let rebuild_with_revealed problem points revealed =
  let w = Graph.Weighted_graph.to_dense problem.P.graph in
  let n = P.n_labeled problem in
  let total = P.size problem in
  let revealed_v = List.map fst revealed in
  let order =
    Array.of_list
      (List.concat
         [
           List.init n (fun i -> i);
           revealed_v;
           List.filter
             (fun v -> not (List.mem v revealed_v))
             (List.init (total - n) (fun a -> n + a));
         ])
  in
  let size = Array.length order in
  let wp = Linalg.Mat.init size size (fun i j ->
      Linalg.Mat.get w order.(i) order.(j))
  in
  let labels =
    Array.append problem.P.labels (Array.of_list (List.map snd revealed))
  in
  ignore points;
  ( P.make ~graph:(Graph.Weighted_graph.of_dense wp) ~labels,
    Array.sub order (n + List.length revealed) (size - n - List.length revealed) )

let prop_incremental_matches_refit seed =
  let rng = Prng.Rng.create seed in
  let n = 3 + Prng.Rng.int rng 5 and m = 3 + Prng.Rng.int rng 5 in
  let problem, points = random_problem rng n m in
  let solver = Inc.create problem in
  (* reveal two random unlabeled vertices *)
  let v1 = n + Prng.Rng.int rng m in
  let v2 =
    let rec draw () =
      let v = n + Prng.Rng.int rng m in
      if v = v1 then draw () else v
    in
    draw ()
  in
  let y1 = if Prng.Rng.bool rng then 1. else 0. in
  let y2 = if Prng.Rng.bool rng then 1. else 0. in
  Inc.reveal solver ~vertex:v1 ~label:y1;
  Inc.reveal solver ~vertex:v2 ~label:y2;
  let refit_problem, refit_order =
    rebuild_with_revealed problem points [ (v1, y1); (v2, y2) ]
  in
  let refit = Gssl.Hard.solve refit_problem in
  let incremental = Inc.predict solver in
  (* refit_order.(k) is the graph vertex of refit score k *)
  Array.for_all
    (fun (v, s) ->
      let k = ref (-1) in
      Array.iteri (fun i rv -> if rv = v then k := i) refit_order;
      abs_float (refit.(!k) -. s) < 1e-6)
    incremental

let test_incremental_bookkeeping () =
  let rng = Prng.Rng.create 2 in
  let problem, _ = random_problem rng 4 3 in
  let solver = Inc.create problem in
  Alcotest.(check int) "remaining" 3 (Inc.n_remaining solver);
  Inc.reveal solver ~vertex:5 ~label:1.;
  Alcotest.(check int) "after reveal" 2 (Inc.n_remaining solver);
  Alcotest.(check (array int)) "remaining vertices" [| 4; 6 |] (Inc.remaining solver);
  Alcotest.(check int) "labels grew" 5 (Array.length (Inc.labels solver));
  check_raises_invalid "reveal twice" (fun () ->
      Inc.reveal solver ~vertex:5 ~label:0.);
  check_raises_invalid "reveal labeled vertex" (fun () ->
      Inc.reveal solver ~vertex:0 ~label:0.)

(* ---------- active ---------- *)

let test_active_selects_uncertain () =
  let rng = Prng.Rng.create 3 in
  let problem, _ = random_problem rng 8 6 in
  let solver = Inc.create problem in
  let chosen = Active.select Active.Uncertainty solver in
  let scored = Inc.predict solver in
  let dist v =
    let s = snd (Array.to_list scored |> List.find (fun (u, _) -> u = v)) in
    abs_float (s -. 0.5)
  in
  Array.iter
    (fun (v, _) ->
      Alcotest.(check bool) "chosen is most uncertain" true
        (dist chosen <= dist v +. 1e-12))
    scored

let test_active_run_budget () =
  let rng = Prng.Rng.create 4 in
  let problem, _ = random_problem rng 5 6 in
  let solver = Inc.create problem in
  let acquired =
    Active.run Active.Uncertainty ~oracle:(fun _ -> 1.) ~budget:4 solver
  in
  Alcotest.(check int) "4 acquisitions" 4 (List.length acquired);
  Alcotest.(check int) "2 remain" 2 (Inc.n_remaining solver);
  (* exhausting the pool stops early *)
  let more = Active.run Active.Uncertainty ~oracle:(fun _ -> 0.) ~budget:10 solver in
  Alcotest.(check int) "stops when empty" 2 (List.length more);
  Alcotest.(check int) "none remain" 0 (Inc.n_remaining solver);
  check_raises_invalid "empty select" (fun () ->
      ignore (Active.select Active.Uncertainty solver));
  check_raises_invalid "negative budget" (fun () ->
      ignore (Active.run Active.Uncertainty ~oracle:(fun _ -> 0.) ~budget:(-1) solver))

let test_active_random_strategy () =
  let rng = Prng.Rng.create 5 in
  let problem, _ = random_problem rng 5 4 in
  let solver = Inc.create problem in
  let v = Active.select (Active.Random (Prng.Rng.create 9)) solver in
  Alcotest.(check bool) "selects an unlabeled vertex" true
    (Array.exists (fun u -> u = v) (Inc.remaining solver))

let prop_active_reveals_improve_fit seed =
  (* revealing true labels never leaves the solver unable to predict;
     scores stay within [0,1] for 0/1 labels (maximum principle) *)
  let rng = Prng.Rng.create seed in
  let problem, _ = random_problem rng 4 8 in
  let solver = Inc.create problem in
  let oracle _ = if Prng.Rng.bool rng then 1. else 0. in
  ignore (Active.run Active.Density_weighted ~oracle ~budget:5 solver);
  Array.for_all
    (fun (_, s) -> s >= -1e-8 && s <= 1. +. 1e-8)
    (Inc.predict solver)

(* ---------- CSV ---------- *)

let test_csv_parse_simple () =
  let rows = Csv.parse "a,b,c\n1,2,3\n" in
  Alcotest.(check (list (list string))) "rows"
    [ [ "a"; "b"; "c" ]; [ "1"; "2"; "3" ] ]
    rows

let test_csv_parse_quoted () =
  let rows = Csv.parse "\"a,b\",\"say \"\"hi\"\"\",plain\r\nx,y,z" in
  Alcotest.(check (list (list string))) "quoted fields"
    [ [ "a,b"; "say \"hi\""; "plain" ]; [ "x"; "y"; "z" ] ]
    rows

let test_csv_parse_embedded_newline () =
  let rows = Csv.parse "\"line1\nline2\",b\n" in
  Alcotest.(check (list (list string))) "newline in quotes"
    [ [ "line1\nline2"; "b" ] ]
    rows

let test_csv_unclosed_quote () =
  match Csv.parse "\"oops" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure"

let prop_csv_roundtrip seed =
  let rng = Prng.Rng.create seed in
  let n_rows = 1 + Prng.Rng.int rng 6 and n_cols = 1 + Prng.Rng.int rng 5 in
  let tricky = [| "plain"; "with,comma"; "with\"quote"; "with\nnewline"; ""; "  spaced  " |] in
  let rows =
    List.init n_rows (fun _ ->
        List.init n_cols (fun _ -> Prng.Rng.choose rng tricky))
  in
  Csv.parse (Csv.render rows) = rows

let test_csv_numeric () =
  let data =
    Csv.parse_numeric "x0,x1,label\n1,2,1\n3,4,\n5.5,-6,0\n"
  in
  Alcotest.(check int) "3 rows" 3 (Array.length data.Csv.features);
  check_vec "features" [| 3.; 4. |] data.Csv.features.(1);
  Alcotest.(check bool) "row 1 labeled" true (data.Csv.labels.(0) = Some 1.);
  Alcotest.(check bool) "row 2 unlabeled" true (data.Csv.labels.(1) = None);
  (match Csv.parse_numeric "a\nnot_a_number\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on non-numeric")

let test_csv_numeric_roundtrip () =
  let points = [| [| 1.5; 2.5 |]; [| -3.; 4. |] |] in
  let labels = [| Some 1.; None |] in
  let text = Csv.render_points ~labels points in
  let data = Csv.parse_numeric text in
  Alcotest.(check int) "rows" 2 (Array.length data.Csv.features);
  check_vec "point 0" points.(0) data.Csv.features.(0);
  check_vec "point 1" points.(1) data.Csv.features.(1);
  Alcotest.(check bool) "labels roundtrip" true (data.Csv.labels = labels)

let test_csv_file_io () =
  let path = Filename.temp_file "gssl_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file path [ [ "a"; "b" ]; [ "1"; "2" ] ];
      Alcotest.(check (list (list string))) "file roundtrip"
        [ [ "a"; "b" ]; [ "1"; "2" ] ]
        (Csv.read_file path))

(* ---------- SVG ---------- *)

let fixture_figure =
  {
    Experiment.Sweep.title = "t <svg>";
    xlabel = "x";
    ylabel = "y";
    series =
      [
        {
          Experiment.Sweep.label = "a & b";
          xs = [| 1.; 2.; 3. |];
          means = [| 1.; 4.; 2. |];
          stderrs = [| 0.1; 0.; 0.2 |];
        };
      ];
  }

let test_svg_render () =
  let svg = Experiment.Svg_plot.render fixture_figure in
  Alcotest.(check bool) "is svg" true (Astring.String.is_prefix ~affix:"<svg" svg);
  Alcotest.(check bool) "escapes title" true
    (Astring.String.is_infix ~affix:"t &lt;svg&gt;" svg);
  Alcotest.(check bool) "escapes legend" true
    (Astring.String.is_infix ~affix:"a &amp; b" svg);
  Alcotest.(check bool) "has polyline" true
    (Astring.String.is_infix ~affix:"polyline" svg);
  check_raises_invalid "bad dims" (fun () ->
      ignore (Experiment.Svg_plot.render ~width:0 fixture_figure))

let test_svg_empty () =
  let empty = { fixture_figure with Experiment.Sweep.series = [] } in
  Alcotest.(check bool) "no data note" true
    (Astring.String.is_infix ~affix:"no data" (Experiment.Svg_plot.render empty))

let test_svg_file () =
  let path = Filename.temp_file "gssl_svg" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Experiment.Svg_plot.write_file path fixture_figure;
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) "file starts with svg" true
        (Astring.String.is_prefix ~affix:"<svg" line))

(* ---------- ablations (smoke + shape) ---------- *)

let test_ablation_kernel_shape () =
  let fig = Experiment.Ablations.kernel_study ~reps:2 ~seed:71 ~ns:[ 40; 150 ] () in
  Alcotest.(check int) "four kernels" 4 (List.length fig.Experiment.Sweep.series);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Experiment.Sweep.label ^ " finite")
        true
        (Array.for_all Float.is_finite s.Experiment.Sweep.means))
    fig.Experiment.Sweep.series

let test_ablation_regime_shape () =
  let fig = Experiment.Ablations.regime_study ~reps:2 ~seed:72 ~total:400 () in
  (* hard uniformly best across the regime sweep *)
  Alcotest.(check bool) "hard best" true (Experiment.Report.first_series_best fig)

let test_ablation_cv_shape () =
  let fig = Experiment.Ablations.cv_study ~reps:2 ~seed:73 ~ns:[ 40; 80 ] () in
  (* cv-tuned can never beat hard by more than noise; check it's close *)
  match fig.Experiment.Sweep.series with
  | [ hard; tuned; worst ] ->
      Array.iteri
        (fun i h ->
          Alcotest.(check bool) "tuned >= hard - eps" true
            (tuned.Experiment.Sweep.means.(i) >= h -. 1e-9);
          Alcotest.(check bool) "worst >= tuned" true
            (worst.Experiment.Sweep.means.(i)
             >= tuned.Experiment.Sweep.means.(i) -. 0.02))
        hard.Experiment.Sweep.means
  | _ -> Alcotest.fail "expected 3 series"

let test_ablation_nystrom_shape () =
  let fig =
    Experiment.Ablations.nystrom_study ~seed:74 ~n:60 ~landmark_counts:[ 5; 20; 60 ] ()
  in
  match fig.Experiment.Sweep.series with
  | [ matrix_err; _ ] ->
      let e = matrix_err.Experiment.Sweep.means in
      Alcotest.(check bool) "error shrinks to ~0" true (e.(2) < 1e-6);
      Alcotest.(check bool) "more landmarks better" true (e.(2) <= e.(0) +. 1e-9)
  | _ -> Alcotest.fail "expected 2 series"

let test_ablation_active_shape () =
  let fig = Experiment.Ablations.active_study ~reps:2 ~seed:75 ~budgets:[ 0; 30 ] () in
  Alcotest.(check int) "three strategies" 3 (List.length fig.Experiment.Sweep.series);
  (* all strategies share the budget-0 starting point *)
  let starts =
    List.map (fun s -> s.Experiment.Sweep.means.(0)) fig.Experiment.Sweep.series
  in
  (match starts with
  | a :: rest -> List.iter (fun b -> check_float ~tol:1e-9 "same start" a b) rest
  | [] -> Alcotest.fail "no series");
  (* labeling 30 of 150 pool points should help every strategy *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Experiment.Sweep.label ^ " improves")
        true
        (s.Experiment.Sweep.means.(1) < s.Experiment.Sweep.means.(0) +. 0.02))
    fig.Experiment.Sweep.series

let suite =
  ( "features",
    [
      case "incremental: initial = hard" test_incremental_initial_matches_hard;
      qprop ~count:50 "incremental: matches refit" prop_incremental_matches_refit;
      case "incremental: bookkeeping" test_incremental_bookkeeping;
      case "active: uncertainty pick" test_active_selects_uncertain;
      case "active: budget semantics" test_active_run_budget;
      case "active: random strategy" test_active_random_strategy;
      qprop ~count:30 "active: scores stay in [0,1]" prop_active_reveals_improve_fit;
      case "csv: simple parse" test_csv_parse_simple;
      case "csv: quoting" test_csv_parse_quoted;
      case "csv: embedded newline" test_csv_parse_embedded_newline;
      case "csv: unclosed quote" test_csv_unclosed_quote;
      qprop "csv: render/parse roundtrip" prop_csv_roundtrip;
      case "csv: numeric parsing" test_csv_numeric;
      case "csv: numeric roundtrip" test_csv_numeric_roundtrip;
      case "csv: file io" test_csv_file_io;
      case "svg: render & escape" test_svg_render;
      case "svg: empty figure" test_svg_empty;
      case "svg: file output" test_svg_file;
      case "ablation: kernel study" test_ablation_kernel_shape;
      case "ablation: regime study" test_ablation_regime_shape;
      case "ablation: cv study" test_ablation_cv_shape;
      case "ablation: nystrom study" test_ablation_nystrom_shape;
      case "ablation: active study" test_ablation_active_shape;
    ] )
