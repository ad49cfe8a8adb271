(* The serial/parallel dispatch rule, the fused Laplacian solvers and
   the speedup-contract gate:

   1. Parallel.Dispatch keeps the thresholds the kernels have always
      used, keeps degenerate calls serial and logs every decision on the
      parallel.tune.* counters; Jacobi, which no longer dispatches,
      recovers a known spectrum at the size that used to go parallel;
   2. the fused stationary and CG solvers agree with solves on the
      assembled matrix and with the dense Hard solve;
   3. Obs.Bench_compare fails reports whose recorded speedups dip below
      the floor or collapse versus the committed baseline, on the same
      file-pair path compare.exe drives.

   The bit-identity properties of the pooled kernels live in
   test_parallel.ml. *)

open Test_util
module Export = Telemetry.Export
module Bc = Obs.Bench_compare
module Csr = Sparse.Csr
module Wg = Graph.Weighted_graph
module Dispatch = Parallel.Dispatch

let with_temp_file f =
  let path = Filename.temp_file "gssl_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- 1. the dispatch rule ------------------------------------------- *)

(* Every kernel with the work at which it goes parallel: the thresholds
   the kernels used before the rule was fixed. *)
let thresholds =
  [
    (Dispatch.Gemm, 1 lsl 16); (Dispatch.Gemv, 1 lsl 15);
    (Dispatch.Spmv, 1 lsl 12); (Dispatch.Pairwise, 4096);
  ]

let check_decisions k calls =
  List.iter
    (fun (work, rows, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s work=%d rows=%d" (Dispatch.kernel_name k) work
           rows)
        expected
        (Dispatch.decide k ~work ~rows))
    calls

let test_static_thresholds () =
  List.iter
    (fun (k, t) ->
      Alcotest.(check int)
        (Dispatch.kernel_name k ^ " threshold")
        t (Dispatch.threshold k);
      check_decisions k [ (t - 1, 2, false); (t, 2, true) ])
    thresholds

let test_degenerate_inputs_stay_serial () =
  List.iter
    (fun (k, t) ->
      check_decisions k
        [ (t, 1, false); (1 lsl 30, 0, false); (0, 100, false);
          (-5, 100, false) ])
    thresholds

let test_decision_log_counters () =
  Telemetry.Registry.with_enabled (fun () ->
      List.iter
        (fun (k, t) ->
          let name = Dispatch.kernel_name k in
          let s0 = dispatch_decisions k "serial"
          and p0 = dispatch_decisions k "parallel" in
          ignore (Dispatch.decide k ~work:(t - 1) ~rows:2);
          ignore (Dispatch.decide k ~work:t ~rows:2);
          ignore (Dispatch.decide k ~work:(2 * t) ~rows:2);
          Alcotest.(check int)
            (name ^ ": serial decisions logged")
            (s0 + 1)
            (dispatch_decisions k "serial");
          Alcotest.(check int)
            (name ^ ": parallel decisions logged")
            (p0 + 2)
            (dispatch_decisions k "parallel"))
        thresholds)

(* Jacobi is cyclic at every size.  At n = 192, where a tournament
   ordering used to take over, the default call must recover the known
   spectrum of the second-difference matrix tridiag(-1, 2, -1):
   2 - 2 cos (k pi / (n + 1)), k = 1..n, ascending. *)
let test_jacobi_modes_agree () =
  let n = 192 in
  let m =
    Mat.init n n (fun i j ->
        if i = j then 2. else if abs (i - j) = 1 then -1. else 0.)
  in
  let expected =
    Array.init n (fun k ->
        2. -. (2. *. cos (float_of_int (k + 1) *. Float.pi /. float_of_int (n + 1))))
  in
  check_vec ~tol:1e-8 "second-difference spectrum" expected
    (Linalg.Eigen.jacobi m).Linalg.Eigen.values

(* --- 2. fused solvers ----------------------------------------------- *)

let solve_lap_matches_assembled =
  qprop ~count:12 "Stationary.solve_lap tracks solve on the assembled matrix"
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let n = 2 + Prng.Rng.int rng 18 in
      let w = random_weights rng n in
      (* deg > row sum makes diag(deg) - W strictly diagonally dominant *)
      let deg =
        Array.init n (fun i ->
            let acc = ref 0. in
            for j = 0 to n - 1 do
              acc := !acc +. w.Mat.data.((i * n) + j)
            done;
            !acc +. 0.5 +. Prng.Rng.float rng)
      in
      let a =
        Csr.of_dense
          (Mat.init n n (fun i j ->
               if i = j then deg.(i) else -.w.Mat.data.((i * n) + j)))
      in
      let w_csr = Csr.of_dense w in
      let b = random_vec rng n in
      List.iter
        (fun (tag, m) ->
          let o1 = Sparse.Stationary.solve m a b in
          let o2 = Sparse.Stationary.solve_lap m ~w:w_csr ~deg b in
          if not (o1.Sparse.Stationary.converged && o2.Sparse.Stationary.converged)
          then Alcotest.failf "%s: dominant system must converge" tag;
          (* the sweeps are bit-identical; only the residual's summation
             order differs, so equal iteration counts force equal bits *)
          if o1.Sparse.Stationary.iterations = o2.Sparse.Stationary.iterations
          then begin
            if o1.Sparse.Stationary.solution <> o2.Sparse.Stationary.solution
            then Alcotest.failf "%s: same iterations, different bits" tag
          end
          else
            check_vec ~tol:1e-7 (tag ^ ": solutions agree")
              o1.Sparse.Stationary.solution o2.Sparse.Stationary.solution)
        [
          ("jacobi", Sparse.Stationary.Jacobi);
          ("gauss-seidel", Sparse.Stationary.Gauss_seidel);
          ("sor(1.3)", Sparse.Stationary.Sor 1.3);
        ];
      true)

let scalable_fused_matches_hard =
  qprop ~count:8 "Scalable fused solvers agree with the dense Hard solve"
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let n = 4 + Prng.Rng.int rng 16 in
      (* ring + random chords: connected, so no unanchored component *)
      let data = Array.make (n * n) 0. in
      for i = 0 to n - 1 do
        let j = (i + 1) mod n in
        let v = Prng.Rng.uniform rng 0.5 2. in
        data.((i * n) + j) <- v;
        data.((j * n) + i) <- v
      done;
      for _ = 1 to n do
        let i = Prng.Rng.int rng n and j = Prng.Rng.int rng n in
        if i <> j then begin
          let v = Prng.Rng.uniform rng 0.1 1. in
          data.((i * n) + j) <- v;
          data.((j * n) + i) <- v
        end
      done;
      let w = Mat.init n n (fun i j -> data.((i * n) + j)) in
      let l = 1 + Prng.Rng.int rng (n - 1) in
      let labels = Array.init l (fun _ -> if Prng.Rng.bool rng then 1. else 0.) in
      let p = Gssl.Problem.make ~graph:(Wg.of_dense w) ~labels in
      let dense = Gssl.Hard.solve p in
      let cg = Gssl.Scalable.solve_hard ~tol:1e-12 p in
      check_vec ~tol:1e-6 "CG via lap_mv = dense Hard" dense cg;
      let gs =
        Gssl.Scalable.solve_stationary ~tol:1e-12
          Sparse.Stationary.Gauss_seidel p
      in
      check_vec ~tol:1e-6 "Gauss-Seidel via solve_lap = dense Hard" dense gs;
      true)

(* --- 3. the speedup-contract gate ----------------------------------- *)

let report ?speedups phases =
  let p =
    phases
    |> List.map (fun (n, ms) ->
           Printf.sprintf "{\"name\":%S,\"wall_ms\":%g}" n ms)
    |> String.concat ","
  in
  let s =
    match speedups with
    | None -> ""
    | Some kvs ->
        Printf.sprintf ",\"speedup\":{%s}"
          (kvs
          |> List.map (fun (k, x) -> Printf.sprintf "%S:%g" k x)
          |> String.concat ",")
  in
  Export.parse (Printf.sprintf "{\"phases\":[%s]%s}" p s)

(* The same conjunction compare.exe exits on, driven through actual
   report files like the CLI does. *)
let gate_on_files baseline current =
  with_temp_file (fun bpath ->
      with_temp_file (fun cpath ->
          let write path json =
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Export.render json))
          in
          write bpath baseline;
          write cpath current;
          let read path =
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                Export.parse (really_input_string ic (in_channel_length ic)))
          in
          let baseline = read bpath and current = read cpath in
          Bc.ok (Bc.compare_reports ~baseline ~current ())
          && Bc.speedups_ok (Bc.compare_speedups ~baseline ~current ())))

let base_speedups = [ ("gemm", 1.0); ("spmv", 1.02); ("lambda_path", 4.0) ]

let test_gate_clean_pass () =
  let baseline =
    report ~speedups:base_speedups [ ("gemm", 10.); ("spmv", 5.) ]
  in
  let current =
    report
      ~speedups:[ ("gemm", 1.0); ("spmv", 1.0); ("lambda_path", 3.1) ]
      [ ("gemm", 12.); ("spmv", 4.) ]
  in
  if not (gate_on_files baseline current) then
    Alcotest.fail "a clean pair must pass the gate"

let test_gate_wall_regression_fails () =
  let baseline =
    report ~speedups:base_speedups [ ("gemm", 10.); ("spmv", 5.) ]
  in
  let current =
    (* speedups fine, but gemm wall time blew past the 3x threshold *)
    report ~speedups:base_speedups [ ("gemm", 100.); ("spmv", 5.) ]
  in
  if gate_on_files baseline current then
    Alcotest.fail "a 10x wall regression must fail the gate";
  let verdicts =
    Bc.compare_reports ~baseline ~current ()
    |> List.filter (fun v -> v.Bc.regressed)
  in
  Alcotest.(check (list string))
    "exactly the regressed phase is reported" [ "gemm" ]
    (List.map (fun v -> v.Bc.name) verdicts)

let test_gate_speedup_below_floor_fails () =
  let baseline = report ~speedups:base_speedups [ ("gemm", 10.) ] in
  let current =
    report
      ~speedups:[ ("gemm", 0.80); ("spmv", 1.0); ("lambda_path", 4.0) ]
      [ ("gemm", 10.) ]
  in
  if gate_on_files baseline current then
    Alcotest.fail "a 0.80x kernel speedup must fail the contract";
  let v =
    Bc.compare_speedups ~baseline ~current ()
    |> List.find (fun v -> v.Bc.kernel = "gemm")
  in
  if not v.Bc.speedup_regressed then Alcotest.fail "gemm must be flagged";
  if not (String.length v.Bc.reason > 0 && v.Bc.reason.[0] = '0') then
    Alcotest.failf "unexpected reason %S" v.Bc.reason

let test_gate_speedup_collapse_fails () =
  let baseline = report ~speedups:base_speedups [ ("gemm", 10.) ] in
  let current =
    (* 1.2x clears the 0.95 floor but collapses from a 4.0x baseline *)
    report
      ~speedups:[ ("gemm", 1.0); ("spmv", 1.0); ("lambda_path", 1.2) ]
      [ ("gemm", 10.) ]
  in
  if gate_on_files baseline current then
    Alcotest.fail "a collapsed lambda_path speedup must fail the gate";
  let v =
    Bc.compare_speedups ~baseline ~current ()
    |> List.find (fun v -> v.Bc.kernel = "lambda_path")
  in
  Alcotest.(check string)
    "collapse reason" "1.20x collapsed from baseline 4.00x" v.Bc.reason

let test_gate_missing_and_new_entries () =
  let baseline = report ~speedups:base_speedups [ ("gemm", 10.) ] in
  let dropped =
    report ~speedups:[ ("gemm", 1.0); ("spmv", 1.0) ] [ ("gemm", 10.) ]
  in
  if gate_on_files baseline dropped then
    Alcotest.fail "a silently dropped speedup entry must fail the gate";
  let v =
    Bc.compare_speedups ~baseline ~current:dropped ()
    |> List.find (fun v -> v.Bc.kernel = "lambda_path")
  in
  Alcotest.(check string)
    "missing reason" "missing from current report" v.Bc.reason;
  (* new entries: gated by the floor only *)
  let with_new ratio =
    report
      ~speedups:(base_speedups @ [ ("pairwise", ratio) ])
      [ ("gemm", 10.) ]
  in
  if not (gate_on_files baseline (with_new 1.0)) then
    Alcotest.fail "a healthy new entry must pass";
  if gate_on_files baseline (with_new 0.5) then
    Alcotest.fail "a new entry below the floor must fail"

let test_gate_malformed_and_bad_args () =
  let baseline = report ~speedups:base_speedups [ ("gemm", 10.) ] in
  let expect_malformed label current =
    match Bc.compare_speedups ~baseline ~current () with
    | exception Bc.Malformed _ -> ()
    | _ -> Alcotest.failf "%s must raise Malformed" label
  in
  expect_malformed "non-object speedup"
    (Export.parse "{\"phases\":[],\"speedup\":[1,2]}");
  expect_malformed "non-numeric entry"
    (Export.parse "{\"phases\":[],\"speedup\":{\"gemm\":\"fast\"}}");
  expect_malformed "negative entry"
    (Export.parse "{\"phases\":[],\"speedup\":{\"gemm\":-1}}");
  (* a report without a speedup object has nothing to gate *)
  Alcotest.(check int) "no speedup object -> no entries" 0
    (List.length (Bc.speedups_of_report (report [ ("gemm", 1.) ])));
  check_raises_invalid "negative floor" (fun () ->
      Bc.compare_speedups ~floor:(-0.1) ~baseline ~current:baseline ());
  check_raises_invalid "slack above 1" (fun () ->
      Bc.compare_speedups ~slack:1.5 ~baseline ~current:baseline ())

let test_gate_golden_text () =
  let baseline = report ~speedups:[ ("gemm", 2.0) ] [ ("gemm", 10.) ] in
  let current = report ~speedups:[ ("gemm", 0.5) ] [ ("gemm", 10.) ] in
  let got =
    Bc.speedups_to_text (Bc.compare_speedups ~baseline ~current ())
  in
  let expected =
    "speedup contract (floor 0.95x):\n\
    \  gemm                         base  2.00x  cur  0.50x  REGRESSED: \
     0.50x is below the 0.95x contract floor\n\
     FAIL: speedup contract violated\n"
  in
  Alcotest.(check string) "rendered verdict" expected got

let suite =
  ( "autotune",
    [
      (* the rule was once one of several dispatch modes; these four
         names keep the wording they were first registered under *)
      case "static mode reproduces the legacy thresholds"
        test_static_thresholds;
      case "degenerate inputs stay serial in every mode"
        test_degenerate_inputs_stay_serial;
      case "decisions are logged to parallel.tune counters"
        test_decision_log_counters;
      case "jacobi spectra agree across dispatch modes"
        test_jacobi_modes_agree;
      solve_lap_matches_assembled;
      scalable_fused_matches_hard;
      case "gate: clean pair passes" test_gate_clean_pass;
      case "gate: wall-time regression fails" test_gate_wall_regression_fails;
      case "gate: speedup below the floor fails"
        test_gate_speedup_below_floor_fails;
      case "gate: speedup collapse vs baseline fails"
        test_gate_speedup_collapse_fails;
      case "gate: missing and new speedup entries"
        test_gate_missing_and_new_entries;
      case "gate: malformed reports and bad arguments"
        test_gate_malformed_and_bad_args;
      case "gate: golden rendered verdict" test_gate_golden_text;
    ] )
