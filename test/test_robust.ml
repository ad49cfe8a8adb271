(* Robustness layer: Check diagnostics, Solve fallback chains, Fault
   injection, and the Resilient front-end.

   The qcheck harness is the heart: any two-cluster problem poisoned with
   any single fault class must still produce finite predictions without
   raising, and the report's diagnostics must name the injected fault
   class (each Fault constructor guarantees a detectable signature — see
   fault.mli). *)

open Test_util
module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Wg = Graph.Weighted_graph
module Check = Robust.Check
module Rsolve = Robust.Solve
module Fault = Robust.Fault
module Resilient = Gssl.Resilient

(* ------------------------------------------------------------------ *)
(* fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* Two well-separated RBF clusters, labeled 0 / 1, three labeled and
   three unlabeled points per cluster (n = 6, m = 6).  With bandwidth 1
   the inter-cluster weights are ~exp(-50), so sparsifying at 1e-6
   yields exactly two anchored components. *)
let two_cluster rng =
  let point cx cy () =
    [|
      cx +. Prng.Rng.uniform rng (-0.5) 0.5;
      cy +. Prng.Rng.uniform rng (-0.5) 0.5;
    |]
  in
  let mk cx cy k = Array.init k (fun _ -> point cx cy ()) in
  let points =
    Array.concat [ mk 0. 0. 3; mk 5. 5. 3; mk 0. 0. 3; mk 5. 5. 3 ]
  in
  let labels = Array.init 6 (fun i -> if i < 3 then 0. else 1.) in
  let w =
    Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.0 points
  in
  (w, labels)

let sparse_graph_of w = Wg.of_sparse (Sparse.Csr.of_dense ~threshold:1e-6 w)

(* A report's (component, rung) pairs, in solve order. *)
let rungs (r : Resilient.report) =
  List.map
    (fun (c, (cert : Obs.Health.t)) -> (c, cert.Obs.Health.rung))
    r.Resilient.certificates

(* Block-diagonal 5-vertex path graphs: component {0,1,2} anchored by the
   two labels, component {3,4} unanchored. *)
let unanchored_problem storage =
  let edge i j a b = (i = a && j = b) || (i = b && j = a) in
  let w =
    Mat.init 5 5 (fun i j ->
        if edge i j 0 1 || edge i j 1 2 || edge i j 3 4 then 1. else 0.)
  in
  let graph =
    match storage with
    | `Dense -> Wg.of_dense w
    | `Sparse -> Wg.of_sparse (Sparse.Csr.of_dense w)
  in
  Gssl.Problem.make ~graph ~labels:[| 0.; 1. |]

let fallback_counters =
  [
    "robust.fallback.dense_qr"; "robust.fallback.dense_ridge";
    "robust.fallback.cg_restart"; "robust.fallback.gauss_seidel";
    "robust.fallback.dense_direct";
  ]

let with_fresh_telemetry f =
  Telemetry.Registry.reset ();
  let out = Telemetry.Registry.with_enabled f in
  let counters =
    List.map (fun name -> (name, Telemetry.Counter.get name)) fallback_counters
  in
  Telemetry.Registry.reset ();
  (out, counters)

let csr_of_dense_list rows = Sparse.Csr.of_dense (Mat.of_rows rows)

(* ------------------------------------------------------------------ *)
(* Check.scan                                                          *)
(* ------------------------------------------------------------------ *)

let test_scan_weight_faults () =
  let w =
    Mat.of_rows
      [| [| 0.5; Float.nan; 0. |]; [| Float.nan; 0.; -0.25 |]; [| 0.; -0.25; 0. |] |]
  in
  let ds = Check.scan (Wg.of_dense_unchecked w) [| 1. |] in
  let count cls =
    List.length (List.filter (fun d -> Check.class_name d = cls) ds)
  in
  Alcotest.(check int) "one nan weight" 1 (count "non-finite-weight");
  Alcotest.(check int) "one negative weight" 1 (count "negative-weight");
  Alcotest.(check int) "one self-loop" 1 (count "self-loop");
  List.iter
    (fun d ->
      match d with
      | Check.Self_loop _ ->
          Alcotest.(check bool) "self-loop is Info" true
            (Check.severity d = Check.Info)
      | _ -> ())
    ds

let test_scan_labels_and_anchoring () =
  let p = unanchored_problem `Dense in
  let g = p.Gssl.Problem.graph in
  let ds = Check.scan g [| 0.; Float.nan |] in
  let names = List.map Check.class_name ds in
  Alcotest.(check bool) "nan label flagged" true
    (List.mem "non-finite-label" names);
  let unanchored =
    List.filter_map
      (function Check.Unanchored_vertex { vertex } -> Some vertex | _ -> None)
      ds
  in
  Alcotest.(check (list int)) "vertices 3 and 4 unanchored" [ 3; 4 ]
    (List.sort compare unanchored)

let test_scan_clean_graph_no_errors () =
  let w, labels = two_cluster (Prng.Rng.create 7) in
  let ds = Check.scan (Wg.of_dense w) labels in
  List.iter
    (fun d ->
      if Check.severity d = Check.Error then
        Alcotest.failf "clean problem produced an error diagnostic: %s"
          (Check.describe d))
    ds

let test_scan_flags_flipped_label () =
  let w, labels = two_cluster (Prng.Rng.create 11) in
  labels.(0) <- 1.;
  (* cluster-A label flipped into cluster B's class *)
  let ds = Check.scan ~suspect_threshold:0.5 (Wg.of_dense w) labels in
  let suspects =
    List.filter_map
      (function Check.Suspect_label { index; _ } -> Some index | _ -> None)
      ds
  in
  Alcotest.(check bool) "flipped label 0 is suspect" true (List.mem 0 suspects)

(* ------------------------------------------------------------------ *)
(* input validation satellites                                         *)
(* ------------------------------------------------------------------ *)

let test_problem_rejects_nonfinite_label () =
  let w, labels = two_cluster (Prng.Rng.create 13) in
  let graph = Wg.of_dense w in
  labels.(2) <- Float.nan;
  check_raises_invalid "nan label" (fun () ->
      Gssl.Problem.make ~graph ~labels);
  labels.(2) <- Float.infinity;
  check_raises_invalid "infinite label" (fun () ->
      Gssl.Problem.make ~graph ~labels);
  (* the escape hatch for the fault harness still works *)
  ignore (Gssl.Problem.make_unchecked ~graph ~labels)

let test_graph_rejects_bad_weights () =
  let nan_w =
    Mat.of_rows [| [| 0.; Float.nan |]; [| Float.nan; 0. |] |]
  in
  check_raises_invalid "nan weight" (fun () -> Wg.of_dense nan_w);
  let neg_w = Mat.of_rows [| [| 0.; -1. |]; [| -1.; 0. |] |] in
  check_raises_invalid "negative weight" (fun () -> Wg.of_dense neg_w);
  ignore (Wg.of_dense_unchecked nan_w)

(* ------------------------------------------------------------------ *)
(* Cg breakdown reporting                                              *)
(* ------------------------------------------------------------------ *)

let test_cg_breakdown_field () =
  let a = csr_of_dense_list [| [| -1.; 0. |]; [| 0.; -2. |] |] in
  let out = Sparse.Cg.solve (Sparse.Linop.of_csr a) [| 1.; 1. |] in
  Alcotest.(check bool) "breakdown" true out.Sparse.Cg.breakdown;
  Alcotest.(check bool) "not converged" false out.Sparse.Cg.converged;
  (* a merely capped SPD solve is NOT a breakdown *)
  let spd = csr_of_dense_list [| [| 4.; 1. |]; [| 1.; 3. |] |] in
  let out =
    Sparse.Cg.solve ~max_iter:1 ~tol:1e-14 (Sparse.Linop.of_csr spd) [| 1.; 2. |]
  in
  Alcotest.(check bool) "capped, no breakdown" false out.Sparse.Cg.breakdown;
  Alcotest.(check int) "actual iteration count kept" 1 out.Sparse.Cg.iterations

let failure_message f =
  match f () with
  | exception Failure msg -> msg
  | _ -> Alcotest.fail "expected Failure"

let contains ~needle hay = Astring.String.is_infix ~affix:needle hay

let test_cg_solve_exn_messages () =
  let indefinite = csr_of_dense_list [| [| -1.; 0. |]; [| 0.; -2. |] |] in
  let msg =
    failure_message (fun () ->
        Sparse.Cg.solve_exn (Sparse.Linop.of_csr indefinite) [| 1.; 1. |])
  in
  Alcotest.(check bool) "names the breakdown" true
    (contains ~needle:"non-SPD breakdown" msg);
  Alcotest.(check bool) "reports the dimension" true
    (contains ~needle:"2x2 system" msg);
  let spd = csr_of_dense_list [| [| 4.; 1. |]; [| 1.; 3. |] |] in
  let msg =
    failure_message (fun () ->
        Sparse.Cg.solve_exn ~max_iter:1 ~tol:1e-14 (Sparse.Linop.of_csr spd)
          [| 1.; 2. |])
  in
  Alcotest.(check bool) "plain non-convergence" true
    (contains ~needle:"no convergence" msg);
  Alcotest.(check bool) "reports iterations" true
    (contains ~needle:"after 1 iteration" msg);
  Alcotest.(check bool) "reports the residual" true
    (contains ~needle:"final residual" msg)

(* ------------------------------------------------------------------ *)
(* Solve fallback chains                                               *)
(* ------------------------------------------------------------------ *)

let test_dense_chain_clean_stays_on_cholesky () =
  let a = Mat.of_rows [| [| 4.; 1. |]; [| 1.; 3. |] |] in
  let out, counters =
    with_fresh_telemetry (fun () -> Rsolve.solve_dense a [| 1.; 2. |])
  in
  Alcotest.(check string) "first rung" "cholesky" out.Rsolve.rung;
  Alcotest.(check int) "no escalations" 0 (List.length out.Rsolve.escalations);
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) (name ^ " untouched") 0 v)
    counters;
  check_vec ~tol:1e-10 "solution"
    (Linalg.Lu.solve a [| 1.; 2. |])
    out.Rsolve.solution

let test_dense_chain_indefinite_escalates_to_qr () =
  let a = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let out = Rsolve.solve_dense a [| 1.; 1. |] in
  Alcotest.(check string) "qr rung" "qr" out.Rsolve.rung;
  Alcotest.(check bool) "cholesky abandoned" true
    (List.exists
       (fun { Rsolve.abandoned; _ } -> abandoned = "cholesky")
       out.Rsolve.escalations);
  check_vec ~tol:1e-10 "swap solve" [| 1.; 1. |] out.Rsolve.solution

let test_dense_chain_singular_is_total () =
  let a = Mat.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let out = Rsolve.solve_dense a [| 1.; 1. |] in
  Alcotest.(check bool) "escalated past cholesky" true
    (out.Rsolve.escalations <> []);
  Alcotest.(check bool) "finite output" true
    (Array.for_all Float.is_finite out.Rsolve.solution)

let test_sparse_chain_clean_stays_on_cg () =
  let a = csr_of_dense_list [| [| 2.; 0. |]; [| 0.; 3. |] |] in
  let out, counters =
    with_fresh_telemetry (fun () -> Rsolve.solve_sparse a [| 2.; 3. |])
  in
  Alcotest.(check string) "first rung" "cg" out.Rsolve.rung;
  List.iter (fun (name, v) -> Alcotest.(check int) (name ^ " untouched") 0 v) counters;
  check_vec ~tol:1e-8 "solution" [| 1.; 1. |] out.Rsolve.solution

let test_sparse_chain_breakdown_goes_to_gauss_seidel () =
  let a = csr_of_dense_list [| [| -1.; 0. |]; [| 0.; -2. |] |] in
  let out = Rsolve.solve_sparse a [| 1.; 1. |] in
  Alcotest.(check string) "gauss-seidel rung" "gauss_seidel" out.Rsolve.rung;
  Alcotest.(check bool) "cg breakdown recorded" true
    (List.exists
       (fun { Rsolve.abandoned; _ } -> abandoned = "cg")
       out.Rsolve.escalations);
  check_vec ~tol:1e-10 "diagonal solve" [| -1.; -0.5 |] out.Rsolve.solution

let test_sparse_chain_capped_escalates () =
  let a =
    csr_of_dense_list
      [| [| 3.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 3. |] |]
  in
  let out, counters =
    with_fresh_telemetry (fun () ->
        Rsolve.solve_sparse ~cg_max_iter:1 a [| 1.; 2.; 3. |])
  in
  Alcotest.(check bool) "left the first rung" true
    (out.Rsolve.rung <> "cg");
  Alcotest.(check bool) "escalations recorded" true (out.Rsolve.escalations <> []);
  Alcotest.(check bool) "some fallback counter fired" true
    (List.exists (fun (_, v) -> v > 0) counters);
  Alcotest.(check bool) "finite output" true
    (Array.for_all Float.is_finite out.Rsolve.solution)

(* ------------------------------------------------------------------ *)
(* Resilient: unanchored graphs (the four raisers vs the total path)   *)
(* ------------------------------------------------------------------ *)

let test_unanchored_raisers_consistent () =
  let dense = unanchored_problem `Dense in
  let sparse = unanchored_problem `Sparse in
  let expect_raise name f =
    match f () with
    | exception Gssl.Hard.Unanchored_unlabeled _ -> ()
    | _ -> Alcotest.failf "%s should raise Unanchored_unlabeled" name
  in
  expect_raise "Hard.solve" (fun () -> ignore (Gssl.Hard.solve dense));
  expect_raise "Scalable.solve_hard" (fun () -> ignore (Gssl.Scalable.solve_hard sparse));
  expect_raise "Incremental.create" (fun () ->
      ignore (Gssl.Incremental.create dense));
  expect_raise "Scalable.solve_stationary" (fun () ->
      ignore
        (Gssl.Scalable.solve_stationary Sparse.Stationary.Gauss_seidel sparse))

let test_resilient_imputes_unanchored () =
  List.iter
    (fun storage ->
      let p = unanchored_problem storage in
      let r = Resilient.solve_hard p in
      Alcotest.(check int) "two components" 2 r.Resilient.n_components;
      Alcotest.(check int) "one anchored" 1 r.Resilient.n_anchored;
      Alcotest.(check (list int)) "vertices 3,4 imputed" [ 3; 4 ]
        (List.sort compare (Array.to_list r.Resilient.imputed));
      (* vertex 2 hangs off label 1 (y = 1) only *)
      check_float ~tol:1e-9 "anchored prediction" 1. r.Resilient.predictions.(0);
      (* unanchored vertices get the labeled mean (Prop II.2's λ→∞ value) *)
      check_float ~tol:1e-9 "imputed value" 0.5 r.Resilient.predictions.(1);
      check_float ~tol:1e-9 "imputed value" 0.5 r.Resilient.predictions.(2);
      let imputed_diags =
        List.filter
          (function Check.Imputed_prediction _ -> true | _ -> false)
          r.Resilient.diagnostics
      in
      Alcotest.(check int) "imputation reported" 2 (List.length imputed_diags))
    [ `Dense; `Sparse ]

(* ------------------------------------------------------------------ *)
(* Resilient: clean problems are first-rung exact (regression)         *)
(* ------------------------------------------------------------------ *)

let test_resilient_clean_dense_matches_hard () =
  let w, labels = two_cluster (Prng.Rng.create 17) in
  let p = Gssl.Problem.make ~graph:(Wg.of_dense w) ~labels in
  let r, counters = with_fresh_telemetry (fun () -> Resilient.solve_hard p) in
  List.iter (fun (name, v) -> Alcotest.(check int) (name ^ " stays 0") 0 v) counters;
  Alcotest.(check (list (pair int string))) "single component, first rung"
    [ (0, "cholesky") ] (rungs r);
  Alcotest.(check int) "nothing imputed" 0 (Array.length r.Resilient.imputed);
  check_vec ~tol:1e-8 "matches Hard.solve" (Gssl.Hard.solve p)
    r.Resilient.predictions

let test_resilient_clean_sparse_matches_scalable () =
  let w, labels = two_cluster (Prng.Rng.create 19) in
  let p = Gssl.Problem.make ~graph:(sparse_graph_of w) ~labels in
  let r, counters = with_fresh_telemetry (fun () -> Resilient.solve_hard p) in
  List.iter (fun (name, v) -> Alcotest.(check int) (name ^ " stays 0") 0 v) counters;
  Alcotest.(check int) "two components" 2 r.Resilient.n_components;
  List.iter
    (fun (_, rung) -> Alcotest.(check string) "first sparse rung" "cg" rung)
    (rungs r);
  check_vec ~tol:1e-5 "matches Scalable.solve_hard" (Gssl.Scalable.solve_hard p)
    r.Resilient.predictions

let test_resilient_clean_soft_matches_soft () =
  let w, labels = two_cluster (Prng.Rng.create 23) in
  let p = Gssl.Problem.make ~graph:(Wg.of_dense w) ~labels in
  let r = Resilient.solve_soft ~lambda:0.5 p in
  check_vec ~tol:1e-8 "matches Soft.solve" (Gssl.Soft.solve ~lambda:0.5 p)
    r.Resilient.predictions;
  check_raises_invalid "lambda <= 0 rejected" (fun () ->
      Resilient.solve_soft ~lambda:0. p)

(* ------------------------------------------------------------------ *)
(* the qcheck fault-injection harness                                  *)
(* ------------------------------------------------------------------ *)

let sparse_fault_classes =
  [
    Fault.Weight_jitter { amplitude = 0.3 };
    Fault.Edge_drop { fraction = 0.2 };
    Fault.Label_flip { count = 1 };
    Fault.Nan_poison_weight { count = 2 };
    Fault.Nan_poison_label { count = 1 };
    Fault.Cg_cap { max_iter = 1 };
  ]

(* the dense chain has no CG, so an iteration cap cannot bite there *)
let dense_fault_classes =
  List.filter (function Fault.Cg_cap _ -> false | _ -> true) sparse_fault_classes

let check_fault_report ~seed ~fault which (r : Resilient.report) =
  if not (Array.for_all Float.is_finite r.Resilient.predictions) then
    QCheck.Test.fail_reportf "%s: non-finite prediction (seed %d, fault %s)"
      which seed (Fault.class_name fault);
  if not (List.exists (Fault.detects fault) r.Resilient.diagnostics) then
    QCheck.Test.fail_reportf "%s: fault %s left no diagnostic (seed %d)" which
      (Fault.class_name fault) seed

(* Seed [seed]'s two-cluster problem under the fault class it selects:
   (fault, problem, the CG iteration cap the fault imposes). *)
let fault_problem ~classes ~graph_of seed =
  let rng = Prng.Rng.create seed in
  let w, labels = two_cluster rng in
  let fault = List.nth classes (seed mod List.length classes) in
  let inj = Fault.inject rng ~n_labeled:6 [ fault ] (graph_of w) labels in
  ( fault,
    Gssl.Problem.make_unchecked ~graph:inj.Fault.graph ~labels:inj.Fault.labels,
    inj.Fault.cg_max_iter )

let prop_single_fault ~classes ~graph_of seed =
  let fault, p, cap = fault_problem ~classes ~graph_of seed in
  check_fault_report ~seed ~fault "solve_hard"
    (Resilient.solve_hard ~suspect_threshold:0.5 ?cg_max_iter:cap p);
  check_fault_report ~seed ~fault "solve_soft"
    (Resilient.solve_soft ~suspect_threshold:0.5 ?cg_max_iter:cap ~lambda:0.5 p);
  true

let prop_fault_sparse =
  prop_single_fault ~classes:sparse_fault_classes ~graph_of:sparse_graph_of

let prop_fault_dense =
  prop_single_fault ~classes:dense_fault_classes ~graph_of:Wg.of_dense

(* Degradation is monotone: more injected damage can only produce more
   diagnostics / more imputed vertices, never fewer (fault selection is
   prefix-stable in count and nested in fraction; see fault.mli). *)
let prop_monotone_nan_poison seed =
  let poisoned_count count =
    let rng = Prng.Rng.create seed in
    let w, labels = two_cluster rng in
    let inj =
      Fault.inject rng ~n_labeled:6
        [ Fault.Nan_poison_weight { count } ]
        (sparse_graph_of w) labels
    in
    let p =
      Gssl.Problem.make_unchecked ~graph:inj.Fault.graph ~labels:inj.Fault.labels
    in
    let r = Resilient.solve_hard p in
    List.length
      (List.filter
         (function Check.Non_finite_weight _ -> true | _ -> false)
         r.Resilient.diagnostics)
  in
  let c1 = poisoned_count 1 and c2 = poisoned_count 3 and c3 = poisoned_count 6 in
  c1 <= c2 && c2 <= c3

let prop_monotone_edge_drop seed =
  let imputed fraction =
    let rng = Prng.Rng.create seed in
    let w, labels = two_cluster rng in
    let inj =
      Fault.inject rng ~n_labeled:6
        [ Fault.Edge_drop { fraction } ]
        (sparse_graph_of w) labels
    in
    let p =
      Gssl.Problem.make_unchecked ~graph:inj.Fault.graph ~labels:inj.Fault.labels
    in
    Array.length (Resilient.solve_hard p).Resilient.imputed
  in
  let i1 = imputed 0.1 and i2 = imputed 0.4 and i3 = imputed 0.8 in
  i1 >= 1 && i1 <= i2 && i2 <= i3

(* The chain narrates itself: a starved CG solve must leave an ordered
   Solver_fallback trail in the report's diagnostics (the abandoned rung
   of each escalation, oldest first) and per-component certificates
   whose convergence summary flags stagnation. *)
let test_resilient_observed_starved_event_trail () =
  let w, labels = two_cluster (Prng.Rng.create 29) in
  let p = Gssl.Problem.make ~graph:(sparse_graph_of w) ~labels in
  let report = Resilient.solve_hard ~cg_max_iter:1 p in
  let escalations =
    List.filter_map
      (function
        | Check.Solver_fallback { abandoned; _ } -> Some abandoned | _ -> None)
      report.Resilient.diagnostics
  in
  Alcotest.(check bool) "finite predictions" true
    (Array.for_all Float.is_finite report.Resilient.predictions);
  (match escalations with
  | "cg" :: "cg_restarted" :: _ -> ()
  | other ->
      Alcotest.failf "escalation trail not in chain order: [%s]"
        (String.concat "; " other));
  Alcotest.(check int) "certificate per solved component"
    report.Resilient.n_anchored
    (List.length report.Resilient.certificates);
  (* the all-zero-label component solves trivially (b = 0, zero CG
     iterations); the component that escalated must carry a stagnation
     flag in its convergence summary *)
  let stagnated =
    List.filter
      (fun (_, (cert : Obs.Health.t)) ->
        match cert.Obs.Health.convergence with
        | Some conv -> conv.Obs.Health.stagnated
        | None -> false)
      report.Resilient.certificates
  in
  Alcotest.(check bool) "a starved component is flagged stagnated" true
    (stagnated <> [])

(* Bit-identity pin: both resilient solvers over the fault problems
   above (seeds 0-99, each fault class in turn), in dense and CSR
   storage.  One digest covers the prediction bits and component rungs;
   another the certificates. *)
let fault_reports () =
  let problems =
    List.concat_map
      (fun (classes, graph_of) ->
        List.init 100 (fault_problem ~classes ~graph_of))
      [ (sparse_fault_classes, sparse_graph_of); (dense_fault_classes, Wg.of_dense) ]
  in
  List.concat_map
    (fun (_, p, cap) ->
      let hard =
        Resilient.solve_hard ~suspect_threshold:0.5 ?cg_max_iter:cap p
      in
      let soft =
        Resilient.solve_soft ~suspect_threshold:0.5 ?cg_max_iter:cap
          ~lambda:0.5 p
      in
      [ hard; soft ])
    problems

let test_resilient_pinned_digests () =
  let reports = fault_reports () in
  let predictions =
    digest_hex (fun b ->
        List.iter
          (fun (r : Resilient.report) ->
            Array.iter (add_float_bits b) r.Resilient.predictions;
            List.iter
              (fun (c, rung) -> Buffer.add_string b (Printf.sprintf "%d:%s;" c rung))
              (rungs r))
          reports)
  in
  let certificates =
    digest_hex (fun b ->
        List.iter
          (fun (r : Resilient.report) ->
            List.iter
              (fun (c, (cert : Obs.Health.t)) ->
                Buffer.add_string b
                  (Printf.sprintf "%d:%s:%d;" c cert.Obs.Health.system
                     cert.Obs.Health.dim);
                add_float_bits b cert.Obs.Health.true_residual;
                Option.iter
                  (fun (cv : Obs.Health.convergence) ->
                    Buffer.add_string b (string_of_int cv.Obs.Health.iterations);
                    add_float_bits b cv.Obs.Health.final_residual;
                    add_float_bits b cv.Obs.Health.best_residual)
                  cert.Obs.Health.convergence)
              r.Resilient.certificates)
          reports)
  in
  Alcotest.(check string) "predictions and rungs"
    "bcf231b9c1ac81f47a3d68fe81ce137a" predictions;
  Alcotest.(check string) "certificates" "052076e0338a8b80cdeb35b5654504bf"
    certificates

let suite =
  ( "robust",
    [
      case "scan classifies weight faults" test_scan_weight_faults;
      case "scan flags labels + anchoring" test_scan_labels_and_anchoring;
      case "scan: clean graph has no errors" test_scan_clean_graph_no_errors;
      case "scan: loo flags flipped label" test_scan_flags_flipped_label;
      case "problem rejects non-finite label" test_problem_rejects_nonfinite_label;
      case "graph rejects nan/negative weight" test_graph_rejects_bad_weights;
      case "cg: breakdown reported distinctly" test_cg_breakdown_field;
      case "cg: solve_exn failure messages" test_cg_solve_exn_messages;
      case "dense chain: clean stays on cholesky"
        test_dense_chain_clean_stays_on_cholesky;
      case "dense chain: indefinite -> qr"
        test_dense_chain_indefinite_escalates_to_qr;
      case "dense chain: singular is total" test_dense_chain_singular_is_total;
      case "sparse chain: clean stays on cg" test_sparse_chain_clean_stays_on_cg;
      case "sparse chain: breakdown -> gauss-seidel"
        test_sparse_chain_breakdown_goes_to_gauss_seidel;
      case "sparse chain: capped cg escalates" test_sparse_chain_capped_escalates;
      case "unanchored: all four solvers raise" test_unanchored_raisers_consistent;
      case "resilient: imputes unanchored components"
        test_resilient_imputes_unanchored;
      case "resilient: clean dense = hard, counters 0"
        test_resilient_clean_dense_matches_hard;
      case "resilient: clean sparse = scalable, counters 0"
        test_resilient_clean_sparse_matches_scalable;
      case "resilient: clean soft = soft; lambda guard"
        test_resilient_clean_soft_matches_soft;
      case "resilient observed: starved cg leaves ordered event trail"
        test_resilient_observed_starved_event_trail;
      case "resilient: pinned fault-problem digests, dense and CSR"
        test_resilient_pinned_digests;
      qprop ~count:210 "any single fault: sparse resilient never raises, names it"
        prop_fault_sparse;
      qprop ~count:200 "any single fault: dense resilient never raises, names it"
        prop_fault_dense;
      qprop ~count:60 "nan-poison degradation is monotone" prop_monotone_nan_poison;
      qprop ~count:60 "edge-drop degradation is monotone" prop_monotone_edge_drop;
    ] )
