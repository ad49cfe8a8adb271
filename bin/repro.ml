(* Command-line driver for the reproduction: one subcommand per figure of
   the paper, plus the toy example, the consistency probe, the complexity
   table, and the ablation studies.  `repro all` runs everything. *)

open Cmdliner

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

(* Writing to a consumer that vanished (`repro top --watch | head`,
   `repro journal ... | less` quit early) raises EPIPE / Sys_error
   "Broken pipe" out of print_*.  For a viewer that is a normal way to
   stop reading, so commands that stream to stdout wrap their body in
   this and exit 0 instead of dumping a backtrace. *)
let exit0_on_epipe f =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let is_broken_pipe msg =
    let needle = "roken pipe" in
    let n = String.length needle and m = String.length msg in
    let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
    scan 0
  in
  (* Plain [exit 0] would run at_exit hooks, and
     Format.flush_standard_formatters would raise a second Sys_error
     against the same dead pipe — escaping into Cmdliner's catch as an
     "internal error".  The consumer is gone, so skip the flushes. *)
  let quiet_exit () =
    (try flush stderr with Sys_error _ -> ());
    Unix._exit 0
  in
  try f () with
  | Sys_error msg when is_broken_pipe msg -> quiet_exit ()
  | Unix.Unix_error (Unix.EPIPE, _, _) -> quiet_exit ()

(* --profile / --profile-json: run the command with the telemetry
   subsystem enabled and report where the time and the solver work went. *)

let profile_arg =
  let doc =
    "Enable the telemetry subsystem (timers and counters) and \
     print a per-phase timing/counter report after the run."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_json_arg =
  let doc =
    "Like $(b,--profile), but additionally write the full telemetry \
     snapshot as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "profile-json" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Capture every completed telemetry span as a Chrome trace-event JSON \
     file at $(docv) (open it in chrome://tracing or Perfetto).  Implies \
     enabling the telemetry subsystem."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let write_trace path =
  Obs.Chrome_trace.write path;
  Printf.printf "(chrome trace written to %s; %d span event(s))\n" path
    (Obs.Chrome_trace.n_events ());
  Obs.Chrome_trace.stop ()

let with_profile profile json_path trace_out f =
  if (not profile) && json_path = None && trace_out = None then f ()
  else begin
    Telemetry.Registry.enable ();
    Telemetry.Registry.reset ();
    if profile then Obs.Histogram.attach_to_spans ();
    if trace_out <> None then Obs.Chrome_trace.start ();
    Fun.protect
      ~finally:(fun () ->
        (match trace_out with None -> () | Some path -> write_trace path);
        (match json_path with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (Telemetry.Export.to_json ());
            output_char oc '\n';
            close_out oc;
            Printf.printf "(telemetry json written to %s)\n" path);
        if profile then begin
          print_newline ();
          print_string (Telemetry.Export.to_text ());
          print_string (Obs.Histogram.to_text ())
        end;
        Telemetry.Registry.disable ();
        Telemetry.Registry.reset ())
      f
  end

let print_figure ~markdown ~plot ~svg fig =
  if markdown then print_string (Experiment.Report.figure_markdown fig)
  else begin
    print_string (Experiment.Table.of_figure fig);
    print_newline ();
    if plot then print_string (Experiment.Ascii_plot.render fig)
  end;
  (match svg with
  | None -> ()
  | Some path ->
      Experiment.Svg_plot.write_file path fig;
      Printf.printf "(svg written to %s)\n" path);
  print_newline ()

(* common options *)

let reps_arg default =
  let doc =
    "Number of replications per grid point (paper scale: 1000 for Figs 1-4, \
     100 for Fig 5)."
  in
  Arg.(value & opt int default & info [ "reps" ] ~docv:"REPS" ~doc)

let seed_arg default =
  let doc = "Master random seed (runs are bit-reproducible per seed)." in
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let markdown_arg =
  let doc = "Emit a markdown table instead of the ASCII table + plot." in
  Arg.(value & flag & info [ "markdown" ] ~doc)

let no_plot_arg =
  let doc = "Suppress the ASCII plot." in
  Arg.(value & flag & info [ "no-plot" ] ~doc)

let svg_arg =
  let doc = "Also write the figure as an SVG chart to $(docv)." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc =
    "Run the replication grid and the parallel compute kernels on $(docv) \
     OCaml domains (results are bit-identical regardless of the count; 0 = \
     auto-detect)."
  in
  Arg.(
    value
    & opt int 1
    & info [ "domains"; "j" ] ~docv:"D" ~doc
        ~env:(Cmd.Env.info "GSSL_DOMAINS"))

(* One knob steers both layers: the sweep grid gets the count explicitly,
   and the default pool (used by gemm / spmv / pairwise) is
   resized to match. *)
let resolve_domains d =
  let d = if d = 0 then Domain.recommended_domain_count () else d in
  Parallel.Pool.set_default_domains d;
  d

let run_synthetic make reps seed domains markdown no_plot svg profile profile_json trace_out =
  setup_logs ();
  let domains = resolve_domains domains in
  with_profile profile profile_json trace_out (fun () ->
      print_figure ~markdown ~plot:(not no_plot) ~svg
        (make ~domains ~reps ~seed ()))

let synthetic_cmd name default_seed make ~doc =
  let term =
    Term.(
      const (run_synthetic (fun ~domains ~reps ~seed () -> make ~domains ~reps ~seed ()))
      $ reps_arg 10 $ seed_arg default_seed $ domains_arg
      $ markdown_arg $ no_plot_arg $ svg_arg $ profile_arg $ profile_json_arg
      $ trace_out_arg)
  in
  Cmd.v (Cmd.info name ~doc) term

let fig1_cmd =
  synthetic_cmd "fig1" 1
    (fun ~domains ~reps ~seed () -> Experiment.Figures.fig1 ~domains ~reps ~seed ())
    ~doc:"Figure 1: RMSE vs n, Model 1 (linear logit), m=30."

let fig2_cmd =
  synthetic_cmd "fig2" 2
    (fun ~domains ~reps ~seed () -> Experiment.Figures.fig2 ~domains ~reps ~seed ())
    ~doc:"Figure 2: RMSE vs m, Model 1, n=100."

let fig3_cmd =
  synthetic_cmd "fig3" 3
    (fun ~domains ~reps ~seed () -> Experiment.Figures.fig3 ~domains ~reps ~seed ())
    ~doc:"Figure 3: RMSE vs n, Model 2 (non-linear logit), m=30."

let fig4_cmd =
  synthetic_cmd "fig4" 4
    (fun ~domains ~reps ~seed () -> Experiment.Figures.fig4 ~domains ~reps ~seed ())
    ~doc:"Figure 4: RMSE vs m, Model 2, n=100."

let fig5_cmd =
  let size_arg =
    let doc =
      "Number of images to keep from the simulated COIL dataset (paper: 1500)."
    in
    Arg.(value & opt int 1500 & info [ "size" ] ~docv:"N" ~doc)
  in
  let run reps seed size markdown no_plot svg profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        print_figure ~markdown ~plot:(not no_plot) ~svg
          (Experiment.Figures.fig5 ~reps ~seed ~dataset_size:size ()))
  in
  let term =
    Term.(
      const run $ reps_arg 1 $ seed_arg 5 $ size_arg $ markdown_arg $ no_plot_arg
      $ svg_arg $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "fig5"
       ~doc:
         "Figure 5: AUC vs lambda on the simulated COIL benchmark, three \
          labeled ratios.")
    term

let toy_cmd =
  let n_arg = Arg.(value & opt int 20 & info [ "n" ] ~docv:"N" ~doc:"Labeled count.") in
  let m_arg = Arg.(value & opt int 10 & info [ "m" ] ~docv:"M" ~doc:"Unlabeled count.") in
  let run n m seed profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        print_string (Experiment.Figures.toy_demo ~n ~m ~seed))
  in
  let term =
    Term.(const run $ n_arg $ m_arg $ seed_arg 42 $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "toy"
       ~doc:"Section III toy example: closed-form checks on constant inputs.")
    term

let consistency_cmd =
  let run seed markdown no_plot svg profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        print_figure ~markdown ~plot:(not no_plot) ~svg
          (Experiment.Figures.consistency_demo ~seed ()))
  in
  let term =
    Term.(
      const run $ seed_arg 11 $ markdown_arg $ no_plot_arg $ svg_arg
      $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "consistency"
       ~doc:"Theorem II.1 probe: sup-norm errors of hard / NW / soft as n grows.")
    term

let complexity_cmd =
  let run seed profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        print_string (Experiment.Figures.complexity_table ~seed ()))
  in
  let term = Term.(const run $ seed_arg 13 $ profile_arg $ profile_json_arg $ trace_out_arg) in
  Cmd.v
    (Cmd.info "complexity"
       ~doc:
         "Proposition II.1 complexity remark: hard O(m^3) vs soft O((n+m)^3) \
          timings.")
    term

(* ablations *)

type ablation = Kernel | Regime | Cv | Nystrom | Active

let ablation_conv =
  Arg.enum
    [
      ("kernel", Kernel); ("regime", Regime); ("cv", Cv); ("nystrom", Nystrom);
      ("active", Active);
    ]

let run_ablation which reps seed markdown no_plot svg profile profile_json trace_out =
  setup_logs ();
  with_profile profile profile_json trace_out (fun () ->
      let fig =
        match which with
        | Kernel -> Experiment.Ablations.kernel_study ~reps ~seed ()
        | Regime -> Experiment.Ablations.regime_study ~reps ~seed ()
        | Cv -> Experiment.Ablations.cv_study ~reps ~seed ()
        | Nystrom -> Experiment.Ablations.nystrom_study ~seed ()
        | Active -> Experiment.Ablations.active_study ~reps ~seed ()
      in
      print_figure ~markdown ~plot:(not no_plot) ~svg fig)

let ablation_cmd =
  let which_arg =
    Arg.(
      required
      & pos 0 (some ablation_conv) None
      & info [] ~docv:"NAME"
          ~doc:"One of: kernel, regime, cv, nystrom, active.")
  in
  let term =
    Term.(
      const run_ablation $ which_arg $ reps_arg 10 $ seed_arg 21 $ markdown_arg
      $ no_plot_arg $ svg_arg $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Ablation studies: kernel choice, m>n regime, CV-tuned lambda, \
          Nystrom approximation, active learning.")
    term

let baselines_cmd =
  let run reps seed markdown no_plot svg profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        print_string (Experiment.Baselines.two_moons_report ~seed:(seed + 2) ());
        print_newline ();
        print_string (Experiment.Baselines.multiclass_report ~seed:(seed + 3) ());
        print_newline ();
        print_figure ~markdown ~plot:(not no_plot) ~svg
          (Experiment.Baselines.method_comparison ~reps ~seed ());
        print_string
          (Experiment.Baselines.significance_report
             ~reps:(Stdlib.max 10 (3 * reps))
             ~seed:(seed + 1) ()))
  in
  let term =
    Term.(
      const run $ reps_arg 10 $ seed_arg 41 $ markdown_arg $ no_plot_arg $ svg_arg
      $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "baselines"
       ~doc:
         "Compare hard/soft against the cited baselines (Nadaraya-Watson, \
          local-global consistency, LapRLS) with significance tests and the \
          two-moons demo.")
    term

let future_cmd =
  let run reps seed markdown no_plot svg profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        let show = print_figure ~markdown ~plot:(not no_plot) ~svg in
        let auc, acc, mcc =
          Experiment.Future_work.indicator_study ~reps ~seed ()
        in
        show auc;
        show acc;
        show mcc;
        show
          (Experiment.Future_work.auc_consistency_study ~reps ~seed:(seed + 1) ());
        show (Experiment.Future_work.calibration_study ~reps ~seed:(seed + 2) ()))
  in
  let term =
    Term.(
      const run $ reps_arg 5 $ seed_arg 61 $ markdown_arg $ no_plot_arg $ svg_arg
      $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "future"
       ~doc:
         "The paper's future-work probes: AUC/accuracy/MCC orderings, AUC \
          consistency in n, calibration of the two criteria.")
    term

let artifacts_cmd =
  let dir_arg =
    Arg.(
      value & opt string "figures"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory for the artifacts.")
  in
  let run reps seed dir =
    setup_logs ();
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let save name fig =
      Experiment.Svg_plot.write_file (Filename.concat dir (name ^ ".svg")) fig;
      Experiment.Export.write_file (Filename.concat dir (name ^ ".csv")) fig;
      Printf.printf "%s: wrote %s.svg and %s.csv\n%!" dir name name
    in
    save "fig1" (Experiment.Figures.fig1 ~reps ~seed ());
    save "fig2" (Experiment.Figures.fig2 ~reps ~seed:(seed + 1) ());
    save "fig3" (Experiment.Figures.fig3 ~reps ~seed:(seed + 2) ());
    save "fig4" (Experiment.Figures.fig4 ~reps ~seed:(seed + 3) ());
    save "fig5"
      (Experiment.Figures.fig5 ~reps:(Stdlib.max 1 (reps / 10)) ~seed:(seed + 4) ());
    save "consistency" (Experiment.Figures.consistency_demo ~seed:(seed + 5) ())
  in
  let term = Term.(const run $ reps_arg 20 $ seed_arg 1 $ dir_arg) in
  Cmd.v
    (Cmd.info "artifacts"
       ~doc:
         "Regenerate every figure as SVG + CSV data files into a directory \
          (default ./figures).")
    term

(* robustness demo: inject faults into a two-cluster problem and show
   what the resilient front-end detects, repairs, and degrades. *)

let robust_cmd =
  let fault_conv =
    Arg.enum
      [
        ("jitter", `Jitter); ("edge-drop", `Edge_drop);
        ("label-flip", `Label_flip); ("nan-weight", `Nan_weight);
        ("nan-label", `Nan_label); ("cg-cap", `Cg_cap);
      ]
  in
  let faults_arg =
    let doc =
      "Fault class to inject (repeatable): jitter, edge-drop, label-flip, \
       nan-weight, nan-label, cg-cap."
    in
    Arg.(
      value
      & opt_all fault_conv [ `Nan_weight; `Edge_drop ]
      & info [ "fault" ] ~docv:"CLASS" ~doc)
  in
  let sparse_arg =
    let doc = "Use sparse (CSR) graph storage and the sparse fallback chain." in
    Arg.(value & flag & info [ "sparse" ] ~doc)
  in
  let lambda_arg =
    let doc = "Also run the resilient soft criterion at this lambda." in
    Arg.(value & opt (some float) None & info [ "lambda" ] ~docv:"L" ~doc)
  in
  let severity_name = function
    | Robust.Check.Info -> "info"
    | Robust.Check.Warning -> "warning"
    | Robust.Check.Error -> "error"
  in
  let print_report name (r : Gssl.Resilient.report) =
    Printf.printf "%s: %d component(s), %d anchored\n" name
      r.Gssl.Resilient.n_components r.Gssl.Resilient.n_anchored;
    List.iter
      (fun (c, cert) ->
        Printf.printf "  component %d solved via %s\n" c cert.Obs.Health.rung)
      r.Gssl.Resilient.certificates;
    if Array.length r.Gssl.Resilient.imputed > 0 then
      Printf.printf "  imputed vertices: %s\n"
        (String.concat ", "
           (Array.to_list
              (Array.map string_of_int r.Gssl.Resilient.imputed)));
    let infos, notable =
      List.partition
        (fun d -> Robust.Check.severity d = Robust.Check.Info)
        r.Gssl.Resilient.diagnostics
    in
    if infos <> [] then
      Printf.printf "  %d info diagnostic(s) suppressed (e.g. %s)\n"
        (List.length infos)
        (Robust.Check.describe (List.hd infos));
    List.iter
      (fun d ->
        Printf.printf "  [%s] %s: %s\n"
          (severity_name (Robust.Check.severity d))
          (Robust.Check.class_name d)
          (Robust.Check.describe d))
      notable;
    Printf.printf "  predictions:%s\n"
      (String.concat ""
         (Array.to_list
            (Array.map (Printf.sprintf " %.3f") r.Gssl.Resilient.predictions)))
  in
  let run seed faults sparse lambda profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        let rng = Prng.Rng.create seed in
        (* two RBF clusters, 6 labeled + 6 unlabeled points each *)
        let point cx cy () =
          [|
            cx +. Prng.Rng.uniform rng (-0.5) 0.5;
            cy +. Prng.Rng.uniform rng (-0.5) 0.5;
          |]
        in
        let mk cx cy k = Array.init k (fun _ -> point cx cy ()) in
        let points =
          Array.concat [ mk 0. 0. 6; mk 5. 5. 6; mk 0. 0. 6; mk 5. 5. 6 ]
        in
        let labels = Array.init 12 (fun i -> if i < 6 then 0. else 1.) in
        let w =
          Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.0
            points
        in
        let graph =
          if sparse then
            Graph.Weighted_graph.of_sparse
              (Sparse.Csr.of_dense ~threshold:1e-6 w)
          else Graph.Weighted_graph.of_dense w
        in
        let fault_of = function
          | `Jitter -> Robust.Fault.Weight_jitter { amplitude = 0.3 }
          | `Edge_drop -> Robust.Fault.Edge_drop { fraction = 0.15 }
          | `Label_flip -> Robust.Fault.Label_flip { count = 1 }
          | `Nan_weight -> Robust.Fault.Nan_poison_weight { count = 3 }
          | `Nan_label -> Robust.Fault.Nan_poison_label { count = 1 }
          | `Cg_cap -> Robust.Fault.Cg_cap { max_iter = 1 }
        in
        let faults = List.map fault_of faults in
        let inj = Robust.Fault.inject rng ~n_labeled:12 faults graph labels in
        Printf.printf
          "robustness demo: 24 vertices (12 labeled), %s storage, seed %d\n"
          (if sparse then "sparse" else "dense")
          seed;
        Printf.printf "injected faults: %s\n\n"
          (String.concat ", " (List.map Robust.Fault.class_name faults));
        let problem =
          Gssl.Problem.make_unchecked ~graph:inj.Robust.Fault.graph
            ~labels:inj.Robust.Fault.labels
        in
        let cap = inj.Robust.Fault.cg_max_iter in
        print_report "resilient hard"
          (Gssl.Resilient.solve_hard ~suspect_threshold:0.5 ?cg_max_iter:cap
             problem);
        match lambda with
        | None -> ()
        | Some lambda ->
            print_newline ();
            print_report
              (Printf.sprintf "resilient soft (lambda = %g)" lambda)
              (Gssl.Resilient.solve_soft ~suspect_threshold:0.5
                 ?cg_max_iter:cap ~lambda problem))
  in
  let term =
    Term.(
      const run $ seed_arg 33 $ faults_arg $ sparse_arg $ lambda_arg
      $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:
         "Fault-injection demo: poison a small problem (NaN weights, dropped \
          edges, flipped labels, CG budget caps) and show the resilient \
          solver's diagnostics, fallback rungs, and imputations.")
    term

(* numerical-health certificates on the paper's synthetic models *)

let health_cmd =
  let cap_arg =
    let doc =
      "CG iteration budget for the starved rerun (injected through the \
       fault harness; small values force the fallback chain to escalate)."
    in
    Arg.(value & opt int 2 & info [ "cg-cap" ] ~docv:"K" ~doc)
  in
  let lambda_arg =
    let doc = "Lambda for the Model 2 soft-criterion solve." in
    Arg.(value & opt float 0.1 & info [ "lambda" ] ~docv:"L" ~doc)
  in
  let run seed cap lambda trace_out =
    setup_logs ();
    Telemetry.Registry.enable ();
    Telemetry.Registry.reset ();
    if trace_out <> None then Obs.Chrome_trace.start ();
    Fun.protect
      ~finally:(fun () ->
        (match trace_out with None -> () | Some path -> write_trace path);
        Telemetry.Registry.disable ();
        Telemetry.Registry.reset ())
      (fun () ->
        let rng = Prng.Rng.create seed in
        let make_problem model =
          let samples = Dataset.Synthetic.sample_many rng model 100 in
          let problem, _ =
            Dataset.Synthetic.to_problem ~kernel:Kernel.Kernel_fn.Rbf
              ~bandwidth:
                (Kernel.Bandwidth.Paper_rate Dataset.Synthetic.dimension)
              ~n_labeled:60 samples
          in
          problem
        in
        let show title ~system ~dense sys x =
          Printf.printf "== %s ==\n%s  cond estimate      %.3e\n\n" title
            (Obs.Health.describe
               (Gssl.System.certify ~system ~rung:"cholesky" ~attempts:[] sys
                  x))
            (Linalg.Refine.condition_estimate dense)
        in
        let p1 = make_problem Dataset.Synthetic.Model1 in
        let a1 = Gssl.Hard.system_matrix p1 in
        show "Model 1 / hard criterion (dense Cholesky)" ~system:"gssl.hard"
          ~dense:a1
          { Gssl.System.a = Gssl.System.Dense a1; b = Gssl.Hard.rhs p1 }
          (Gssl.Hard.solve p1);
        (* Model 2 is certified on the full (n+m) system
           (V + lambda L) f = (Y; 0), through the matrix-free operator;
           its condition number is read from the same system's dense
           matrix *)
        let p2 = make_problem Dataset.Synthetic.Model2 in
        let s2 = Gssl.Soft.system ~lambda p2 in
        let a2 =
          match s2.Gssl.System.a with
          | Gssl.System.Dense m -> m
          | _ -> invalid_arg "repro health: Model 2's soft system is not dense"
        in
        show
          (Printf.sprintf "Model 2 / soft criterion (lambda = %g)" lambda)
          ~system:"gssl.soft" ~dense:a2
          { s2 with
            Gssl.System.a =
              Gssl.System.Op
                (Graph.Laplacian.operator ~lambda
                   ~n_labeled:(Gssl.Problem.n_labeled p2) p2.Gssl.Problem.graph) }
          (Gssl.Soft.solve_full ~lambda p2);
        (* The same Model 1 solve, starved: sparse storage so the fallback
           chain starts at CG, with the fault harness capping every CG
           attempt.  The certificate must flag stagnation and the report's
           diagnostics must show the escalation sequence. *)
        let sparse_graph =
          Graph.Weighted_graph.of_sparse
            (Sparse.Csr.of_dense ~threshold:1e-8
               (Graph.Weighted_graph.to_dense p1.Gssl.Problem.graph))
        in
        let inj =
          Robust.Fault.inject rng ~n_labeled:(Gssl.Problem.n_labeled p1)
            [ Robust.Fault.Cg_cap { max_iter = cap } ]
            sparse_graph p1.Gssl.Problem.labels
        in
        let starved =
          Gssl.Problem.make_unchecked ~graph:inj.Robust.Fault.graph
            ~labels:inj.Robust.Fault.labels
        in
        let report =
          Gssl.Resilient.solve_hard ?cg_max_iter:inj.Robust.Fault.cg_max_iter
            starved
        in
        Printf.printf
          "== Model 1 / hard criterion starved (CG capped at %d iteration(s)) \
           ==\n"
          cap;
        List.iter
          (fun (c, cert) ->
            Printf.printf "component %d solved via %s\n" c cert.Obs.Health.rung)
          report.Gssl.Resilient.certificates;
        List.iter
          (fun (c, cert) ->
            Printf.printf "component %d certificate:\n%s" c
              (Obs.Health.describe cert))
          report.Gssl.Resilient.certificates;
        print_newline ();
        let diagnostics = report.Gssl.Resilient.diagnostics in
        let quiet, notable =
          List.partition
            (fun d -> Robust.Check.severity d = Robust.Check.Info)
            diagnostics
        in
        Printf.printf "== Diagnostics: %d finding(s) (%d info suppressed) ==\n"
          (List.length diagnostics) (List.length quiet);
        List.iter
          (fun d ->
            Printf.printf "%s: %s\n" (Robust.Check.class_name d)
              (Robust.Check.describe d))
          notable)
  in
  let term =
    Term.(const run $ seed_arg 7 $ cap_arg $ lambda_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Numerical-health certificates: solve the paper's Model 1 (hard) \
          and Model 2 (soft) synthetic problems, print their \
          recomputed-residual certificates and the condition number of \
          each system, then starve CG via the fault harness and show the \
          stagnation certificate plus the report's escalation sequence.")
    term

(* long-lived serving layer: chaos soak replay and an interactive server *)

(* Write the engine's journal to [journal_path] when both exist. *)
let write_journal journal_path engine =
  match (journal_path, Serve.Engine.journal engine) with
  | Some path, Some j ->
      Obs.Journal.write j path;
      Printf.printf "(journal written to %s: %d line(s), digest %016Lx)\n%!"
        path (Obs.Journal.length j) (Obs.Journal.digest j)
  | _ -> ()

(* The tail `soak` and `netsoak` share: write the first run's journal,
   then exit 1 unless the soak held. *)
let finish_soak journal_path engine ok =
  write_journal journal_path engine;
  if not ok then exit 1

let soak_cmd =
  let requests_arg =
    let doc = "Number of requests in the generated trace." in
    Arg.(value & opt int 5000 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let capacity_arg =
    let doc = "Admission queue capacity (requests beyond it are shed)." in
    Arg.(value & opt int 16 & info [ "capacity" ] ~docv:"Q" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline budget in virtual milliseconds." in
    Arg.(value & opt float 25. & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let fault_rate_arg =
    let doc = "Fraction of queries carrying injected faults." in
    Arg.(value & opt float 0.18 & info [ "fault-rate" ] ~docv:"F" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay the trace a second time and require bit-identical per-request \
       outcomes (digest equality)."
    in
    Arg.(value & flag & info [ "verify-replay" ] ~doc)
  in
  let journal_arg =
    let doc =
      "Record a per-request span journal and write it as JSONL to $(docv) \
       (one line per response: trace id, disposition, full span tree)."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let run seed requests capacity deadline fault_rate replay journal_path =
    setup_logs ();
    let cfg =
      { Serve.Soak.default with
        Serve.Soak.seed;
        requests;
        queue_capacity = capacity;
        deadline_ms = deadline;
        fault_rate;
        verify_replay = replay;
        journal = journal_path <> None }
    in
    let s, engine = Serve.Soak.run_full cfg in
    print_string (Serve.Soak.describe s);
    finish_soak journal_path engine (Serve.Soak.ok s)
  in
  let term =
    Term.(
      const run $ seed_arg 42 $ requests_arg $ capacity_arg $ deadline_arg
      $ fault_rate_arg $ replay_arg $ journal_arg)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos soak: replay a seeded fault-injected request trace (latency \
          stalls, CG starvation, NaN poison, label flips, relabel storms, \
          queue-saturating bursts) through the admission-controlled serve \
          engine on a virtual clock, and check the serving invariants — \
          zero dropped responses, every response certified healthy or \
          explicitly degraded/shed, bounded queue.  Exits nonzero on any \
          violation.")
    term

let c_repl_parse_errors = Telemetry.Counter.make "serve.repl.parse_errors"

let print_serve_stats ?(parse_errors = 0) engine =
  let s = Serve.Engine.stats engine in
  Printf.printf
    "served %d | degraded %d | shed %d | deadline expired %d\n\
     relabels %d | breaker trips %d | cache hits/misses %d/%d | parse errors \
     %d\n\
     %!"
    s.Serve.Engine.served s.Serve.Engine.degraded s.Serve.Engine.shed
    s.Serve.Engine.deadline_expired s.Serve.Engine.relabels
    s.Serve.Engine.breaker_trips s.Serve.Engine.cache_hits
    s.Serve.Engine.cache_misses parse_errors

let print_transport_stats engine =
  let tr = Serve.Engine.transport engine in
  Printf.printf
    "transport: conns %d/%d | frames ok %d rejected %d | client gone %d | \
     io deadline %d | overflow shed %d | drained %d\n\
     %!"
    tr.Serve.Transport.conns_opened tr.Serve.Transport.conns_closed
    tr.Serve.Transport.frames_ok tr.Serve.Transport.frames_rejected
    tr.Serve.Transport.client_gone tr.Serve.Transport.io_deadline_expired
    tr.Serve.Transport.overflow_shed tr.Serve.Transport.drained

let serve_cmd =
  let deadline_arg =
    let doc = "Per-request deadline budget in milliseconds." in
    Arg.(value & opt float 250. & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let socket_arg =
    let doc =
      "Serve the framed wire protocol on a Unix-domain socket at $(docv) \
       instead of the stdin REPL (see DESIGN §13 for the frame layout)."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc =
      "Serve the framed wire protocol on 127.0.0.1:$(docv) (0 picks an \
       ephemeral port, printed at startup)."
    in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let io_deadline_arg =
    let doc =
      "Transport I/O deadline in milliseconds: a frame that stalls \
       mid-transfer, or a peer that stops reading responses, is timed out \
       and the connection closed."
    in
    Arg.(value & opt float 2000. & info [ "io-deadline-ms" ] ~docv:"MS" ~doc)
  in
  let journal_arg =
    let doc = "Write the per-request span journal as JSONL to $(docv) on exit." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let repl_loop engine clock =
    let next_id = ref 0 in
    let parse_errors = ref 0 in
    (* every malformed line answers with one structured, greppable error
       line and a counter bump — the REPL never raises on input *)
    let reject code detail =
      incr parse_errors;
      Telemetry.Counter.incr c_repl_parse_errors;
      Printf.printf "error %s: %s\n%!" code detail
    in
    let submit kind =
      incr next_id;
      let req =
        { Serve.Engine.id = !next_id;
          arrival_ms = Serve.Clock.now_ms clock;
          kind;
          faults = [] }
      in
      let r = Serve.Engine.handle engine req in
      let status =
        match r.Serve.Engine.status with
        | Serve.Engine.Served -> "served"
        | Serve.Engine.Degraded why -> "DEGRADED (" ^ why ^ ")"
        | Serve.Engine.Shed why -> "SHED (" ^ why ^ ")"
      in
      let health =
        match r.Serve.Engine.certificate with
        | Some c when Obs.Health.healthy c -> "healthy certificate"
        | Some _ -> "UNHEALTHY certificate"
        | None -> "no certificate"
      in
      Printf.printf "#%d %s in %.3f ms — %d prediction(s), %s\n%!"
        r.Serve.Engine.id status r.Serve.Engine.latency_ms
        (Array.length r.Serve.Engine.predictions)
        health
    in
    let rec loop () =
      print_string "> ";
      flush stdout;
      match input_line stdin with
      | exception End_of_file -> ()
      | line -> (
          let words =
            String.split_on_char ' ' (String.trim line)
            |> List.filter (fun s -> s <> "")
          in
          match words with
          | [] -> loop ()
          | [ "quit" ] | [ "exit" ] -> ()
          | [ "query" ] ->
              submit Serve.Engine.Query;
              loop ()
          | "query" :: _ ->
              reject "bad-argument" "query takes no arguments";
              loop ()
          | [ "stats" ] ->
              print_serve_stats ~parse_errors:!parse_errors engine;
              loop ()
          | "stats" :: _ ->
              reject "bad-argument" "stats takes no arguments";
              loop ()
          | [ "relabel"; v; y ] ->
              (match (int_of_string_opt v, float_of_string_opt y) with
              | Some vertex, Some label when Float.is_finite label ->
                  submit (Serve.Engine.Relabel { vertex; label })
              | Some _, Some label ->
                  reject "non-finite"
                    (Printf.sprintf "relabel label %h is not finite" label)
              | None, _ ->
                  reject "bad-argument"
                    (Printf.sprintf "relabel vertex %S is not an integer" v)
              | _, None ->
                  reject "bad-argument"
                    (Printf.sprintf "relabel label %S is not a number" y));
              loop ()
          | "relabel" :: rest ->
              reject "bad-argument"
                (Printf.sprintf
                   "relabel takes <vertex> <label>, got %d argument(s)"
                   (List.length rest));
              loop ()
          | verb :: _ ->
              reject "unknown-verb"
                (Printf.sprintf
                   "%S — commands: query | relabel <vertex> <label> | stats \
                    | quit"
                   verb);
              loop ())
    in
    loop ();
    !parse_errors
  in
  let run seed deadline socket tcp io_deadline journal_path =
    exit0_on_epipe @@ fun () ->
    setup_logs ();
    let prob = Serve.Soak.problem ~seed ~n_vertices:80 ~n_labeled:20 in
    let config =
      { Serve.Engine.default_config with
        Serve.Engine.deadline_ms = deadline;
        seed }
    in
    let clock = Serve.Clock.monotonic () in
    let journal =
      if journal_path = None then None else Some (Obs.Journal.create ())
    in
    let engine = Serve.Engine.create ~clock ?journal config prob in
    match (socket, tcp) with
    | None, None ->
        (* stdin REPL *)
        Printf.printf
          "gssl serve: %d-vertex two-cluster problem loaded (%d labeled).\n\
           commands: query | relabel <vertex> <label> | stats | quit\n\
           %!"
          (Gssl.Problem.size prob)
          (Gssl.Problem.n_labeled prob);
        let parse_errors = repl_loop engine clock in
        print_serve_stats ~parse_errors engine;
        write_journal journal_path engine
    | _ ->
        let address =
          match (socket, tcp) with
          | Some path, _ -> Net.Server.Unix_path path
          | None, Some port -> Net.Server.Tcp { host = "127.0.0.1"; port }
          | None, None -> assert false
        in
        let sconfig =
          { Net.Server.default_config with
            Net.Server.conn =
              { Net.Conn.default_config with
                Net.Conn.io_deadline_ms = io_deadline } }
        in
        let server = Net.Server.create ~config:sconfig ~engine address in
        Net.Server.install_signal_handlers server;
        (match address with
        | Net.Server.Unix_path path ->
            Printf.printf "gssl serve: listening on unix:%s\n%!" path
        | Net.Server.Tcp _ ->
            Printf.printf "gssl serve: listening on tcp:127.0.0.1:%d\n%!"
              (Net.Server.port server));
        Printf.printf
          "frame: %S + version %d + u32 payload length; SIGTERM drains.\n%!"
          Net.Frame.magic Net.Frame.version;
        Net.Server.run server;
        Printf.printf "gssl serve: drained.\n";
        print_serve_stats engine;
        print_transport_stats engine;
        write_journal journal_path engine
  in
  let term =
    Term.(
      const run $ seed_arg 42 $ deadline_arg $ socket_arg $ tcp_arg
      $ io_deadline_arg $ journal_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived solve service on a synthetic two-cluster problem: loads \
          the graph once, caches its factorization, then answers query / \
          relabel requests with per-request deadlines, health certificates \
          and Sherman–Morrison incremental updates — from stdin by default, \
          or over the length-prefixed socket protocol with $(b,--socket) / \
          $(b,--tcp) (hostile-client hardened: typed protocol errors, I/O \
          deadlines, bounded buffers, graceful SIGTERM drain).")
    term

(* ---- socket client: clean ops and the scripted hostile probe ---- *)

let client_cmd =
  let module J = Telemetry.Export in
  let socket_arg =
    let doc = "Connect to the Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc = "Connect to 127.0.0.1:$(docv)." in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let query_arg =
    let doc = "Send $(docv) query requests." in
    Arg.(value & opt int 1 & info [ "query" ] ~docv:"N" ~doc)
  in
  let stats_flag =
    let doc = "Also request the server's stats body." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let hostile_flag =
    let doc =
      "Run the scripted hostile probe instead of clean requests: every case \
       of the netsoak's corruption table (bad magic, bad version, oversized \
       length, truncated frame, garbage JSON, unknown/malformed ops) — \
       asserting each comes back as the right typed protocol error, that a \
       JSON-level error leaves its connection serving, and that a clean \
       query still succeeds afterwards.  Exits nonzero on any mismatch."
    in
    Arg.(value & flag & info [ "hostile" ] ~doc)
  in
  let connect address =
    match address with
    | `Unix path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | `Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
  in
  let send_all fd s =
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring fd s !off (n - !off)
    done
  in
  (* Read until [count] response frames arrive, EOF, or the 5 s receive
     timeout — a hostile probe must itself never hang. *)
  let recv_frames fd ~count =
    let dec = Net.Frame.create () in
    let buf = Bytes.create 65536 in
    let out = ref [] in
    let stop = ref false in
    while (not !stop) && List.length !out < count do
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> stop := true
      | n ->
          List.iter
            (function
              | Ok p -> out := p :: !out
              | Error _ -> stop := true)
            (Net.Frame.feed dec (Bytes.sub_string buf 0 n))
      | exception
          Unix.Unix_error
            ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ETIMEDOUT
              | Unix.ECONNRESET | Unix.EPIPE ),
              _, _ ) ->
          stop := true
    done;
    List.rev !out
  in
  let with_conn address f =
    let fd = connect address in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () ->
        f fd)
  in
  let err_code p =
    match J.parse p with
    | j -> Option.bind (J.member "error" j) J.to_str
    | exception J.Parse_error _ -> None
  in
  let is_ok p =
    match J.parse p with
    | j -> J.member "ok" j = Some (J.Bool true)
    | exception J.Parse_error _ -> false
  in
  let q () = Net.Frame.encode (Net.Protocol.render_request Net.Protocol.Query) in
  let run_hostile address seed =
    let rng = Prng.Rng.create seed in
    let checks = ref 0 and failures = ref 0 in
    let expect name cond =
      incr checks;
      if cond then Printf.printf "ok %d - %s\n%!" !checks name
      else begin
        incr failures;
        Printf.printf "not ok %d - %s\n%!" !checks name
      end
    in
    (* Every case of the netsoak's corruption table, one connection each.
       A framing error closes the connection; a JSON-level error is
       per-frame, so a clean query on the SAME connection must still be
       answered after it. *)
    Array.iter
      (fun (c : Net.Hostile.corruption) ->
        with_conn address (fun fd ->
            send_all fd (c.bytes rng);
            if not c.fatal then send_all fd (q ());
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            expect
              (if c.fatal then c.name ^ " rejected"
               else c.name ^ " rejected, connection survives")
              (match recv_frames fd ~count:(if c.fatal then 1 else 2) with
              | [ e ] -> c.fatal && err_code e = Some c.code
              | [ e; r ] -> err_code e = Some c.code && is_ok r
              | _ -> false)))
      Net.Hostile.corruptions;
    (* and the server still serves cleanly after all of the abuse *)
    with_conn address (fun fd ->
        send_all fd (q ());
        (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
        match recv_frames fd ~count:1 with
        | [ p ] -> expect "clean query still served" (is_ok p)
        | _ -> expect "clean query still served" false);
    Printf.printf "hostile probe: %d/%d check(s) passed\n%!"
      (!checks - !failures) !checks;
    if !failures > 0 then exit 1
  in
  let run_clean address n_queries want_stats =
    with_conn address (fun fd ->
        for _ = 1 to n_queries do
          send_all fd (q ())
        done;
        if want_stats then
          send_all fd
            (Net.Frame.encode (Net.Protocol.render_request Net.Protocol.Stats));
        (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
        let want = n_queries + if want_stats then 1 else 0 in
        let got = recv_frames fd ~count:want in
        List.iter print_endline got;
        if List.length got <> want then begin
          Printf.eprintf "client: expected %d response(s), got %d\n" want
            (List.length got);
          exit 1
        end)
  in
  let run seed socket tcp n_queries want_stats hostile =
    exit0_on_epipe @@ fun () ->
    setup_logs ();
    let address =
      match (socket, tcp) with
      | Some path, _ -> `Unix path
      | None, Some port -> `Tcp port
      | None, None ->
          prerr_endline "client: need --socket PATH or --tcp PORT";
          exit 2
    in
    if hostile then run_hostile address seed
    else run_clean address n_queries want_stats
  in
  let term =
    Term.(
      const run $ seed_arg 7 $ socket_arg $ tcp_arg $ query_arg $ stats_flag
      $ hostile_flag)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Framed-protocol client for $(b,repro serve --socket)/$(b,--tcp): \
          send queries and print the JSON responses, or run the scripted \
          $(b,--hostile) probe that asserts every corruption mode maps to \
          its typed protocol error.")
    term

let netsoak_cmd =
  let connections_arg =
    let doc = "Number of client connections in the generated trace." in
    Arg.(value & opt int 1200 & info [ "connections" ] ~docv:"N" ~doc)
  in
  let hostile_rate_arg =
    let doc = "Fraction of connections drawn from the hostile menu." in
    Arg.(value & opt float 0.45 & info [ "hostile-rate" ] ~docv:"F" ~doc)
  in
  let io_deadline_arg =
    let doc = "Transport I/O deadline in virtual milliseconds." in
    Arg.(value & opt float 50. & info [ "io-deadline-ms" ] ~docv:"MS" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay the byte trace a second time and require a bit-identical \
       response/trace digest (and journal digest when journaling)."
    in
    Arg.(value & flag & info [ "verify-replay" ] ~doc)
  in
  let journal_arg =
    let doc = "Record the span journal and write it as JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let run seed connections hostile_rate io_deadline replay journal_path =
    setup_logs ();
    let cfg =
      { Net.Hostile.default with
        Net.Hostile.seed;
        connections;
        hostile_rate;
        io_deadline_ms = io_deadline;
        verify_replay = replay;
        journal = journal_path <> None }
    in
    let s, engine = Net.Hostile.run_full cfg in
    print_endline (Net.Hostile.describe s);
    finish_soak journal_path engine (Net.Hostile.ok s)
  in
  let term =
    Term.(
      const run $ seed_arg 42 $ connections_arg $ hostile_rate_arg
      $ io_deadline_arg $ replay_arg $ journal_arg)
  in
  Cmd.v
    (Cmd.info "netsoak"
       ~doc:
         "Hostile-client transport soak: replay a seeded trace of clean and \
          adversarial connections (frame corruption, slowloris stalls, \
          half-closes, disconnects, burst connects) byte-for-byte through \
          the connection state machine and the serve engine on a virtual \
          clock, checking that nothing crashes, every frame is answered or \
          typed-error-counted, no degradation goes unflagged, buffers stay \
          bounded, and the transport counters reconcile exactly with the \
          script.  Exits nonzero on any violation.")
    term

(* ---- observability surface: `repro top` and `repro journal` ---- *)

let render_dashboard engine ~processed ~total =
  let s = Serve.Engine.stats engine in
  let slo = Serve.Engine.slo_snapshot engine in
  let hist = Serve.Engine.latency_histogram engine in
  let qhist = Serve.Engine.queue_histogram engine in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun str -> Buffer.add_string b (str ^ "\n")) fmt in
  let bar frac =
    let width = 24 in
    let full = int_of_float (Float.max 0. (Float.min 1. frac) *. float_of_int width) in
    String.make full '#' ^ String.make (width - full) '.'
  in
  let pct v = 100. *. v in
  line "repro top — solve service  [%d/%d requests]" processed total;
  line "";
  line "  traffic   served %-6d degraded %-6d shed %-6d relabels %d"
    s.Serve.Engine.served s.Serve.Engine.degraded s.Serve.Engine.shed
    s.Serve.Engine.relabels;
  line "  failures  deadline expired %-4d cg aborts %-4d breaker trips %d (%d transitions)"
    s.Serve.Engine.deadline_expired s.Serve.Engine.solver_aborts
    s.Serve.Engine.breaker_trips s.Serve.Engine.breaker_transitions;
  line "  latency   p50 %7.3f ms   p90 %7.3f ms   p99 %7.3f ms   max %7.3f ms"
    (Obs.Histogram.p50 hist) (Obs.Histogram.p90 hist) (Obs.Histogram.p99 hist)
    (Obs.Histogram.max_value hist);
  line "  queue     p50 %7.3f ms   p99 %7.3f ms   max backlog %d"
    (Obs.Histogram.p50 qhist) (Obs.Histogram.p99 qhist)
    s.Serve.Engine.max_backlog;
  line "  cache     hits %-6d misses %d" s.Serve.Engine.cache_hits
    s.Serve.Engine.cache_misses;
  (let tr = Serve.Engine.transport engine in
   line
     "  transport conns %d/%d  frames ok %-6d rejected %-5d gone %-4d \
      io-expired %-4d drained %d"
     tr.Serve.Transport.conns_opened tr.Serve.Transport.conns_closed
     tr.Serve.Transport.frames_ok tr.Serve.Transport.frames_rejected
     tr.Serve.Transport.client_gone tr.Serve.Transport.io_deadline_expired
     tr.Serve.Transport.drained);
  line "  breaker   %s"
    (Serve.Breaker.state_name (Serve.Breaker.state (Serve.Engine.breaker engine)));
  line "";
  line "  slo latency  [%s] %5.1f%%  burn %5.2f  budget %5.1f%%"
    (bar slo.Obs.Slo.latency_compliance)
    (pct slo.Obs.Slo.latency_compliance)
    slo.Obs.Slo.latency_burn
    (pct slo.Obs.Slo.latency_budget);
  line "  slo quality  [%s] %5.1f%%  burn %5.2f  budget %5.1f%%"
    (bar slo.Obs.Slo.quality_compliance)
    (pct slo.Obs.Slo.quality_compliance)
    slo.Obs.Slo.quality_burn
    (pct slo.Obs.Slo.quality_budget);
  Buffer.contents b

let top_cmd =
  let requests_arg =
    let doc = "Requests in the generated soak trace to drive the engine with." in
    Arg.(value & opt int 2000 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let format_arg =
    let doc = "Final snapshot format: $(b,ascii), $(b,prometheus), or $(b,json)." in
    Arg.(
      value
      & opt (enum [ ("ascii", `Ascii); ("prometheus", `Prom); ("json", `Json) ])
          `Ascii
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let watch_arg =
    let doc =
      "Watch mode: redraw the dashboard after every chunk of requests \
       instead of printing the final snapshot only."
    in
    Arg.(value & flag & info [ "watch" ] ~doc)
  in
  let chunk_arg =
    let doc = "Requests per dashboard refresh in watch mode." in
    Arg.(value & opt int 250 & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let run seed requests format watch chunk =
    exit0_on_epipe @@ fun () ->
    setup_logs ();
    if chunk < 1 then (prerr_endline "top: --chunk must be >= 1"; exit 2);
    let cfg = { Serve.Soak.default with Serve.Soak.seed; requests } in
    let prob =
      Serve.Soak.problem ~seed ~n_vertices:cfg.Serve.Soak.n_vertices
        ~n_labeled:cfg.Serve.Soak.n_labeled
    in
    let trace = Serve.Soak.gen_trace cfg prob in
    let clock = Serve.Clock.virtual_ () in
    let engine =
      Serve.Engine.create ~clock (Serve.Soak.engine_config cfg) prob
    in
    (* Feed the trace through the admission queue in chunks: the engine
       keeps its backlog and worker state across calls, so the chunked
       replay is identical to one run_trace call — it just gives the
       dashboard refresh points. *)
    let rec feed processed reqs =
      match reqs with
      | [] -> processed
      | _ ->
          let rec split n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | r :: rest -> split (n - 1) (r :: acc) rest
          in
          let now, later = split chunk [] reqs in
          ignore (Serve.Engine.run_trace engine now);
          let processed = processed + List.length now in
          if watch then begin
            (* ANSI home+clear keeps the dashboard in place like top(1) *)
            print_string "\x1b[H\x1b[2J";
            print_string (render_dashboard engine ~processed ~total:requests);
            flush stdout
          end;
          feed processed later
    in
    let processed = feed 0 trace in
    match format with
    | `Ascii ->
        print_string (render_dashboard engine ~processed ~total:requests)
    | `Prom ->
        print_string (Obs.Expo.to_prometheus (Serve.Engine.metrics engine))
    | `Json ->
        print_endline
          (Telemetry.Export.render (Obs.Expo.to_json (Serve.Engine.metrics engine)))
  in
  let term =
    Term.(
      const run $ seed_arg 42 $ requests_arg $ format_arg $ watch_arg
      $ chunk_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Operator dashboard: drive the solve service with a seeded soak \
          trace and render the unified exposition snapshot — traffic and \
          failure counters, latency/queue quantiles, cache and breaker \
          gauges, SLO compliance with error-budget burn rates — as an \
          ASCII dashboard (optionally refreshing in $(b,--watch) mode), \
          Prometheus text format, or JSON.")
    term

let journal_cmd =
  let file_arg =
    let doc = "Span journal (JSONL) written by $(b,repro soak --journal)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc = "Only show the request with this (hex) trace id." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"HEX" ~doc)
  in
  let status_arg =
    let doc = "Only show requests with this status (served|degraded|shed)." in
    Arg.(value & opt (some string) None & info [ "status" ] ~docv:"S" ~doc)
  in
  let limit_arg =
    let doc = "Show at most $(docv) requests (0 = no limit)." in
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let stats_arg =
    let doc = "Print only the journal's aggregate and schema-check result." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let print_entry j =
    let open Telemetry.Export in
    let str k = Option.bind (member k j) to_str in
    let num k = Option.bind (member k j) to_float in
    let int k = Option.bind (member k j) to_int in
    let getf d = Option.value ~default:d in
    Printf.printf "trace %s  request %d  %s  %.3f ms (queue %.3f ms%s)\n"
      (getf "?" (str "trace"))
      (getf (-1) (int "request"))
      (getf "?" (str "status")
      ^ match str "reason" with None -> "" | Some r -> " [" ^ r ^ "]")
      (getf Float.nan (num "latency_ms"))
      (getf Float.nan (num "queue_ms"))
      (match Option.bind (member "cache_hit" j) to_bool with
      | Some true -> ", cache hit"
      | _ -> "");
    (match member "spans" j with
    | Some (Arr spans) ->
        let span_field s k conv = Option.bind (member k s) conv in
        List.iter
          (fun s ->
            let id = getf (-1) (span_field s "id" to_int) in
            let parent = getf (-1) (span_field s "parent" to_int) in
            (* indentation = tree depth, recovered by walking parents *)
            let depth =
              let rec up p acc =
                if p < 0 then acc
                else
                  match
                    List.find_opt
                      (fun s' -> span_field s' "id" to_int = Some p)
                      spans
                  with
                  | None -> acc
                  | Some s' ->
                      up (getf (-1) (span_field s' "parent" to_int)) (acc + 1)
              in
              up parent 0
            in
            let fields =
              match member "fields" s with
              | Some (Obj kvs) when kvs <> [] ->
                  "  {"
                  ^ String.concat ", "
                      (List.map (fun (k, v) -> k ^ "=" ^ render v) kvs)
                  ^ "}"
              | _ -> ""
            in
            Printf.printf "  %s%-14s %8.3f ms  @%.3f%s\n"
              (String.make (2 * depth) ' ')
              (getf "?" (span_field s "name" to_str))
              (getf Float.nan (span_field s "dur_ms" to_float))
              (getf Float.nan (span_field s "start_ms" to_float))
              fields;
            ignore id)
          spans
    | _ -> ());
    print_newline ()
  in
  let run file trace_filter status_filter limit stats =
    exit0_on_epipe @@ fun () ->
    setup_logs ();
    let text =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (match Obs.Journal.validate_text text with
    | Ok n -> Printf.printf "journal: %d line(s), schema ok\n" n
    | Error msg ->
        Printf.printf "journal: SCHEMA VIOLATION — %s\n" msg;
        if stats then exit 1);
    if stats then begin
      let a = Obs.Journal.aggregate_of_text text in
      Printf.printf
        "requests %d | served %d | degraded %d | shed %d\n\
         latency p50 %.3f ms | p99 %.3f ms | max %.3f ms\n"
        a.Obs.Journal.requests a.Obs.Journal.served a.Obs.Journal.degraded
        a.Obs.Journal.shed a.Obs.Journal.latency_p50 a.Obs.Journal.latency_p99
        a.Obs.Journal.latency_max
    end
    else begin
      print_newline ();
      let shown = ref 0 in
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if line <> "" && (limit <= 0 || !shown < limit) then
               match Telemetry.Export.parse line with
               | exception Telemetry.Export.Parse_error _ -> ()
               | j ->
                   let keep =
                     (match trace_filter with
                     | None -> true
                     | Some want ->
                         Option.bind (Telemetry.Export.member "trace" j)
                           Telemetry.Export.to_str
                         = Some want)
                     && (match status_filter with
                        | None -> true
                        | Some want ->
                            Option.bind (Telemetry.Export.member "status" j)
                              Telemetry.Export.to_str
                            = Some want)
                   in
                   if keep then begin
                     incr shown;
                     print_entry j
                   end);
      if !shown = 0 then print_endline "(no matching requests)"
    end
  in
  let term =
    Term.(
      const run $ file_arg $ trace_arg $ status_arg $ limit_arg $ stats_arg)
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:
         "Inspect a span journal: schema-validate it, then pretty-print the \
          per-request span trees (filter by $(b,--trace) id or \
          $(b,--status)), or summarise it with $(b,--stats).")
    term

(* repro scale: the million-vertex pipeline — approximate kNN graph
   build, heavy-edge coarsening, multigrid-preconditioned hard solve —
   run end to end with a per-stage telemetry breakdown.  Exits non-zero
   when a scaling contract is violated (recall floor missed, multigrid
   not reducing CG iterations, solutions diverging). *)
let scale_cmd =
  let count_arg =
    let doc =
      "Number of synthetic points (Model 1).  The pipeline is built for \
       $(docv) in the millions; the default keeps the demo under a minute."
    in
    Arg.(value & opt int 100_000 & info [ "count" ] ~docv:"N" ~doc)
  in
  let labeled_arg =
    let doc = "Number of labeled points (0 = count/200, the sparse regime)." in
    Arg.(value & opt int 0 & info [ "labeled" ] ~docv:"L" ~doc)
  in
  let k_arg =
    let doc = "Neighbours per vertex in the kNN graph." in
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc)
  in
  let recall_arg =
    let doc =
      "Recall floor for the approximate neighbour search; the build \
       escalates its probe budget until a sampled recall reaches $(docv)."
    in
    Arg.(value & opt float 0.9 & info [ "recall-target" ] ~docv:"R" ~doc)
  in
  let exact_arg =
    let doc =
      "Also build the exact kNN graph, which scans all n² pairs into the \
       same (distance², index) ranking the ANN search uses, and report \
       the wall-clock ratio (keep $(b,--count) modest with this on)."
    in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let no_flat_arg =
    let doc =
      "Skip the flat (Jacobi-preconditioned) CG comparison solve and its \
       iteration-reduction contract."
    in
    Arg.(value & flag & info [ "no-flat" ] ~doc)
  in
  let run count labeled k recall_target exact no_flat seed domains =
    setup_logs ();
    let domains = resolve_domains domains in
    if count < 16 then failwith "scale: --count must be at least 16";
    let labeled =
      if labeled = 0 then Stdlib.max 4 (count / 200) else labeled
    in
    if labeled >= count then failwith "scale: --labeled must be below --count";
    Telemetry.Registry.enable ();
    Telemetry.Registry.reset ();
    let time f =
      let t0 = Telemetry.Monotonic.now_ns () in
      let r = f () in
      (r, (Telemetry.Monotonic.now_ns () -. t0) *. 1e-6)
    in
    let failures = ref [] in
    let contract name ok detail =
      Printf.printf "  contract %-24s %s  (%s)\n" name
        (if ok then "ok" else "VIOLATED")
        detail;
      if not ok then failures := name :: !failures
    in
    Printf.printf
      "scale pipeline: %d vertices, %d labeled, k=%d, %d domain(s)\n\n%!" count
      labeled k domains;
    let rng = Prng.Rng.create seed in
    let samples =
      Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 count
    in
    let points = Array.map (fun s -> s.Dataset.Synthetic.x) samples in
    let labels =
      Array.init labeled (fun i -> samples.(i).Dataset.Synthetic.y)
    in
    let h = Kernel.Bandwidth.paper_rate ~d:5 labeled in
    let (w, info), ann_ms =
      time (fun () ->
          Kernel.Similarity.knn_approx ~kernel:Kernel.Kernel_fn.Rbf
            ~bandwidth:h ~k ~seed:(seed lxor 0xa55) ~recall_target points)
    in
    let edges = (Sparse.Csr.nnz w - count) / 2 in
    (match info with
    | Kernel.Similarity.Exact ->
        Printf.printf "graph    exact kNN (n below cutoff)  %10.1f ms  %d edges\n%!"
          ann_ms edges
    | Kernel.Similarity.Approximate { recall; probes; escalations; trees } ->
        Printf.printf
          "graph    ANN kNN  %10.1f ms  %d edges  recall %.3f  (%d trees, \
           %d-leaf probes, %d escalation(s))\n%!"
          ann_ms edges recall trees probes escalations);
    (* SplitMix64 over the CSR's row pointers, columns and value bits,
       and over the multigrid solution's bits: equal digests across
       domain counts witness a bit-identical graph and answer *)
    let mix h v = Prng.Splitmix64.mix (Int64.logxor h v) in
    let ints h a = Array.fold_left (fun h x -> mix h (Int64.of_int x)) h a in
    let floats h a =
      Array.fold_left (fun h v -> mix h (Int64.bits_of_float v)) h a
    in
    Printf.printf "graph    digest %016Lx\n%!"
      (floats
         (ints (ints 0L w.Sparse.Csr.row_ptr) w.Sparse.Csr.col_idx)
         w.Sparse.Csr.values);
    (match exact with
    | false -> ()
    | true ->
        let _, exact_ms =
          time (fun () ->
              Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:h
                ~k points)
        in
        Printf.printf
          "         exact kNN reference   %10.1f ms  (%.1fx slower)\n%!" exact_ms
          (exact_ms /. Stdlib.max 1e-9 ann_ms));
    let problem =
      Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_sparse w) ~labels
    in
    let (w22, deg, _b), asm_ms =
      time (fun () -> Gssl.Scalable.system_lap problem)
    in
    let hier, coarsen_ms =
      time (fun () -> Sparse.Coarsen.build ~w:w22 ~diag:deg ())
    in
    let sizes =
      String.concat " > "
        (List.init (Sparse.Coarsen.depth hier) (fun l ->
             string_of_int (Sparse.Coarsen.level_size hier l)))
    in
    Printf.printf "system   assembly %9.1f ms   coarsening %8.1f ms\n%!" asm_ms
      coarsen_ms;
    Printf.printf "levels   %s\n%!" sizes;
    let iters_before () = Telemetry.Counter.get "cg.iterations" in
    let solve precond =
      let before = iters_before () in
      let x, ms =
        time (fun () ->
            Gssl.Scalable.solve_hard ~tol:1e-8 ~precond ~unanchored:`Impute
              problem)
      in
      (x, ms, iters_before () - before)
    in
    let mg_x, mg_ms, mg_iters = solve `Multigrid in
    Printf.printf "solve    multigrid CG %8.1f ms   %4d iteration(s)\n%!" mg_ms
      mg_iters;
    Printf.printf "solution digest %016Lx\n%!" (floats 0L mg_x);
    let imputed = Telemetry.Counter.get "gssl.scalable_imputed" in
    if imputed > 0 then
      Printf.printf "         (%d unanchored vertex/vertices imputed to the \
                     labeled mean)\n"
        imputed;
    print_newline ();
    (match info with
    | Kernel.Similarity.Exact -> ()
    | Kernel.Similarity.Approximate { recall; _ } ->
        contract "ann_recall" (recall >= recall_target)
          (Printf.sprintf "%.3f >= %.2f" recall recall_target));
    if not no_flat then begin
      let flat_x, flat_ms, flat_iters = solve `Jacobi in
      Printf.printf "  flat (Jacobi) CG %8.1f ms   %4d iteration(s)\n%!" flat_ms
        flat_iters;
      let diff = ref 0. in
      Array.iteri
        (fun i v -> diff := Stdlib.max !diff (abs_float (v -. flat_x.(i))))
        mg_x;
      let scale_ref =
        Array.fold_left (fun a v -> Stdlib.max a (abs_float v)) 1. flat_x
      in
      contract "mg_iteration_reduction" (mg_iters < flat_iters)
        (Printf.sprintf "%d < %d" mg_iters flat_iters);
      (* Both solves stop at the same relative residual (1e-8), but the
         forward error each carries grows with the conditioning — and CG
         needs ~sqrt(kappa) iterations, so iters^2 is a measured proxy
         for kappa that keeps the bound meaningful from 10^3 to 10^6
         vertices.  A broken preconditioner disagrees at O(1), orders of
         magnitude past this. *)
      let kappa_est = float_of_int (Stdlib.max 1 (Stdlib.max flat_iters mg_iters)) in
      let agree_tol = Stdlib.max 1e-6 (1e-8 *. kappa_est *. kappa_est) in
      contract "solver_agreement" (!diff <= agree_tol *. scale_ref)
        (Printf.sprintf "max|mg - flat| = %.2e (tol %.1e)" !diff
           (agree_tol *. scale_ref))
    end;
    print_newline ();
    print_string (Telemetry.Export.to_text ());
    Telemetry.Registry.disable ();
    Telemetry.Registry.reset ();
    match !failures with
    | [] -> ()
    | fs ->
        Printf.eprintf "scale: %d contract(s) violated: %s\n" (List.length fs)
          (String.concat ", " (List.rev fs));
        exit 1
  in
  let term =
    Term.(
      const run $ count_arg $ labeled_arg $ k_arg $ recall_arg $ exact_arg
      $ no_flat_arg $ seed_arg 11 $ domains_arg)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Million-vertex scaling demo: approximate kNN graph construction, \
          heavy-edge coarsening, and a multigrid-preconditioned hard solve, \
          with a telemetry breakdown and enforced scaling contracts.")
    term

let all_cmd =
  let run reps seed markdown no_plot profile profile_json trace_out =
    setup_logs ();
    with_profile profile profile_json trace_out (fun () ->
        let plot = not no_plot in
        let show = print_figure ~markdown ~plot ~svg:None in
        print_string (Experiment.Figures.toy_demo ~n:20 ~m:10 ~seed:42);
        print_newline ();
        show (Experiment.Figures.fig1 ~reps ~seed ());
        show (Experiment.Figures.fig2 ~reps ~seed:(seed + 1) ());
        show (Experiment.Figures.fig3 ~reps ~seed:(seed + 2) ());
        show (Experiment.Figures.fig4 ~reps ~seed:(seed + 3) ());
        show
          (Experiment.Figures.fig5
             ~reps:(Stdlib.max 1 (reps / 10))
             ~seed:(seed + 4) ());
        show (Experiment.Figures.consistency_demo ~seed:(seed + 5) ());
        print_string (Experiment.Figures.complexity_table ~seed:(seed + 6) ()))
  in
  let term =
    Term.(
      const run $ reps_arg 10 $ seed_arg 1 $ markdown_arg $ no_plot_arg
      $ profile_arg $ profile_json_arg $ trace_out_arg)
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every reproduction in sequence.") term

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'On Consistency of Graph-based Semi-supervised \
         Learning' (Du, Zhao & Wang)."
  in
  let group =
    Cmd.group info
      [
        fig1_cmd; fig2_cmd; fig3_cmd; fig4_cmd; fig5_cmd; toy_cmd; consistency_cmd;
        complexity_cmd; ablation_cmd; baselines_cmd; future_cmd; robust_cmd;
        health_cmd; artifacts_cmd; soak_cmd; serve_cmd; client_cmd;
        netsoak_cmd; top_cmd; journal_cmd; scale_cmd; all_cmd;
      ]
  in
  exit (Cmd.eval group)
