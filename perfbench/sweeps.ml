(* The figures workload: the paper's Figs. 1-4 through
   [Experiment.Figures], a fixed reduced replicate count on a 2-domain
   pool, every series mean checked against a stored reference. *)

open Perfbench_core

let reps = 2
let domains = 2

(* References are stored for [keys] seed classes: a run with seed [s]
   sweeps the figure seeds of class [s mod keys]. *)
let keys = 8

(* Relative tolerance on a series mean.  Sweeps are bit-reproducible for
   any domain count, so this only absorbs floating-point differences
   between compilers and machines. *)
let tolerance = 1e-9

let key_of seed = ((seed mod keys) + keys) mod keys

let figures key =
  let seed k = (100 * key) + k in
  Experiment.Figures.
    [ ("fig1", fun () -> fig1 ~domains ~reps ~seed:(seed 1) ());
      ("fig2", fun () -> fig2 ~domains ~reps ~seed:(seed 2) ());
      ("fig3", fun () -> fig3 ~domains ~reps ~seed:(seed 3) ());
      ("fig4", fun () -> fig4 ~domains ~reps ~seed:(seed 4) ()) ]

let reference_path = "perfbench/figures.ref"

let entries key name (r : Experiment.Sweep.figure_result) =
  List.concat_map
    (fun (s : Experiment.Sweep.series) ->
      List.init (Array.length s.means) (fun i ->
          (Printf.sprintf "%d %s %s %d" key name s.label i, s.means.(i))))
    r.Experiment.Sweep.series

(* Regenerate the stored reference (run once, by hand, from the repo root). *)
let write_reference path =
  let oc = open_out path in
  for key = 0 to keys - 1 do
    List.iter
      (fun (name, f) ->
        List.iter
          (fun (k, v) -> Printf.fprintf oc "%s %h\n" k v)
          (entries key name (f ())))
      (figures key)
  done;
  close_out oc

let load_reference path =
  let tbl = Hashtbl.create 1024 in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line ->
        (match String.rindex_opt line ' ' with
        | Some i ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (float_of_string (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> ());
        go ()
    | exception End_of_file -> close_in ic
  in
  go ();
  tbl

let close_enough a b =
  Float.abs (a -. b) <= tolerance *. Float.max (Float.abs a) (Float.abs b)

(* Replicates of a figure that fail: every replicate of a grid point whose
   series means do not all match the reference. *)
let check reference key name (r : Experiment.Sweep.figure_result) =
  let xs =
    match r.Experiment.Sweep.series with s :: _ -> Array.length s.xs | [] -> 0
  in
  let bad = Array.make xs false in
  List.iter
    (fun (s : Experiment.Sweep.series) ->
      Array.iteri
        (fun i v ->
          match Hashtbl.find_opt reference (Printf.sprintf "%d %s %s %d" key name s.label i) with
          | Some want when close_enough v want -> ()
          | _ -> bad.(i) <- true)
        s.means)
    r.Experiment.Sweep.series;
  (xs * reps, reps * Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad)

type pass = {
  wall_s : float;
  replicates : int;
  failed : int;
  problems : string list;
  hard_rmse : float list;  (** the λ = 0 series means: hard-criterion RMSE *)
  rss_mb : float;  (** this process's peak resident set during the pass *)
}

let hard_series (r : Experiment.Sweep.figure_result) =
  List.concat_map
    (fun (s : Experiment.Sweep.series) ->
      if s.label = "lambda=0" then Array.to_list s.means else [])
    r.Experiment.Sweep.series

let pass ?(figs = fun _ -> true) reference key =
  let t0 = Clock.now_s () in
  let results =
    List.map
      (fun (name, f) ->
        match f () with
        | r ->
            let att, bad = check reference key name r in
            ( att, bad,
              (if bad > 0 then [ Printf.sprintf "%s: %d replicate(s) off the reference" name bad ]
               else []),
              hard_series r )
        | exception e ->
            (* a raising figure fails all its replicates; 16 grid points
               is the widest figure *)
            (16 * reps, 16 * reps, [ Printf.sprintf "%s: %s" name (Printexc.to_string e) ], []))
      (List.filter (fun (name, _) -> figs name) (figures key))
  in
  { wall_s = Clock.now_s () -. t0;
    replicates = List.fold_left (fun a (x, _, _, _) -> a + x) 0 results;
    failed = List.fold_left (fun a (_, x, _, _) -> a + x) 0 results;
    problems = List.concat_map (fun (_, _, p, _) -> p) results;
    hard_rmse = List.concat_map (fun (_, _, _, h) -> h) results;
    rss_mb = nan }

(* Set-up (loading the reference, one untimed warm-up pass over Figs. 1-4,
   [figs] filtering them), then timed passes: at least [min_passes], more
   while another fits. *)
let run ?(figs = fun _ -> true) ?(min_passes = 1) ~seed ~seconds () =
  let (reference, warm), setup_s =
    Clock.time (fun () ->
        let reference = load_reference reference_path in
        (reference, pass ~figs reference (key_of seed)))
  in
  let key = key_of seed in
  let t0 = Clock.now_s () in
  let rec loop acc =
    (* each pass starts from a compacted heap, so its peak memory does not
       depend on what earlier passes left uncollected *)
    Gc.compact ();
    Launcher.reset_peak ();
    let p = pass ~figs reference key in
    let p = { p with rss_mb = Launcher.self_rss_mb () } in
    let acc = p :: acc in
    let spent = Clock.now_s () -. t0 in
    let n = List.length acc in
    if n < min_passes || spent +. (spent /. float_of_int n) <= seconds then loop acc else acc
  in
  let passes = loop [] in
  let sum f = List.fold_left (fun a p -> a +. f p) 0. passes in
  let checked = warm :: passes in
  let replicates = sum (fun p -> float_of_int p.replicates) in
  prerr_endline
    (Printf.sprintf "  %d pass(es), %.0f replicates in %.3f s" (List.length passes)
       replicates (sum (fun p -> p.wall_s)));
  let hard = Array.of_list warm.hard_rmse in
  { Out.metrics =
      [ Out.m "setup_s" "s" setup_s;
        Out.m "replicates_per_s" "1/s" (replicates /. sum (fun p -> p.wall_s));
        (* the paper's consistency quantity: mean hard-criterion RMSE *)
        Out.m "rmse" "score" (Array.fold_left ( +. ) 0. hard /. float_of_int (Array.length hard));
        (* the least peak over passes: garbage the two domains leave
           uncollected only ever adds to a pass's peak *)
        Out.m "rss_mb" "MiB" (List.fold_left (fun a p -> Float.min a p.rss_mb) infinity passes) ];
    attempted = List.fold_left (fun a p -> a + p.replicates) 0 checked;
    failed = List.fold_left (fun a p -> a + p.failed) 0 checked;
    problems = List.concat_map (fun p -> p.problems) checked }

(* ---------- traced run ---------- *)

let paper_ns = [ 10; 30; 50; 100; 200; 300; 500; 800; 1000; 1500 ]
let paper_ms = [ 30; 60; 100; 300; 500; 1000 ]

let layers ?figs tr ~seed =
  let reference = load_reference reference_path in
  let busy0 = Telemetry.Counter.get "parallel.pool.busy_ns" in
  let par0, all0 = Scaling.tune_counts () in
  let p =
    Tracer.with_span tr ~group:(Tracer.new_group tr) "experiment.figures_pass" (fun () ->
        pass ?figs reference (key_of seed))
  in
  let busy_frac =
    float_of_int (Telemetry.Counter.get "parallel.pool.busy_ns" - busy0) *. 1e-9
    /. (p.wall_s *. float_of_int domains)
  in
  let par1, all1 = Scaling.tune_counts () in
  (* one replicate per grid point of Figs. 1-2, through the public calls *)
  let replicate ~n ~m rng =
    let samples =
      Tracer.with_span tr "dataset.sample" (fun () ->
          Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 (n + m))
    in
    let h = Kernel.Bandwidth.paper_rate ~d:Dataset.Synthetic.dimension n in
    let problem, truth =
      Tracer.with_span tr "dataset.to_problem" (fun () ->
          Dataset.Synthetic.to_problem ~kernel:Kernel.Kernel_fn.Rbf
            ~bandwidth:(Kernel.Bandwidth.Fixed h) ~n_labeled:n samples)
    in
    List.fold_left
      (fun acc lambda ->
        let name = if lambda = 0. then "gssl.predict_hard" else "gssl.predict_soft" in
        let x =
          Tracer.with_span tr name (fun () ->
              Experiment.Figures.predict_adaptive ~lambda problem)
        in
        acc +. Stats.Metrics.rmse truth x)
      0. Experiment.Figures.default_lambdas
  in
  let grid = List.map (fun n -> (n, 30)) paper_ns @ List.map (fun m -> (100, m)) paper_ms in
  let times =
    List.mapi
      (fun i (n, m) ->
        snd
          (Clock.time (fun () ->
               Tracer.with_span tr ~group:(Tracer.new_group tr) "experiment.replicate" (fun () ->
                   ignore
                     (Experiment.Sweep.replicate ~seed:((seed * 31) + i) ~reps:1 (replicate ~n ~m))))))
      grid
  in
  let spans = Tracer.spans tr in
  let samples k = Array.of_list (List.init k Fun.id) in
  let median_ms k f = Pct.median (Array.map (fun _ -> snd (Clock.time f) *. 1e3) (samples k)) in
  let rng = Prng.Rng.create seed in
  let factor_system =
    let s = Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 430 in
    let prob, _ =
      Dataset.Synthetic.to_problem ~kernel:Kernel.Kernel_fn.Rbf
        ~bandwidth:(Kernel.Bandwidth.Fixed (Kernel.Bandwidth.paper_rate ~d:5 30))
        ~n_labeled:30 s
    in
    Gssl.Hard.system_matrix prob
  in
  let dense_points =
    Array.map (fun s -> s.Dataset.Synthetic.x)
      (Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 1530)
  in
  [ Out.m "experiment.replicate_ms" "ms"
      (1e3 *. List.fold_left ( +. ) 0. times /. float_of_int (List.length times));
    Out.m "gssl.hard_ms" "ms" (Tracer.mean_ms spans "gssl.predict_hard");
    Out.m "gssl.soft_ms" "ms" (Tracer.mean_ms spans "gssl.predict_soft");
    Out.m "linalg.cholesky_factor_ms" "ms"
      (median_ms 5 (fun () ->
           Tracer.with_span tr "linalg.cholesky_factor" (fun () ->
               ignore (Linalg.Cholesky.factor factor_system))));
    Out.m "kernel.similarity_dense_ms" "ms"
      (median_ms 3 (fun () ->
           Tracer.with_span tr "kernel.similarity_dense" (fun () ->
               ignore
                 (Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf
                    ~bandwidth:(Kernel.Bandwidth.paper_rate ~d:5 1500) dense_points))));
    Out.m "parallel.busy_frac" "frac" busy_frac;
    Out.m "parallel.tuned_parallel_frac" "frac"
      (float_of_int (par1 - par0) /. float_of_int (max 1 (all1 - all0))) ],
  p
