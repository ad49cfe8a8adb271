(* The scale workload: one approximate kNN graph over Model-1 points,
   then multigrid-preconditioned hard solves for nested label sets — the
   path [repro scale] takes. *)

open Perfbench_core

(* Nested label sets: the first 50, 200 and 1000 points are labeled. *)
let label_sets = [ 50; 200; 1000 ]

type cfg = {
  count : int;
  warmups : int;  (** untimed iterations first *)
  repeats : int;  (** timed iterations at least *)
}

let full = { count = 100_000; warmups = 0; repeats = 1 }

(* The short session the figures workload runs for the scale metrics: a
   warm-up, then the median of five. *)
let probe = { count = 10_000; warmups = 1; repeats = 5 }

let k = 8
let recall_target = 0.9

(* One tree more than [repro scale]'s default: with three, the sampled
   recall at 10^5 points straddles the 0.9 target, so about half of the
   seeds escalate and double the build time. *)
let trees = 4
let solve_tol = 1e-8

(* Relative residual a solve must meet on the assembled CSR system: the
   CG target with a margin for the recurrence's drift from the true
   residual. *)
let residual_tol = 1e-7

type inputs = {
  samples : Dataset.Synthetic.sample array;
  points : Linalg.Vec.t array;
  bandwidth : float;
}

let inputs cfg ~seed =
  let rng = Prng.Rng.create seed in
  let samples = Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 cfg.count in
  { samples;
    points = Array.map (fun s -> s.Dataset.Synthetic.x) samples;
    (* the bandwidth [repro scale] uses by default *)
    bandwidth = Kernel.Bandwidth.paper_rate ~d:5 (max 4 (cfg.count / 200)) }

let knn inp ~seed =
  Kernel.Similarity.knn_approx ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:inp.bandwidth
    ~k ~seed:(seed lxor 0xa55) ~trees ~recall_target inp.points

let problem inp graph l =
  Gssl.Problem.make ~graph
    ~labels:(Array.init l (fun i -> inp.samples.(i).Dataset.Synthetic.y))

let relative_residual p x =
  let a, b = Gssl.Scalable.system_csr p in
  let r = Linalg.Vec.sub b (Sparse.Csr.mv a x) in
  Linalg.Vec.norm2 r /. Float.max 1e-300 (Linalg.Vec.norm2 b)

let rmse inp l x =
  let truth =
    Array.init (Array.length x) (fun i -> inp.samples.(l + i).Dataset.Synthetic.q)
  in
  Stats.Metrics.rmse truth x

let solve ?(precond = `Multigrid) p =
  Gssl.Scalable.solve_hard ~tol:solve_tol ~precond ~unanchored:`Impute p

type iteration = {
  graph_s : float;
  solve_s : float;
  rmse : float;
  attempted : int;
  failed : int;
  problems : string list;
  rss_mb : float;  (** this process's peak resident set during the iteration *)
}

(* Collect the previous phase's garbage before timing the next, so no
   phase pays for another's heap. *)
let settled f =
  Gc.full_major ();
  Clock.time f

let iterate inp ~seed =
  let problems = ref [] in
  let (w, info), graph_s = settled (fun () -> knn inp ~seed) in
  let graph_failed =
    match info with
    | Kernel.Similarity.Approximate { recall; _ } when recall < recall_target ->
        problems := Printf.sprintf "ANN recall %.3f below %.2f" recall recall_target :: !problems;
        1
    | _ -> 0
  in
  let graph = Graph.Weighted_graph.of_sparse w in
  let solves =
    List.map
      (fun l ->
        let p = problem inp graph l in
        match settled (fun () -> solve p) with
        | x, dt ->
            let res = relative_residual p x in
            if res > residual_tol || not (Float.is_finite res) then
              problems := Printf.sprintf "%d labels: residual %.2e" l res :: !problems;
            (dt, rmse inp l x, if res <= residual_tol then 0 else 1)
        | exception e ->
            problems := Printf.sprintf "%d labels: %s" l (Printexc.to_string e) :: !problems;
            (nan, nan, 1))
      label_sets
  in
  let sum f = List.fold_left (fun a s -> a +. f s) 0. solves in
  { graph_s;
    solve_s = sum (fun (t, _, _) -> t);
    rmse = sum (fun (_, e, _) -> e) /. float_of_int (List.length solves);
    attempted = 1 + List.length solves;
    failed = graph_failed + List.fold_left (fun a (_, _, f) -> a + f) 0 solves;
    problems = List.rev !problems;
    rss_mb = nan }

(* [cfg.repeats] iterations at least, more while another fits in
   [seconds]; metrics are medians over iterations. *)
let run cfg ~seed ~seconds =
  (* set-up: drawing the inputs, three times for a median *)
  let redraws = List.init 2 (fun _ -> snd (settled (fun () -> inputs cfg ~seed))) in
  let inp, draw_s = settled (fun () -> inputs cfg ~seed) in
  let warm = List.init cfg.warmups (fun _ -> iterate inp ~seed) in
  let t0 = Clock.now_s () in
  let rec loop acc =
    Launcher.reset_peak ();
    let it = iterate inp ~seed in
    let it = { it with rss_mb = Launcher.self_rss_mb () } in
    let acc = it :: acc in
    let spent = Clock.now_s () -. t0 in
    let n = List.length acc in
    if n < cfg.repeats || spent +. (spent /. float_of_int n) <= seconds then loop acc
    else List.rev acc
  in
  let its = loop [] in
  let checked = warm @ its in
  let med f = Pct.median (Array.of_list (List.map f its)) in
  List.iter
    (fun it ->
      prerr_endline
        (Printf.sprintf "  %d points: graph %.3f s  solves %.3f s  rmse %.5f" cfg.count
           it.graph_s it.solve_s it.rmse))
    its;
  { Out.metrics =
      [ Out.m "setup_s" "s" (Pct.median (Array.of_list (draw_s :: redraws)));
        Out.m "graph_s" "s" (med (fun i -> i.graph_s));
        Out.m "solve_s" "s" (med (fun i -> i.solve_s));
        Out.m "rmse" "score" (med (fun i -> i.rmse));
        Out.m "rss_mb" "MiB" (med (fun i -> i.rss_mb)) ];
    attempted = List.fold_left (fun a i -> a + i.attempted) 0 checked;
    failed = List.fold_left (fun a i -> a + i.failed) 0 checked;
    problems = List.concat_map (fun i -> i.problems) checked }

(* ---------- traced run ---------- *)

let counter = Telemetry.Counter.get

let tune_counts () =
  List.fold_left
    (fun (par, all) (name, v) ->
      if not (String.starts_with ~prefix:"parallel.tune." name) then (par, all)
      else if String.ends_with ~suffix:".parallel" name then (par + v, all + v)
      else if String.ends_with ~suffix:".serial" name then (par, all + v)
      else (par, all))
    (0, 0) (Telemetry.Counter.snapshot ())

let domains = 2

let layers cfg tr ~seed =
  let inp = inputs cfg ~seed in
  let g = Tracer.new_group tr in
  let span name f = Tracer.with_span tr ~group:g name f in
  let busy0 = counter "parallel.pool.busy_ns" in
  let q0 = counter "graph.ann.queries" and c0 = counter "graph.ann.candidates" in
  let e0 = counter "graph.ann.escalations" in
  let par0, all0 = tune_counts () in
  let ann_ms name =
    List.fold_left
      (fun acc (path, _) ->
        if path = name || String.ends_with ~suffix:("/" ^ name) path then
          acc +. Telemetry.Span.total_ms path
        else acc)
      0. (Telemetry.Span.snapshot ())
  in
  let build0 = ann_ms "ann.build" and search0 = ann_ms "ann.search" in
  let (w, info), knn_s =
    settled (fun () -> span "kernel.knn_approx" (fun () -> knn inp ~seed))
  in
  let busy_frac =
    float_of_int (counter "parallel.pool.busy_ns" - busy0) *. 1e-9
    /. (knn_s *. float_of_int domains)
  in
  let par1, all1 = tune_counts () in
  let queries = counter "graph.ann.queries" - q0 in
  let candidates = counter "graph.ann.candidates" - c0 in
  let escalations = counter "graph.ann.escalations" - e0 in
  let recall =
    match info with Kernel.Similarity.Approximate { recall; _ } -> recall | Exact -> 1.
  in
  let graph = Graph.Weighted_graph.of_sparse w in
  let solve_with precond l =
    let p = problem inp graph l in
    let it0 = counter "cg.iterations" in
    let _, dt =
      settled (fun () ->
          Tracer.with_span tr ~group:(Tracer.new_group tr)
            (match precond with `Multigrid -> "gssl.solve_mg" | `Jacobi -> "gssl.solve_jacobi")
            (fun () -> solve ~precond p))
    in
    (dt, counter "cg.iterations" - it0)
  in
  let mg = List.map (solve_with `Multigrid) label_sets in
  let jacobi = List.map (solve_with `Jacobi) label_sets in
  let p = problem inp graph (List.hd label_sets) in
  let (w22, deg, _), lap_s =
    Clock.time (fun () -> span "gssl.system_lap" (fun () -> Gssl.Scalable.system_lap p))
  in
  let hier, coarsen_s =
    Clock.time (fun () -> span "sparse.coarsen" (fun () -> Sparse.Coarsen.build ~w:w22 ~diag:deg ()))
  in
  let mgh = Sparse.Multigrid.build ~w:w22 ~diag:deg () in
  let x = Array.init (Array.length deg) (fun i -> float_of_int (i mod 5) -. 2.) in
  let per_call name f =
    List.init 10 (fun _ -> snd (Clock.time (fun () -> span name f)) *. 1e3)
    |> Array.of_list |> Pct.median
  in
  let vcycle_ms = per_call "sparse.vcycle" (fun () -> ignore (Sparse.Multigrid.precondition mgh x)) in
  let lap_mv_ms = per_call "sparse.lap_mv" (fun () -> ignore (Sparse.Csr.lap_mv w22 ~deg x)) in
  let total f l = List.fold_left (fun a s -> a +. f s) 0. l in
  [ Out.m "kernel.knn_approx_s" "s" knn_s;
    (* the program's own [ann.build] / [ann.search] spans inside knn_approx *)
    Out.m "graph.ann_build_ms" "ms" (ann_ms "ann.build" -. build0);
    Out.m "graph.ann_search_s" "s" ((ann_ms "ann.search" -. search0) *. 1e-3);
    Out.m "graph.ann_recall" "frac" recall;
    Out.m "graph.ann_escalations" "count" (float_of_int escalations);
    Out.m "graph.ann_candidates_per_query" "count"
      (float_of_int candidates /. float_of_int (max 1 queries));
    Out.m "gssl.system_lap_ms" "ms" (lap_s *. 1e3);
    Out.m "gssl.solve_mg_s" "s" (total (fun (t, _) -> t) mg);
    Out.m "gssl.solve_jacobi_s" "s" (total (fun (t, _) -> t) jacobi);
    Out.m "sparse.coarsen_ms" "ms" (coarsen_s *. 1e3);
    Out.m "sparse.coarsen_levels" "count" (float_of_int (Sparse.Coarsen.depth hier));
    Out.m "sparse.vcycle_ms" "ms" vcycle_ms;
    Out.m "sparse.lap_mv_ms" "ms" lap_mv_ms;
    Out.m "sparse.cg_iterations_mg" "count" (total (fun (_, i) -> float_of_int i) mg);
    Out.m "sparse.cg_iterations_jacobi" "count" (total (fun (_, i) -> float_of_int i) jacobi);
    Out.m "parallel.busy_frac" "frac" busy_frac;
    Out.m "parallel.tuned_parallel_frac" "frac"
      (float_of_int (par1 - par0) /. float_of_int (max 1 (all1 - all0))) ]
