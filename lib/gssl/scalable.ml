module Vec = Linalg.Vec

let c_solves = Telemetry.Counter.make "gssl.scalable_solves"
let c_stationary_solves = Telemetry.Counter.make "gssl.scalable_stationary_solves"
let c_mg_solves = Telemetry.Counter.make "gssl.scalable_mg_solves"
let c_imputed = Telemetry.Counter.make "gssl.scalable_imputed"

(* Fused form of the same system: A = diag(deg') − W₂₂ where deg'_v =
   d_v − w_vv folds the self-loop into the degree and W₂₂ holds only
   the off-diagonal unlabeled-block weights.  The solvers stream W₂₂
   through Csr.lap_mv / Stationary.solve_lap, so A is never assembled
   and each operator application is one pass with no intermediate
   vector. *)
let system_lap problem =
  let n = Problem.n_labeled problem and m = Problem.n_unlabeled problem in
  let g = problem.Problem.graph in
  let d = Problem.degrees problem in
  let y = problem.Problem.labels in
  let coo = Sparse.Coo.create m m in
  let rhs = Vec.zeros m in
  let deg =
    Array.init m (fun a ->
        let v = n + a in
        d.(v) -. Graph.Weighted_graph.weight g v v)
  in
  Graph.Weighted_graph.iter_edges g (fun i j w ->
      if i >= n && j >= n then begin
        Sparse.Coo.add coo (i - n) (j - n) w;
        Sparse.Coo.add coo (j - n) (i - n) w
      end
      else if i < n && j >= n then rhs.(j - n) <- rhs.(j - n) +. (w *. y.(i))
      else if j < n && i >= n then rhs.(i - n) <- rhs.(i - n) +. (w *. y.(j)));
  (Sparse.Csr.of_coo coo, deg, rhs)

let system_csr problem =
  let n = Problem.n_labeled problem and m = Problem.n_unlabeled problem in
  let g = problem.Problem.graph in
  let d = Problem.degrees problem in
  let y = problem.Problem.labels in
  let coo = Sparse.Coo.create m m in
  let rhs = Vec.zeros m in
  (* diagonal: full degree minus the self-loop weight *)
  for a = 0 to m - 1 do
    let v = n + a in
    Sparse.Coo.add coo a a (d.(v) -. Graph.Weighted_graph.weight g v v)
  done;
  (* off-diagonals and right-hand side from the edge list *)
  Graph.Weighted_graph.iter_edges g (fun i j w ->
      if i >= n && j >= n then begin
        Sparse.Coo.add coo (i - n) (j - n) (-.w);
        Sparse.Coo.add coo (j - n) (i - n) (-.w)
      end
      else if i < n && j >= n then rhs.(j - n) <- rhs.(j - n) +. (w *. y.(i))
      else if j < n && i >= n then rhs.(i - n) <- rhs.(i - n) +. (w *. y.(j)));
  (Sparse.Csr.of_coo coo, rhs)

(* Restrict the fused system to the anchored unlabeled vertices.  Exact,
   not approximate: unanchored components share no edges with anchored
   ones, so dropping their rows/columns decouples nothing. *)
let restrict_system w22 deg b mask =
  let m = Array.length mask in
  let sel = Array.make m (-1) in
  let count = ref 0 in
  for a = 0 to m - 1 do
    if mask.(a) then begin
      sel.(a) <- !count;
      incr count
    end
  done;
  let ms = !count in
  let coo = Sparse.Coo.create ms ms in
  for a = 0 to m - 1 do
    if mask.(a) then
      Sparse.Csr.iter_row w22 a (fun c w ->
          if mask.(c) then Sparse.Coo.add coo sel.(a) sel.(c) w)
  done;
  let sdeg = Vec.zeros ms and sb = Vec.zeros ms in
  for a = 0 to m - 1 do
    if mask.(a) then begin
      sdeg.(sel.(a)) <- deg.(a);
      sb.(sel.(a)) <- b.(a)
    end
  done;
  (Sparse.Csr.of_coo coo, sdeg, sb, sel)

let solve_hard ?(tol = 1e-10) ?max_iter ?(observe = false)
    ?(precond = `Jacobi) ?should_stop ?(unanchored = `Raise) problem =
  Telemetry.Span.with_ "gssl.scalable_solve" @@ fun () ->
  Telemetry.Counter.incr c_solves;
  (match precond with
  | `Multigrid -> Telemetry.Counter.incr c_mg_solves
  | `Jacobi -> ());
  let m_all = Problem.n_unlabeled problem in
  if m_all = 0 then [||]
  else begin
    let mask =
      match unanchored with
      | `Raise ->
          Hard.check_anchored problem;
          Array.make m_all true
      | `Impute -> Problem.anchored_mask problem
    in
    let w22, deg, b = system_lap problem in
    let w22, deg, b, sel =
      if Array.for_all Fun.id mask then (w22, deg, b, None)
      else begin
        let w, d, rhs, sel = restrict_system w22 deg b mask in
        (w, d, rhs, Some sel)
      end
    in
    let m = Vec.dim b in
    let solution =
      if m = 0 then [||]
      else begin
        let op =
          Sparse.Linop.of_fun ~dim:m
            ~diag:(fun () ->
              let wd = Sparse.Csr.diagonal w22 in
              Array.init m (fun i -> deg.(i) -. wd.(i)))
            (fun x -> Sparse.Csr.lap_mv w22 ~deg x)
        in
        let precond_apply =
          match precond with
          | `Jacobi -> None
          | `Multigrid ->
              let mg = Sparse.Multigrid.build ~w:w22 ~diag:deg () in
              Some (Sparse.Multigrid.precondition mg)
        in
        if not observe then begin
          let out =
            Sparse.Cg.solve ~tol ?max_iter ?precond_apply ?should_stop op b
          in
          Sparse.Cg.ensure_converged op b out;
          out.Sparse.Cg.solution
        end
        else begin
          let out =
            Sparse.Cg.solve ~tol ?max_iter ?precond_apply ?should_stop op b
          in
          let convergence =
            Obs.Health.convergence ~iterations:out.Sparse.Cg.iterations
              ~final_residual:out.Sparse.Cg.residual_norm
              ~best_residual:out.Sparse.Cg.best_residual
              ~converged:out.Sparse.Cg.converged
          in
          let cond =
            (* matrix-free estimate: power iteration on the operator and on
               its inverse through an uncapped preconditioned CG solve *)
            Obs.Health.cond_estimate ~dim:(Vec.dim b)
              ~apply:op.Sparse.Linop.apply
              ~solve:(fun v ->
                (Sparse.Cg.solve ~precondition:true op v).Sparse.Cg.solution)
              ()
          in
          let rung =
            match precond with `Jacobi -> "cg" | `Multigrid -> "mg_cg"
          in
          let cert =
            Obs.Health.certify ~system:"gssl.scalable" ~rung ~cond ~convergence
              ~apply:op.Sparse.Linop.apply ~b out.Sparse.Cg.solution
          in
          Obs.Health.record cert;
          (* certificate recorded even when the solve failed; then enforce
             the same contract as the unobserved path *)
          Sparse.Cg.ensure_converged op b out;
          out.Sparse.Cg.solution
        end
      end
    in
    match sel with
    | None -> solution
    | Some sel ->
        (* unanchored vertices carry no information from the labels: fill
           them with the labeled mean, the hard criterion's degenerate
           limit for an unanchored component (Prop II.2) *)
        let ybar = Stats.Descriptive.mean problem.Problem.labels in
        let out =
          Array.init m_all (fun a ->
              if sel.(a) >= 0 then solution.(sel.(a))
              else begin
                Telemetry.Counter.incr c_imputed;
                ybar
              end)
        in
        out
  end

let solve ?tol ?max_iter ?observe problem =
  solve_hard ?tol ?max_iter ?observe problem

let solve_stationary ?(tol = 1e-10) ?max_iter method_ problem =
  Telemetry.Span.with_ "gssl.scalable_stationary_solve" @@ fun () ->
  Telemetry.Counter.incr c_stationary_solves;
  if Problem.n_unlabeled problem = 0 then [||]
  else begin
    Hard.check_anchored problem;
    let w22, deg, b = system_lap problem in
    let out = Sparse.Stationary.solve_lap ~tol ?max_iter method_ ~w:w22 ~deg b in
    if not out.Sparse.Stationary.converged then
      failwith
        (Printf.sprintf
           "Scalable.solve_stationary: no convergence after %d iterations"
           out.Sparse.Stationary.iterations);
    out.Sparse.Stationary.solution
  end
