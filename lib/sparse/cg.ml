module Vec = Linalg.Vec

type outcome = {
  solution : Vec.t;
  iterations : int;
  residual_norm : float;
  best_residual : float;
  converged : bool;
  breakdown : bool;
  aborted : bool;
}

let c_solves = Telemetry.Counter.make "cg.solves"
let c_iterations = Telemetry.Counter.make "cg.iterations"
let c_matvecs = Telemetry.Counter.make "cg.matvecs"
let c_converged = Telemetry.Counter.make "cg.converged"

(* operator application, counted so the telemetry report can explain a
   solve's cost in matvecs rather than wall-clock alone *)
let apply (op : Linop.t) x y =
  Telemetry.Counter.incr c_matvecs;
  op.Linop.apply x y

let solve_impl ?x0 ?(tol = 1e-10) ?max_iter ?(precondition = true)
    ?precond_apply ?(should_stop = fun () -> false) (op : Linop.t) b =
  let n = op.Linop.dim in
  if Array.length b <> n then invalid_arg "Cg.solve: length mismatch";
  let max_iter = match max_iter with Some k -> k | None -> 10 * n in
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  if Option.is_some x0 && Array.length x <> n then
    invalid_arg "Cg.solve: x0 length mismatch";
  Telemetry.Counter.incr c_solves;
  let inv_diag =
    if precondition && Option.is_none precond_apply then
      Some (Array.map (fun d -> if abs_float d > 1e-300 then 1. /. d else 1.) (op.Linop.diag ()))
    else None
  in
  (* z ← M⁻¹ r.  A caller-supplied preconditioner (e.g. a multigrid
     V-cycle) takes precedence over the built-in Jacobi diagonal; it must
     apply a fixed SPD operator for the PCG recurrences to stay valid *)
  let apply_precond r z =
    match precond_apply with
    | Some f when precondition -> f r z
    | _ -> (
        match inv_diag with
        | None -> Array.blit r 0 z 0 n
        | Some m ->
            for i = 0 to n - 1 do
              z.(i) <- m.(i) *. r.(i)
            done)
  in
  let b_norm = Vec.norm2 b in
  if b_norm = 0. then begin
    Telemetry.Counter.incr c_converged;
    { solution = Vec.zeros n; iterations = 0; residual_norm = 0.;
      best_residual = 0.; converged = true; breakdown = false;
      aborted = false }
  end
  else begin
    let threshold = tol *. b_norm in
    (* the whole workspace, allocated once: every iteration below
       overwrites these four vectors in place *)
    let r = Vec.zeros n and z = Vec.zeros n in
    let p = Vec.zeros n and ap = Vec.zeros n in
    (* r = b - A x *)
    apply op x ap;
    for i = 0 to n - 1 do
      r.(i) <- b.(i) -. ap.(i)
    done;
    apply_precond r z;
    Array.blit z 0 p 0 n;
    let rz = ref (Vec.dot r z) in
    let iterations = ref 0 in
    let res = ref (Vec.norm2 r) in
    let best = ref !res in
    let breakdown = ref false in
    let aborted = ref false in
    while
      (not !breakdown) && (not !aborted) && !res > threshold
      && !iterations < max_iter
    do
      (* cooperative cancellation: a deadline-carrying caller can stop the
         iteration between steps instead of waiting out the hard cap *)
      if should_stop () then aborted := true
      else begin
      incr iterations;
      Telemetry.Counter.incr c_iterations;
      apply op p ap;
      let pap = Vec.dot p ap in
      if pap <= 0. || not (Float.is_finite pap) then
        (* pᵀAp ≤ 0 (or NaN): the operator is not SPD along this search
           direction, so the α update would diverge — stop and report the
           breakdown distinctly from plain non-convergence *)
        breakdown := true
      else begin
        let alpha = !rz /. pap in
        Vec.axpy alpha p x;
        Vec.axpy (-.alpha) ap r;
        res := Vec.norm2 r;
        if !res < !best then best := !res;
        if !res > threshold then begin
          apply_precond r z;
          let rz' = Vec.dot r z in
          let beta = rz' /. !rz in
          rz := rz';
          (* p ← z + β·p *)
          for i = 0 to n - 1 do
            p.(i) <- (beta *. p.(i)) +. z.(i)
          done
        end
      end
      end
    done;
    let converged = (not !breakdown) && (not !aborted) && !res <= threshold in
    if converged then Telemetry.Counter.incr c_converged;
    { solution = x; iterations = !iterations; residual_norm = !res;
      best_residual = !best; converged; breakdown = !breakdown;
      aborted = !aborted }
  end

let solve ?x0 ?tol ?max_iter ?precondition ?precond_apply ?should_stop op b =
  Telemetry.Span.with_ "cg.solve"
    ~fields:[ ("dim", Telemetry.Span.Int op.Linop.dim) ]
    (fun () ->
      let out =
        solve_impl ?x0 ?tol ?max_iter ?precondition ?precond_apply
          ?should_stop op b
      in
      (* iteration-count distribution, so benches can compare
         preconditioned vs flat solves by iterations, not wall alone *)
      Obs.Histogram.observe "cg.iterations" (float_of_int out.iterations);
      Telemetry.Span.annotate
        [
          ("iterations", Telemetry.Span.Int out.iterations);
          ("converged", Telemetry.Span.Bool out.converged);
          ("aborted", Telemetry.Span.Bool out.aborted);
          ("residual", Telemetry.Span.Float out.residual_norm);
        ];
      out)

let ensure_converged op b (out : outcome) =
  if not out.converged then begin
    let cause =
      if out.breakdown then "non-SPD breakdown (p^T A p <= 0)"
      else if out.aborted then "cooperative abort (should_stop)"
      else "no convergence"
    in
    let n = op.Linop.dim in
    failwith
      (Printf.sprintf
         "Cg.solve_exn: %s on %dx%d system after %d iteration(s) (final residual %g, rhs norm %g)"
         cause n n out.iterations out.residual_norm (Vec.norm2 b))
  end

let solve_exn ?x0 ?tol ?max_iter ?precondition ?precond_apply ?should_stop op b
    =
  let out =
    solve ?x0 ?tol ?max_iter ?precondition ?precond_apply ?should_stop op b
  in
  ensure_converged op b out;
  out.solution
