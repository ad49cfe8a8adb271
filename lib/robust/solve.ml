module Vec = Linalg.Vec
module Mat = Linalg.Mat

type escalation = { abandoned : string; reason : string }

type outcome = {
  solution : Vec.t;
  rung : string;
  escalations : escalation list;
  cg_attempts : Sparse.Cg.outcome list;
  aborted : bool;
}

(* One counter per fallback rung, incremented when the rung is entered as
   a fallback (never for the first rung of a chain), so a clean solve
   leaves every robust.fallback.* counter at zero. *)
let c_dense_qr = Telemetry.Counter.make "robust.fallback.dense_qr"
let c_dense_ridge = Telemetry.Counter.make "robust.fallback.dense_ridge"
let c_cg_restart = Telemetry.Counter.make "robust.fallback.cg_restart"
let c_gauss_seidel = Telemetry.Counter.make "robust.fallback.gauss_seidel"
let c_dense_direct = Telemetry.Counter.make "robust.fallback.dense_direct"

let all_finite = Array.for_all Float.is_finite

let abort_reason = "cooperative abort (should_stop)"

(* The causal position of each rung entered in the installed request
   trace: a zero-duration event (a no-op outside a traced request). *)
let mark name = Telemetry.Span.event ("rung." ^ name)

let solve_dense ?(should_stop = fun () -> false) a b =
  if not (Mat.is_square a) then
    invalid_arg "Robust.Solve.solve_dense: matrix not square";
  if Array.length b <> a.Mat.rows then
    invalid_arg "Robust.Solve.solve_dense: length mismatch";
  let escalations = ref [] in
  let aborted = ref false in
  let note abandoned reason =
    escalations := { abandoned; reason } :: !escalations
  in
  let finish rung solution =
    { solution; rung; escalations = List.rev !escalations; cg_attempts = [];
      aborted = !aborted }
  in
  (* Between-rung deadline gate: a dense rung is a whole factorization, so
     the only cooperative stopping points are the rung boundaries.  An
     abort skips the remaining (more expensive) rungs and returns the
     zeros last resort, flagged [aborted]. *)
  let gate next_rung k =
    if should_stop () then begin
      aborted := true;
      note next_rung abort_reason;
      finish "ridge" (Vec.zeros a.Mat.rows)
    end
    else k ()
  in
  let ridge () =
    Telemetry.Counter.incr c_dense_ridge;
    mark "ridge";
    let n = a.Mat.rows in
    let scale =
      Array.fold_left
        (fun acc v -> if Float.is_finite v then Stdlib.max acc (abs_float v) else acc)
        1. (Mat.get_diag a)
    in
    let rec attempt eps tries =
      if tries = 0 then Vec.zeros n
      else
        match Linalg.Cholesky.solve (Mat.add_scaled_identity a eps) b with
        | x when all_finite x -> x
        | _ -> attempt (eps *. 1e3) (tries - 1)
        | exception _ -> attempt (eps *. 1e3) (tries - 1)
    in
    attempt (1e-10 *. scale) 7
  in
  let qr () =
    gate "qr" @@ fun () ->
    Telemetry.Counter.incr c_dense_qr;
    mark "qr";
    match Linalg.Qr.solve_least_squares a b with
    | x when all_finite x -> finish "qr" x
    | _ ->
        note "qr" "least-squares solution not finite";
        finish "ridge" (ridge ())
    | exception e ->
        note "qr" (Printexc.to_string e);
        finish "ridge" (ridge ())
  in
  mark "cholesky";
  match Linalg.Cholesky.solve a b with
  | x when all_finite x -> finish "cholesky" x
  | _ ->
      note "cholesky" "solution not finite";
      qr ()
  | exception Linalg.Cholesky.Not_positive_definite k ->
      note "cholesky" (Printf.sprintf "non-positive pivot at column %d" k);
      qr ()
  | exception e ->
      note "cholesky" (Printexc.to_string e);
      qr ()

let describe_cg (out : Sparse.Cg.outcome) =
  if out.Sparse.Cg.breakdown then
    Printf.sprintf "non-SPD curvature (p'Ap <= 0) after %d iterations"
      out.Sparse.Cg.iterations
  else if out.Sparse.Cg.aborted then
    Printf.sprintf "%s after %d iterations (residual %.3g)" abort_reason
      out.Sparse.Cg.iterations out.Sparse.Cg.residual_norm
  else
    Printf.sprintf "no convergence after %d iterations (residual %.3g)"
      out.Sparse.Cg.iterations out.Sparse.Cg.residual_norm

let solve_sparse ?(tol = 1e-10) ?cg_max_iter ?(should_stop = fun () -> false)
    (a : Sparse.Csr.t) b =
  let rows, cols = Sparse.Csr.dims a in
  if rows <> cols then invalid_arg "Robust.Solve.solve_sparse: matrix not square";
  if Array.length b <> rows then
    invalid_arg "Robust.Solve.solve_sparse: length mismatch";
  let op = Sparse.Linop.of_csr a in
  let escalations = ref [] in
  let aborted = ref false in
  let note abandoned reason =
    escalations := { abandoned; reason } :: !escalations
  in
  (* every CG outcome along the chain, oldest first, so callers can
     summarise the convergence curve in a health certificate *)
  let attempts = ref [] in
  let attempt out =
    attempts := out :: !attempts;
    out
  in
  let finish rung solution =
    { solution; rung; escalations = List.rev !escalations;
      cg_attempts = List.rev !attempts; aborted = !aborted }
  in
  (* The best iterate seen so far — what an abort hands back rather than
     pretending there is no answer at all. *)
  let best_iterate () =
    match !attempts with
    | out :: _ when all_finite out.Sparse.Cg.solution -> out.Sparse.Cg.solution
    | _ -> Vec.zeros rows
  in
  (* the rung whose (partial) iterate [best_iterate] returns *)
  let current_rung = ref "cg" in
  let abort_from rung_entered =
    aborted := true;
    note rung_entered abort_reason;
    finish !current_rung (best_iterate ())
  in
  let dense_direct () =
    if should_stop () then abort_from "dense_direct"
    else begin
      Telemetry.Counter.incr c_dense_direct;
      mark "dense_direct";
      let inner = solve_dense ~should_stop (Sparse.Csr.to_dense a) b in
      escalations := List.rev_append inner.escalations !escalations;
      aborted := !aborted || inner.aborted;
      finish ("dense_direct:" ^ inner.rung) inner.solution
    end
  in
  let gauss_seidel () =
    if should_stop () then abort_from "gauss_seidel"
    else begin
      Telemetry.Counter.incr c_gauss_seidel;
      mark "gauss_seidel";
      match Sparse.Stationary.solve ~tol Sparse.Stationary.Gauss_seidel a b with
      | out
        when out.Sparse.Stationary.converged
             && all_finite out.Sparse.Stationary.solution ->
          finish "gauss_seidel" out.Sparse.Stationary.solution
      | out ->
          note "gauss_seidel"
            (Printf.sprintf "no convergence after %d sweeps (residual %.3g)"
               out.Sparse.Stationary.iterations out.Sparse.Stationary.residual_norm);
          dense_direct ()
      | exception Invalid_argument msg ->
          note "gauss_seidel" msg;
          dense_direct ()
    end
  in
  let rec restart_loop k x0 =
    current_rung := "cg_restarted";
    mark "cg_restarted";
    let out =
      attempt
        (Sparse.Cg.solve ?x0 ~precondition:true ~tol ?max_iter:cg_max_iter
           ~should_stop op b)
    in
    if out.Sparse.Cg.converged && all_finite out.Sparse.Cg.solution then
      finish "cg_restarted" out.Sparse.Cg.solution
    else if out.Sparse.Cg.aborted then begin
      (* deadline reached mid-iteration: stop escalating, hand back the
         partial iterate *)
      aborted := true;
      note "cg_restarted" (describe_cg out);
      finish "cg_restarted" out.Sparse.Cg.solution
    end
    else if out.Sparse.Cg.breakdown || k <= 1 then begin
      note "cg_restarted" (describe_cg out);
      gauss_seidel ()
    end
    else restart_loop (k - 1) (Some out.Sparse.Cg.solution)
  in
  mark "cg";
  let out =
    attempt
      (Sparse.Cg.solve ~precondition:false ~tol ?max_iter:cg_max_iter
         ~should_stop op b)
  in
  if out.Sparse.Cg.converged && all_finite out.Sparse.Cg.solution then
    finish "cg" out.Sparse.Cg.solution
  else if out.Sparse.Cg.aborted then begin
    aborted := true;
    note "cg" (describe_cg out);
    finish "cg" out.Sparse.Cg.solution
  end
  else begin
    note "cg" (describe_cg out);
    if out.Sparse.Cg.breakdown then gauss_seidel ()
    else begin
      Telemetry.Counter.incr c_cg_restart;
      restart_loop 3 (Some out.Sparse.Cg.solution)
    end
  end
