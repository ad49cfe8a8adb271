(* Per-solve numerical-health certificates.

   A certificate is computed from the *actual* returned solution: the
   residual is ‖b − A x‖₂ recomputed with a fresh application of the
   operator, never the CG recurrence value, so it catches recurrence
   drift and fallback rungs that silently returned garbage.

   This module deliberately depends only on [Linalg] closures — callers
   pass [apply : Vec.t -> Vec.t] — so [sparse], [robust], and [gssl]
   can all depend on it without dependency cycles. *)

module Vec = Linalg.Vec

type convergence = {
  iterations : int;
  final_residual : float;
  best_residual : float;
  stagnated : bool;
}

type t = {
  system : string;
  dim : int;
  rung : string;
  true_residual : float;
  rel_residual : float;
  convergence : convergence option;
}

(* A solve "stagnated" when it gave up before converging, or when the
   final residual sits far above the best residual it ever reached
   (the iteration wandered away from its own best point). *)
let convergence ~iterations ~final_residual ~best_residual ~converged =
  let stagnated =
    (not converged)
    || (Float.is_finite best_residual
       && final_residual > 10. *. best_residual
       && final_residual > 0.)
  in
  { iterations; final_residual; best_residual; stagnated }

let certify ~system ~rung ?convergence ~apply ~b x =
  if Vec.dim x <> Vec.dim b then
    invalid_arg "Obs.Health.certify: solution/rhs dimension mismatch";
  let true_residual = Vec.norm2 (Vec.sub b (apply x)) in
  let b_norm = Vec.norm2 b in
  let rel_residual =
    if b_norm > 0. then true_residual /. b_norm else true_residual
  in
  { system; dim = Vec.dim b; rung; true_residual; rel_residual; convergence }

let healthy ?(rel_tol = 1e-6) c =
  Float.is_finite c.true_residual
  && c.rel_residual <= rel_tol
  && (match c.convergence with None -> true | Some cv -> not cv.stagnated)

let describe c =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "certificate: %s (dim %d, rung %s)\n" c.system c.dim
       c.rung);
  Buffer.add_string b
    (Printf.sprintf "  true residual      %.3e  (relative %.3e)\n"
       c.true_residual c.rel_residual);
  (match c.convergence with
  | Some cv ->
      Buffer.add_string b
        (Printf.sprintf
           "  cg iterations      %d  (final %.3e, best %.3e)\n  stagnated          %b\n"
           cv.iterations cv.final_residual cv.best_residual cv.stagnated)
  | None -> ());
  Buffer.add_string b (Printf.sprintf "  healthy            %b\n" (healthy c));
  Buffer.contents b
