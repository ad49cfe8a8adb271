module Vec = Linalg.Vec

type outcome = {
  scores : Vec.t;
  iterations : int;
  final_delta : float;
  converged : bool;
}

let run ?(tol = 1e-10) ?(max_iter = 100_000) ?init problem =
  let n = Problem.n_labeled problem and m = Problem.n_unlabeled problem in
  let g = problem.Problem.graph in
  let d = Problem.degrees problem in
  for a = 0 to m - 1 do
    if d.(n + a) <= 0. then
      invalid_arg "Label_propagation.run: unlabeled vertex of degree zero"
  done;
  (* constant part: D22^{-1} W21 Y *)
  let base = Array.mapi (fun a b -> b /. d.(n + a)) (Hard.rhs problem) in
  let f =
    match init with
    | None -> Vec.zeros m
    | Some v ->
        if Array.length v <> m then
          invalid_arg "Label_propagation.run: init length mismatch";
        Vec.copy v
  in
  let iterations = ref 0 in
  let delta = ref infinity in
  while !delta > tol && !iterations < max_iter do
    incr iterations;
    delta := 0.;
    let next =
      Array.init m (fun a ->
          let acc = ref 0. in
          for b = 0 to m - 1 do
            acc := !acc +. (Graph.Weighted_graph.weight g (n + a) (n + b) *. f.(b))
          done;
          base.(a) +. (!acc /. d.(n + a)))
    in
    for a = 0 to m - 1 do
      let change = abs_float (next.(a) -. f.(a)) in
      if change > !delta then delta := change;
      f.(a) <- next.(a)
    done
  done;
  { scores = f; iterations = !iterations; final_delta = !delta; converged = !delta <= tol }

let solve_exn ?tol ?max_iter problem =
  let out = run ?tol ?max_iter problem in
  if not out.converged then
    failwith
      (Printf.sprintf
         "Label_propagation.solve_exn: no convergence after %d iterations (delta %g)"
         out.iterations out.final_delta);
  out.scores
