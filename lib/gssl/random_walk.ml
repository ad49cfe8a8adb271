module Vec = Linalg.Vec

let absorption_scores problem =
  (* the expected absorbed label solves (D22 - W22) f = W21 Y — we reuse
     the scalable CSR assembly rather than Hard.solve so that the two
     paths stay genuinely independent in the tests *)
  let a, b = Scalable.system_csr problem in
  Sparse.Cg.solve_exn ~tol:1e-12 (Sparse.Linop.of_csr a) b

let validate_degrees problem =
  let d = Problem.degrees problem in
  Array.iter
    (fun v ->
      if v <= 0. then
        invalid_arg "Random_walk: vertex of zero degree cannot walk")
    d;
  d

(* one transition from vertex v: pick a neighbour proportionally to edge
   weight (including self-loops, which just stall the walk one step) *)
let step rng problem d v =
  let g = problem.Problem.graph in
  let total = Problem.size problem in
  let u = Prng.Rng.float rng *. d.(v) in
  let acc = ref 0. and target = ref (total - 1) in
  (try
     for j = 0 to total - 1 do
       acc := !acc +. Graph.Weighted_graph.weight g v j;
       if u < !acc then begin
         target := j;
         raise Exit
       end
     done
   with Exit -> ());
  !target

let hitting_counts ~rng ~walks_per_vertex ?(max_steps = 100_000) problem =
  if walks_per_vertex < 1 then
    invalid_arg "Random_walk.hitting_counts: need walks_per_vertex >= 1";
  let d = validate_degrees problem in
  let n = Problem.n_labeled problem and m = Problem.n_unlabeled problem in
  let counts = Array.make_matrix m n 0 in
  for a = 0 to m - 1 do
    for _ = 1 to walks_per_vertex do
      let v = ref (n + a) in
      let steps = ref 0 in
      while !v >= n && !steps < max_steps do
        v := step rng problem d !v;
        incr steps
      done;
      if !v < n then counts.(a).(!v) <- counts.(a).(!v) + 1
    done
  done;
  counts

let simulate ~rng ~walks_per_vertex ?max_steps problem =
  let counts = hitting_counts ~rng ~walks_per_vertex ?max_steps problem in
  let y = problem.Problem.labels in
  let fallback = Vec.mean y in
  Array.map
    (fun row ->
      let absorbed = Array.fold_left ( + ) 0 row in
      if absorbed = 0 then fallback
      else begin
        let acc = ref 0. in
        Array.iteri (fun i c -> acc := !acc +. (float_of_int c *. y.(i))) row;
        let estimate = !acc /. float_of_int absorbed in
        (* timed-out walks contribute the labeled mean *)
        let missing = walks_per_vertex - absorbed in
        ((estimate *. float_of_int absorbed) +. (fallback *. float_of_int missing))
        /. float_of_int walks_per_vertex
      end)
    counts

let absorption_matrix problem =
  Hard.check_anchored problem;
  let _, _, w21, _ = Problem.blocks problem in
  Linalg.Cholesky.solve_many (Hard.system_matrix problem) w21

(* leave-one-out smoothing of each labeled response: the noise-variance
   proxy q(1-q) for binary labels *)
let labeled_variances problem =
  let n = Problem.n_labeled problem in
  let g = problem.Problem.graph in
  let y = problem.Problem.labels in
  let global = Vec.mean y in
  Array.init n (fun i ->
      let num = ref 0. and den = ref 0. in
      for j = 0 to n - 1 do
        if j <> i then begin
          let w = Graph.Weighted_graph.weight g i j in
          num := !num +. (w *. y.(j));
          den := !den +. w
        end
      done;
      let q = if !den > 0. then !num /. !den else global in
      let q = Stdlib.min 1. (Stdlib.max 0. q) in
      q *. (1. -. q))

let predictive_std problem =
  let b = absorption_matrix problem in
  let variances = labeled_variances problem in
  Array.init b.Linalg.Mat.rows (fun a ->
      let acc = ref 0. in
      for i = 0 to b.Linalg.Mat.cols - 1 do
        let p = Linalg.Mat.get b a i in
        acc := !acc +. (p *. p *. variances.(i))
      done;
      sqrt !acc)
