module Mat = Linalg.Mat
module Vec = Linalg.Vec

type method_ = Full_cholesky | Block | Cg of { tol : float }

let c_solves = Telemetry.Counter.make "gssl.soft_solves"

let check_lambda lambda =
  if lambda <= 0. then
    invalid_arg
      "Soft.solve: lambda must be strictly positive (use Hard for the λ=0 limit)"

let padded_labels problem =
  let n = Problem.n_labeled problem in
  let total = Problem.size problem in
  let b = Vec.zeros total in
  Array.blit problem.Problem.labels 0 b 0 n;
  b

(* V + λL as a dense matrix. *)
let full_matrix ~lambda problem =
  let n = Problem.n_labeled problem in
  let g = problem.Problem.graph in
  let d = Problem.degrees problem in
  let total = Problem.size problem in
  Mat.init total total (fun i j ->
      let w = Graph.Weighted_graph.weight g i j in
      let lap = if i = j then d.(i) -. w else -.w in
      let v = if i = j && i < n then 1. else 0. in
      v +. (lambda *. lap))

let solve_full_cholesky ~lambda problem =
  let a = full_matrix ~lambda problem in
  let b = padded_labels problem in
  match Linalg.Cholesky.solve a b with
  | x -> x
  | exception Linalg.Cholesky.Not_positive_definite _ ->
      failwith "Soft.solve: system not positive definite (disconnected graph?)"

(* V + λL in the graph's own storage: the dense matrix, or CSR assembled
   row by row from each row's stored weights. *)
let system ~lambda problem =
  let b = padded_labels problem in
  match Graph.Weighted_graph.storage problem.Problem.graph with
  | Graph.Weighted_graph.Dense _ ->
      { System.a = System.Dense (full_matrix ~lambda problem); b }
  | Graph.Weighted_graph.Sparse w ->
      let n = Problem.n_labeled problem in
      let d = Problem.degrees problem in
      let total = Problem.size problem in
      let coo = Sparse.Coo.create total total in
      for v = 0 to total - 1 do
        let vdiag = if v < n then 1. else 0. in
        let lap = d.(v) -. Sparse.Csr.get w v v in
        Sparse.Coo.add coo v v (vdiag +. (lambda *. lap));
        Sparse.Csr.iter_row w v (fun j x ->
            if x <> 0. && j <> v then Sparse.Coo.add coo v j (-.(lambda *. x)))
      done;
      { System.a = System.Csr (Sparse.Csr.of_coo coo); b }

let full_operator ~lambda problem =
  Graph.Laplacian.operator ~lambda ~n_labeled:(Problem.n_labeled problem)
    problem.Problem.graph

let solve_full_cg ~tol ~lambda problem =
  Sparse.Cg.solve_exn ~tol (full_operator ~lambda problem) (padded_labels problem)

(* I + λD11 − λW11, the labeled block of V + λL. *)
let top_block ~lambda problem =
  let n = Problem.n_labeled problem in
  let g = problem.Problem.graph in
  let d = Problem.degrees problem in
  Mat.init n n (fun i j ->
      let v = if i = j then 1. +. (lambda *. d.(i)) else 0. in
      v -. (lambda *. Graph.Weighted_graph.weight g i j))

(* Eq. (4): f_U = (D22 - W22 - λ W21 (I + λD11 - λW11)^{-1} W12)^{-1}
                  · W21 (I + λD11 - λW11)^{-1} Y_n.                        *)
let solve_block ~lambda problem =
  if Problem.n_unlabeled problem = 0 then [||]
  else begin
    let _, w12, w21, _ = Problem.blocks problem in
    let top = top_block ~lambda problem in
    let top_inv_y = Linalg.Lu.solve top problem.Problem.labels in
    let top_inv_w12 = Linalg.Lu.solve_many top w12 in
    (* D22 - W22 - λ W21 top^{-1} W12 *)
    let middle =
      Mat.sub (Hard.system_matrix problem)
        (Mat.scale lambda (Mat.mm w21 top_inv_w12))
    in
    Linalg.Lu.solve middle (Mat.mv w21 top_inv_y)
  end

let slice_unlabeled problem full =
  let n = Problem.n_labeled problem in
  Vec.slice full n (Problem.size problem - n)

(* Block: reconstruct the labeled part from the unlabeled part via the
   top block equation f_L = (I + λD11 − λW11)^{-1} (Y + λ W12 f_U). *)
let solve_full_block ~lambda problem =
  let f_u = solve_block ~lambda problem in
  let _, w12, _, _ = Problem.blocks problem in
  let top = top_block ~lambda problem in
  let rhs =
    if Array.length f_u = 0 then Vec.copy problem.Problem.labels
    else Vec.add problem.Problem.labels (Vec.scale lambda (Mat.mv w12 f_u))
  in
  let f_l = Linalg.Lu.solve top rhs in
  Vec.concat f_l f_u

let solve_full ?(method_ = Full_cholesky) ~lambda problem =
  check_lambda lambda;
  Telemetry.Span.with_ "gssl.soft_solve_full" @@ fun () ->
  Telemetry.Counter.incr c_solves;
  match method_ with
  | Full_cholesky -> solve_full_cholesky ~lambda problem
  | Block -> solve_full_block ~lambda problem
  | Cg { tol } -> solve_full_cg ~tol ~lambda problem

let solve ?(method_ = Full_cholesky) ~lambda problem =
  check_lambda lambda;
  Telemetry.Span.with_ "gssl.soft_solve" @@ fun () ->
  Telemetry.Counter.incr c_solves;
  match method_ with
  | Block -> solve_block ~lambda problem
  | Full_cholesky -> slice_unlabeled problem (solve_full_cholesky ~lambda problem)
  | Cg { tol } -> slice_unlabeled problem (solve_full_cg ~tol ~lambda problem)

let objective ~lambda problem f =
  if Array.length f <> Problem.size problem then
    invalid_arg "Soft.objective: length mismatch";
  let n = Problem.n_labeled problem in
  let loss = ref 0. in
  for i = 0 to n - 1 do
    let d = problem.Problem.labels.(i) -. f.(i) in
    loss := !loss +. (d *. d)
  done;
  !loss
  +. (lambda /. 2. *. Graph.Laplacian.quadratic_energy problem.Problem.graph f)

let lambda_infinity_limit problem = Vec.mean problem.Problem.labels
