module Mat = Linalg.Mat
module Vec = Linalg.Vec

type solver = Cholesky | Lu | Cg of { tol : float }

exception Unanchored_unlabeled of int

let c_solves = Telemetry.Counter.make "gssl.hard_solves"

(* Dense storage reads W's unlabeled rows straight off its data; the
   entries are the same expressions as the per-entry path. *)
let system_matrix problem =
  let n = Problem.n_labeled problem and m = Problem.n_unlabeled problem in
  let d = Problem.degrees problem in
  let g = problem.Problem.graph in
  match Graph.Weighted_graph.storage g with
  | Graph.Weighted_graph.Dense w ->
      let total = n + m and wd = w.Mat.data in
      let s = Mat.zeros m m in
      let sd = s.Mat.data in
      for a = 0 to m - 1 do
        let src = ((n + a) * total) + n and dst = a * m in
        for b = 0 to m - 1 do
          sd.(dst + b) <- -.wd.(src + b)
        done;
        sd.(dst + a) <- d.(n + a) -. wd.(src + a)
      done;
      s
  | Graph.Weighted_graph.Sparse _ ->
      Mat.init m m (fun a b ->
          let w = Graph.Weighted_graph.weight g (n + a) (n + b) in
          if a = b then d.(n + a) -. w else -.w)

let check_anchored problem =
  match Array.find_index not (Problem.anchored_mask problem) with
  | Some a -> raise (Unanchored_unlabeled (Problem.n_labeled problem + a))
  | None -> ()

let rhs problem =
  let n = Problem.n_labeled problem and m = Problem.n_unlabeled problem in
  let g = problem.Problem.graph in
  let y = problem.Problem.labels in
  match Graph.Weighted_graph.storage g with
  | Graph.Weighted_graph.Dense w ->
      let total = n + m and wd = w.Mat.data in
      let b = Array.make m 0. in
      for a = 0 to m - 1 do
        let src = (n + a) * total in
        let acc = ref 0. in
        for i = 0 to n - 1 do
          acc := !acc +. (wd.(src + i) *. y.(i))
        done;
        b.(a) <- !acc
      done;
      b
  | Graph.Weighted_graph.Sparse _ ->
      Array.init m (fun a ->
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (Graph.Weighted_graph.weight g (n + a) i *. y.(i))
          done;
          !acc)

let solve ?(solver = Cholesky) problem =
  Telemetry.Span.with_ "gssl.hard_solve" @@ fun () ->
  Telemetry.Counter.incr c_solves;
  let m = Problem.n_unlabeled problem in
  if m = 0 then [||]
  else begin
    check_anchored problem;
    let a = system_matrix problem in
    let b = rhs problem in
    match solver with
    | Cholesky -> Linalg.Cholesky.solve a b
    | Lu -> Linalg.Lu.solve a b
    | Cg { tol } -> Sparse.Cg.solve_exn ~tol (Sparse.Linop.of_dense a) b
  end

let solve_full ?solver problem =
  Vec.concat (Vec.copy problem.Problem.labels) (solve ?solver problem)

let energy problem f =
  if Array.length f <> Problem.size problem then
    invalid_arg "Hard.energy: length mismatch";
  Graph.Laplacian.quadratic_energy problem.Problem.graph f

let is_harmonic ?(tol = 1e-8) problem f =
  if Array.length f <> Problem.size problem then
    invalid_arg "Hard.is_harmonic: length mismatch";
  let n = Problem.n_labeled problem in
  let total = Problem.size problem in
  let g = problem.Problem.graph in
  let d = Problem.degrees problem in
  let ok = ref true in
  for a = n to total - 1 do
    let self = Graph.Weighted_graph.weight g a a in
    let denom = d.(a) -. self in
    if denom > 0. then begin
      let acc = ref 0. in
      for j = 0 to total - 1 do
        if j <> a then acc := !acc +. (Graph.Weighted_graph.weight g a j *. f.(j))
      done;
      if abs_float (f.(a) -. (!acc /. denom)) > tol *. (1. +. abs_float f.(a)) then
        ok := false
    end
  done;
  !ok
