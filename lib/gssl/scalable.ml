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
   vector.

   W₂₂ is written straight into CSR: one pass over the edges counts each
   row's entries, a second fills the rows.  Edges arrive with i < j in
   ascending (i, j) order, so row a receives its columns below a (from
   earlier rows' edges), then those above: every row comes out strictly
   increasing. *)
let system_lap problem =
  let n = Problem.n_labeled problem and m = Problem.n_unlabeled problem in
  let g = problem.Problem.graph in
  let d = Problem.degrees problem in
  let y = problem.Problem.labels in
  let rhs = Vec.zeros m in
  let deg =
    Array.init m (fun a ->
        let v = n + a in
        d.(v) -. Graph.Weighted_graph.weight g v v)
  in
  let row_ptr = Array.make (m + 1) 0 in
  Graph.Weighted_graph.iter_edges g (fun i j w ->
      if i >= n && j >= n then begin
        row_ptr.(i - n + 1) <- row_ptr.(i - n + 1) + 1;
        row_ptr.(j - n + 1) <- row_ptr.(j - n + 1) + 1
      end
      else if i < n && j >= n then rhs.(j - n) <- rhs.(j - n) +. (w *. y.(i))
      else if j < n && i >= n then rhs.(i - n) <- rhs.(i - n) +. (w *. y.(j)));
  for a = 0 to m - 1 do
    row_ptr.(a + 1) <- row_ptr.(a + 1) + row_ptr.(a)
  done;
  let col_idx = Array.make row_ptr.(m) 0 and values = Array.make row_ptr.(m) 0. in
  let fill = Array.sub row_ptr 0 m in
  let put a c w =
    col_idx.(fill.(a)) <- c;
    values.(fill.(a)) <- w;
    fill.(a) <- fill.(a) + 1
  in
  Graph.Weighted_graph.iter_edges g (fun i j w ->
      if i >= n && j >= n then begin
        put (i - n) (j - n) w;
        put (j - n) (i - n) w
      end);
  (Sparse.Csr.of_sorted_rows ~rows:m ~cols:m ~row_ptr ~col_idx ~values, deg, rhs)

(* The assembled matrix, derived from the fused form and written
   straight into CSR: row a holds −w for its W₂₂ entries below the
   diagonal, then deg'_a unless it is zero, then −w for the entries
   above.  W₂₂ has no diagonal and its rows are sorted, so every row
   comes out strictly increasing. *)
let system_csr problem =
  let w, deg, b = system_lap problem in
  let m = Vec.dim deg in
  let wp = w.Sparse.Csr.row_ptr and wc = w.Sparse.Csr.col_idx in
  let wv = w.Sparse.Csr.values in
  let row_ptr = Array.make (m + 1) 0 in
  for a = 0 to m - 1 do
    let diag = if deg.(a) <> 0. then 1 else 0 in
    row_ptr.(a + 1) <- row_ptr.(a) + (wp.(a + 1) - wp.(a)) + diag
  done;
  let col_idx = Array.make row_ptr.(m) 0 and values = Array.make row_ptr.(m) 0. in
  let k = ref 0 in
  let put c v =
    col_idx.(!k) <- c;
    values.(!k) <- v;
    incr k
  in
  for a = 0 to m - 1 do
    let q = ref wp.(a) in
    while !q < wp.(a + 1) && wc.(!q) < a do
      put wc.(!q) (-.wv.(!q));
      incr q
    done;
    if deg.(a) <> 0. then put a deg.(a);
    for q = !q to wp.(a + 1) - 1 do
      put wc.(q) (-.wv.(q))
    done
  done;
  (Sparse.Csr.of_sorted_rows ~rows:m ~cols:m ~row_ptr ~col_idx ~values, b)

let solve_hard ?(tol = 1e-10) ?max_iter ?(precond = `Jacobi) ?should_stop
    ?(unanchored = `Raise) problem =
  Telemetry.Span.with_ "gssl.scalable_solve" @@ fun () ->
  Telemetry.Counter.incr c_solves;
  (match precond with
  | `Multigrid -> Telemetry.Counter.incr c_mg_solves
  | `Jacobi -> ());
  let m_all = Problem.n_unlabeled problem in
  if m_all = 0 then [||]
  else begin
    (* the anchored positions, when some are not: unanchored components
       share no edges with anchored ones, so the restriction to the
       anchored set is exact *)
    let anchored =
      match unanchored with
      | `Raise ->
          Hard.check_anchored problem;
          None
      | `Impute ->
          let mask = Problem.anchored_mask problem in
          if Array.for_all Fun.id mask then None
          else
            Some
              (Array.of_list
                 (List.filter (Array.get mask) (List.init m_all Fun.id)))
    in
    let w, deg, b = system_lap problem in
    let sys = { System.a = System.Lap { w; deg }; b } in
    let sys =
      match anchored with None -> sys | Some idx -> System.restrict idx sys
    in
    let solution =
      if Vec.dim sys.System.b = 0 then [||]
      else begin
        let precond_apply =
          match (precond, sys.System.a) with
          | `Multigrid, System.Lap { w; deg } ->
              let mg = Sparse.Multigrid.build ~w ~diag:deg () in
              Some (Sparse.Multigrid.precondition_into mg)
          | _ -> None (* `Jacobi: CG's default diagonal preconditioner *)
        in
        Sparse.Cg.solve_exn ~tol ?max_iter ?precond_apply ?should_stop
          (System.operator sys.System.a) sys.System.b
      end
    in
    match anchored with
    | None -> solution
    | Some idx ->
        (* unanchored vertices carry no information from the labels: fill
           them with the labeled mean, the hard criterion's degenerate
           limit for an unanchored component (Prop II.2) *)
        let ybar = Stats.Descriptive.mean problem.Problem.labels in
        let out = Array.make m_all ybar in
        Array.iteri (fun k a -> out.(a) <- solution.(k)) idx;
        Telemetry.Counter.add c_imputed (m_all - Array.length idx);
        out
  end

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
