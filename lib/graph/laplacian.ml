module Mat = Linalg.Mat
module Vec = Linalg.Vec

let c_operator_applies = Telemetry.Counter.make "graph.laplacian_applies"

(* the dense apply's O(n) combining pass, counted with its gemv *)
let c_lin_flops = Telemetry.Counter.make "linalg.flops"

let dense g =
  let w = Weighted_graph.to_dense g in
  let d = Weighted_graph.degrees g in
  let n = Weighted_graph.order g in
  Mat.init n n (fun i j ->
      if i = j then d.(i) -. Mat.get w i j else -.Mat.get w i j)

let quadratic_energy g f =
  if Array.length f <> Weighted_graph.order g then
    invalid_arg "Laplacian.quadratic_energy: length mismatch";
  let acc = ref 0. in
  Weighted_graph.iter_edges g (fun i j w ->
      let d = f.(i) -. f.(j) in
      (* each unordered pair appears twice in the paper's double sum *)
      acc := !acc +. (2. *. w *. d *. d));
  !acc

let operator ~lambda ~n_labeled g =
  if lambda < 0. then invalid_arg "Laplacian.operator: negative lambda";
  let n = Weighted_graph.order g in
  if n_labeled < 0 || n_labeled > n then
    invalid_arg "Laplacian.operator: n_labeled out of range";
  let d = Weighted_graph.degrees g in
  (* (V + lambda L) x written straight into the solver's buffer, as
     [v_part + lambda*(d_i x_i - (Wx)_i)] per row.  Sparse storage folds
     the degree scaling and the labeled-block identity into the sweep
     that accumulates W.x.  Dense storage takes W.x from Mat.mv_into's
     blocked gemv into y (one linalg.gemv, 2n^2 flops), then combines it
     with x in place: the same per-row sum and the same expression as a
     fused row loop, so the same bits. *)
  let apply_fused =
    match Weighted_graph.storage g with
    | Weighted_graph.Sparse c ->
        let vdiag =
          Array.init n (fun i -> if i < n_labeled then 1. else 0.)
        in
        fun f y -> Sparse.Csr.fused_lap_mv_into c ~deg:d ~vdiag ~lambda f y
    | Weighted_graph.Dense m ->
        fun f y ->
          Mat.mv_into m f y;
          Telemetry.Counter.add c_lin_flops (4 * n);
          for i = 0 to n - 1 do
            let v_part = if i < n_labeled then f.(i) else 0. in
            y.(i) <- v_part +. (lambda *. ((d.(i) *. f.(i)) -. y.(i)))
          done
  in
  let apply f y =
    if Array.length f <> n || Array.length y <> n then
      invalid_arg "Laplacian.operator: length mismatch";
    Telemetry.Counter.incr c_operator_applies;
    apply_fused f y
  in
  let diag () =
    Array.init n (fun i ->
        let v_part = if i < n_labeled then 1. else 0. in
        v_part +. (lambda *. (d.(i) -. Weighted_graph.weight g i i)))
  in
  Sparse.Linop.of_fun ~dim:n ~diag apply
