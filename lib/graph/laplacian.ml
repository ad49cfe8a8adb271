module Mat = Linalg.Mat
module Vec = Linalg.Vec

let c_operator_applies = Telemetry.Counter.make "graph.laplacian_applies"

(* the fused dense apply below is a gemv-class pass; it shares the
   Linalg counters so profiles attribute it the same way Mat.mv was *)
let c_gemv = Telemetry.Counter.make "linalg.gemv"
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
  (* (V + lambda L) x in a single row pass: the degree scaling and the
     labeled-block identity are folded into the same sweep that
     accumulates W.x, so the CG hot loop does one pass over the matrix
     and writes straight into the solver's buffer.  Per row the
     accumulation order matches the unfused W.x, and the combining
     expression is the same [v_part + lambda*(d_i x_i - (Wx)_i)], so the
     fused result is bit-identical to the two-pass version. *)
  let apply_fused =
    match Weighted_graph.storage g with
    | Weighted_graph.Sparse c ->
        let vdiag =
          Array.init n (fun i -> if i < n_labeled then 1. else 0.)
        in
        fun f y -> Sparse.Csr.fused_lap_mv_into c ~deg:d ~vdiag ~lambda f y
    | Weighted_graph.Dense m ->
        fun f y ->
          Telemetry.Counter.incr c_gemv;
          Telemetry.Counter.add c_lin_flops ((2 * n * n) + (4 * n));
          let rows lo hi =
            for i = lo to hi - 1 do
              let base = i * m.Mat.cols in
              let acc = ref 0. in
              for j = 0 to n - 1 do
                acc := !acc +. (m.Mat.data.(base + j) *. f.(j))
              done;
              let v_part = if i < n_labeled then f.(i) else 0. in
              y.(i) <- v_part +. (lambda *. ((d.(i) *. f.(i)) -. !acc))
            done
          in
          Parallel.Dispatch.run Parallel.Dispatch.Gemv ~work:(n * n) n rows
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
