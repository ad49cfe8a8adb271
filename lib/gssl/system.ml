module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Csr = Sparse.Csr

type matrix =
  | Dense of Mat.t
  | Csr of Csr.t
  | Lap of { w : Csr.t; deg : Vec.t }
  | Op of Sparse.Linop.t

type t = { a : matrix; b : Vec.t }

(* Rows idx in order, each filtered to its kept columns through [local]
   (old index -> new, -1 when dropped).  idx ascends, so the kept
   columns ascend too and each row goes into Csr.of_sorted_rows as it
   stands; zero values are dropped, as Coo.add would. *)
let restrict_csr idx c =
  let s = Array.length idx in
  let rows, cols = Csr.dims c in
  Array.iter
    (fun i ->
      if i < 0 || i >= rows || i >= cols then
        invalid_arg "System.restrict: index out of range")
    idx;
  let local = Array.make cols (-1) in
  Array.iteri (fun p i -> local.(i) <- p) idx;
  let row_ptr = c.Csr.row_ptr and col_idx = c.Csr.col_idx in
  let values = c.Csr.values in
  let kept k = local.(col_idx.(k)) >= 0 && values.(k) <> 0. in
  let ptr = Array.make (s + 1) 0 in
  Array.iteri
    (fun p i ->
      let count = ref 0 in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        if kept k then incr count
      done;
      ptr.(p + 1) <- ptr.(p) + !count)
    idx;
  let out_col = Array.make ptr.(s) 0 and out_val = Array.make ptr.(s) 0. in
  Array.iteri
    (fun p i ->
      let q = ref ptr.(p) in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        if kept k then begin
          out_col.(!q) <- local.(col_idx.(k));
          out_val.(!q) <- values.(k);
          incr q
        end
      done)
    idx;
  Csr.of_sorted_rows ~rows:s ~cols:s ~row_ptr:ptr ~col_idx:out_col
    ~values:out_val

let restrict idx { a; b } =
  Array.iteri
    (fun p i ->
      if p > 0 && idx.(p - 1) >= i then
        invalid_arg "System.restrict: indices not strictly increasing")
    idx;
  let pick v = Array.map (Array.get v) idx in
  let a =
    match a with
    | Dense m ->
        let s = Array.length idx in
        Dense (Mat.init s s (fun p q -> Mat.get m idx.(p) idx.(q)))
    | Csr c -> Csr (restrict_csr idx c)
    | Lap { w; deg } -> Lap { w = restrict_csr idx w; deg = pick deg }
    | Op _ -> invalid_arg "System.restrict: matrix-free operator"
  in
  { a; b = pick b }

let operator = function
  | Dense m -> Sparse.Linop.of_dense m
  | Csr c -> Sparse.Linop.of_csr c
  | Lap { w; deg } ->
      let dim = Vec.dim deg in
      Sparse.Linop.of_fun ~dim
        ~diag:(fun () ->
          let wd = Csr.diagonal w in
          Array.init dim (fun i -> deg.(i) -. wd.(i)))
        (fun x y -> Csr.lap_mv_into w ~deg x y)
  | Op op -> op

let convergence = function
  | [] -> None
  | attempts ->
      let total =
        List.fold_left
          (fun acc (o : Sparse.Cg.outcome) -> acc + o.Sparse.Cg.iterations)
          0 attempts
      in
      let last = List.nth attempts (List.length attempts - 1) in
      let best =
        List.fold_left
          (fun acc (o : Sparse.Cg.outcome) ->
            Float.min acc o.Sparse.Cg.best_residual)
          Float.infinity attempts
      in
      Some
        (Obs.Health.convergence ~iterations:total
           ~final_residual:last.Sparse.Cg.residual_norm ~best_residual:best
           ~converged:last.Sparse.Cg.converged)

let certify ~system ~rung ~attempts { a; b } x =
  let op = operator a in
  let apply x =
    let y = Vec.zeros op.Sparse.Linop.dim in
    op.Sparse.Linop.apply x y;
    y
  in
  Obs.Health.certify ~system ~rung ?convergence:(convergence attempts) ~apply
    ~b x
