module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Csr = Sparse.Csr

type matrix =
  | Dense of Mat.t
  | Csr of Csr.t
  | Lap of { w : Csr.t; deg : Vec.t }
  | Op of Sparse.Linop.t

type t = { a : matrix; b : Vec.t }

(* Rows idx in order, each row's kept columns in order, so every row of
   the result is already sorted and Csr.of_coo copies it. *)
let restrict_csr idx c =
  let s = Array.length idx in
  let local = Hashtbl.create (2 * s) in
  Array.iteri (fun p i -> Hashtbl.replace local i p) idx;
  let coo = Sparse.Coo.create s s in
  Array.iteri
    (fun p i ->
      Csr.iter_row c i (fun j x ->
          match Hashtbl.find_opt local j with
          | Some q -> Sparse.Coo.add coo p q x
          | None -> ()))
    idx;
  Csr.of_coo coo

let restrict idx { a; b } =
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
