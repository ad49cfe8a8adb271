type t = {
  dim : int;
  apply : Linalg.Vec.t -> Linalg.Vec.t -> unit;
  diag : unit -> Linalg.Vec.t;
}

let of_dense m =
  if not (Linalg.Mat.is_square m) then invalid_arg "Linop.of_dense: not square";
  {
    dim = m.Linalg.Mat.rows;
    apply = (fun x y -> Linalg.Mat.mv_into m x y);
    diag = (fun () -> Linalg.Mat.get_diag m);
  }

let of_csr c =
  let rows, cols = Csr.dims c in
  if rows <> cols then invalid_arg "Linop.of_csr: not square";
  {
    dim = rows;
    apply = (fun x y -> Csr.mv_into c x y);
    diag = (fun () -> Csr.diagonal c);
  }

let of_fun ~dim ~diag apply = { dim; apply; diag }
