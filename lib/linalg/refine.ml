let condition_estimate ?(iterations = 30) a =
  if not (Mat.is_square a) then
    invalid_arg "Refine.condition_estimate: matrix not square";
  let n = a.Mat.rows in
  if n = 0 then invalid_arg "Refine.condition_estimate: empty matrix";
  match Lu.factor a with
  | exception Lu.Singular _ -> infinity
  | f ->
      (* ||a||_2 via power iteration on a^T a *)
      let v = ref (Vec.init n (fun i -> 1. +. (0.01 *. float_of_int i))) in
      Vec.scale_inplace (1. /. Vec.norm2 !v) !v;
      let sigma_max = ref 0. in
      for _ = 1 to iterations do
        let w = Mat.tmv a (Mat.mv a !v) in
        let norm = Vec.norm2 w in
        if norm > 0. then begin
          sigma_max := sqrt norm;
          v := Vec.scale (1. /. norm) w
        end
      done;
      (* ||a^{-1}||_2 via power iteration on (a^T a)^{-1}:
         w = a^{-1} (a^{-T} v); factor a^T once for the inner solve *)
      let ft = Lu.factor (Mat.transpose a) in
      let transpose_solve b = Lu.solve_factored ft b in
      let u = ref (Vec.init n (fun i -> 1. -. (0.01 *. float_of_int i))) in
      Vec.scale_inplace (1. /. Vec.norm2 !u) !u;
      let sigma_inv = ref 0. in
      for _ = 1 to iterations do
        let w = Lu.solve_factored f (transpose_solve !u) in
        let norm = Vec.norm2 w in
        if norm > 0. then begin
          sigma_inv := sqrt norm;
          u := Vec.scale (1. /. norm) w
        end
      done;
      !sigma_max *. !sigma_inv
