type decomposition = { values : Vec.t; vectors : Mat.t }

let c_jacobi = Telemetry.Counter.make "linalg.eigen_jacobi"
let c_sweeps = Telemetry.Counter.make "linalg.eigen_sweeps"

let off_diag_norm a =
  let n = a.Mat.rows in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let v = a.Mat.data.((i * n) + j) in
        acc := !acc +. (v *. v)
      end
    done
  done;
  sqrt !acc

(* One Jacobi rotation annihilating entry (p, q) of [a], accumulating the
   rotation into [v].  Standard formulas from Golub & Van Loan §8.5. *)
let rotate a v p q =
  let n = a.Mat.rows in
  let ad = a.Mat.data and vd = v.Mat.data in
  let apq = ad.((p * n) + q) in
  if apq <> 0. then begin
    let app = ad.((p * n) + p) and aqq = ad.((q * n) + q) in
    let theta = (aqq -. app) /. (2. *. apq) in
    let t =
      let s = if theta >= 0. then 1. else -1. in
      s /. (abs_float theta +. sqrt ((theta *. theta) +. 1.))
    in
    let c = 1. /. sqrt ((t *. t) +. 1.) in
    let s = t *. c in
    for k = 0 to n - 1 do
      let akp = ad.((k * n) + p) and akq = ad.((k * n) + q) in
      ad.((k * n) + p) <- (c *. akp) -. (s *. akq);
      ad.((k * n) + q) <- (s *. akp) +. (c *. akq)
    done;
    for k = 0 to n - 1 do
      let apk = ad.((p * n) + k) and aqk = ad.((q * n) + k) in
      ad.((p * n) + k) <- (c *. apk) -. (s *. aqk);
      ad.((q * n) + k) <- (s *. apk) +. (c *. aqk)
    done;
    for k = 0 to n - 1 do
      let vkp = vd.((k * n) + p) and vkq = vd.((k * n) + q) in
      vd.((k * n) + p) <- (c *. vkp) -. (s *. vkq);
      vd.((k * n) + q) <- (s *. vkp) +. (c *. vkq)
    done
  end

let jacobi ?(tol = 1e-12) ?(max_sweeps = 100) m =
  if not (Mat.is_square m) then invalid_arg "Eigen.jacobi: matrix not square";
  let n = m.Mat.rows in
  let a = Mat.copy m in
  let v = Mat.eye n in
  let scale = Stdlib.max 1. (Mat.frobenius_norm m) in
  let sweeps = ref 0 in
  while off_diag_norm a > tol *. scale && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        rotate a v p q
      done
    done
  done;
  Telemetry.Counter.incr c_jacobi;
  Telemetry.Counter.add c_sweeps !sweeps;
  if off_diag_norm a > tol *. scale *. 1e3 then
    failwith "Eigen.jacobi: did not converge";
  (* sort eigenpairs ascending *)
  let order = Array.init n (fun i -> i) in
  let diag = Mat.get_diag a in
  Array.sort (fun i j -> compare diag.(i) diag.(j)) order;
  let values = Array.map (fun i -> diag.(i)) order in
  let vectors = Mat.of_cols (Array.map (fun i -> Mat.col v i) order) in
  { values; vectors }

let power_iteration ?(tol = 1e-10) ?(max_iter = 10_000) a v0 =
  if not (Mat.is_square a) then
    invalid_arg "Eigen.power_iteration: matrix not square";
  let norm = Vec.norm2 v0 in
  if norm = 0. then failwith "Eigen.power_iteration: zero start vector";
  let v = ref (Vec.scale (1. /. norm) v0) in
  let lambda = ref 0. in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let w = Mat.mv a !v in
    let next_lambda = Vec.dot !v w in
    let wn = Vec.norm2 w in
    if wn = 0. then begin
      (* v is in the kernel: eigenvalue 0 *)
      lambda := 0.;
      converged := true
    end
    else begin
      let next_v = Vec.scale (1. /. wn) w in
      if abs_float (next_lambda -. !lambda) <= tol *. (abs_float next_lambda +. 1.)
      then converged := true;
      lambda := next_lambda;
      v := next_v
    end
  done;
  if not !converged then failwith "Eigen.power_iteration: did not converge";
  (!lambda, !v)

let eigenvalues m = (jacobi m).values

let spectral_radius_bound a =
  let n = a.Mat.rows in
  let best = ref 0. in
  for i = 0 to n - 1 do
    let acc = ref 0. in
    for j = 0 to a.Mat.cols - 1 do
      acc := !acc +. abs_float a.Mat.data.((i * a.Mat.cols) + j)
    done;
    if !acc > !best then best := !acc
  done;
  !best

let is_positive_semidefinite ?(tol = 1e-8) m =
  let { values; _ } = jacobi m in
  Array.for_all (fun l -> l >= -.tol) values
