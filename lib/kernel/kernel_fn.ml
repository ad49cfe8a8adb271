type t =
  | Rbf
  | Truncated_rbf of float
  | Box
  | Epanechnikov
  | Triangular
  | Tricube

let profile k r =
  if r < 0. then invalid_arg "Kernel_fn.profile: negative radius";
  match k with
  | Rbf -> exp (-.(r *. r))
  | Truncated_rbf c -> if r <= c then exp (-.(r *. r)) else 0.
  | Box -> if r <= 1. then 1. else 0.
  | Epanechnikov ->
      let v = 1. -. (r *. r) in
      if v > 0. then v else 0.
  | Triangular ->
      let v = 1. -. r in
      if v > 0. then v else 0.
  | Tricube ->
      let v = 1. -. (r *. r *. r) in
      if v > 0. then v *. v *. v else 0.

let eval_sq_dist k ~bandwidth d2 =
  if bandwidth <= 0. then invalid_arg "Kernel_fn.eval: bandwidth must be positive";
  (* specialise the common RBF cases to avoid the sqrt *)
  let h2 = bandwidth *. bandwidth in
  match k with
  | Rbf -> exp (-.(d2 /. h2))
  | Truncated_rbf c -> if d2 <= c *. c *. h2 then exp (-.(d2 /. h2)) else 0.
  | _ -> profile k (sqrt d2 /. bandwidth)

(* eval_sq_dist over an array, each branch a direct loop: the RBF cases
   box no float per entry *)
let eval_sq_dist_inplace k ~bandwidth a =
  if bandwidth <= 0. then invalid_arg "Kernel_fn.eval: bandwidth must be positive";
  let h2 = bandwidth *. bandwidth in
  match k with
  | Rbf ->
      for i = 0 to Array.length a - 1 do
        a.(i) <- exp (-.(a.(i) /. h2))
      done
  | Truncated_rbf c ->
      let cut = c *. c *. h2 in
      for i = 0 to Array.length a - 1 do
        let d2 = a.(i) in
        a.(i) <- (if d2 <= cut then exp (-.(d2 /. h2)) else 0.)
      done
  | _ ->
      for i = 0 to Array.length a - 1 do
        a.(i) <- profile k (sqrt a.(i) /. bandwidth)
      done

let eval k ~bandwidth x y =
  eval_sq_dist k ~bandwidth (Linalg.Vec.dist2_sq x y)

let upper_bound = function
  | Rbf | Truncated_rbf _ | Box | Epanechnikov | Triangular | Tricube -> 1.

let support_radius = function
  | Rbf -> None
  | Truncated_rbf c -> Some c
  | Box -> Some 1.
  | Epanechnikov | Triangular -> Some 1.
  | Tricube -> Some 1.

let lower_bound_on_ball = function
  | Rbf -> (exp (-0.25), 0.5)
  | Truncated_rbf c ->
      let delta = Stdlib.min 0.5 c in
      (exp (-.(delta *. delta)), delta)
  | Box -> (1., 1.)
  | Epanechnikov -> (0.75, 0.5)
  | Triangular -> (0.5, 0.5)
  | Tricube -> (0.669921875, 0.5) (* (1 - 1/8)^3 at r = 1/2 *)

let satisfies_devroye_wagner k =
  let bounded = upper_bound k < infinity in
  let compact = Option.is_some (support_radius k) in
  let beta, delta = lower_bound_on_ball k in
  bounded && compact && beta > 0. && delta > 0.

let name = function
  | Rbf -> "rbf"
  | Truncated_rbf c -> Printf.sprintf "truncated-rbf(%g)" c
  | Box -> "box"
  | Epanechnikov -> "epanechnikov"
  | Triangular -> "triangular"
  | Tricube -> "tricube"
