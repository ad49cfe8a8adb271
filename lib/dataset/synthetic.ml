module Vec = Linalg.Vec
module Mat = Linalg.Mat

type model = Model1 | Model2

let dimension = 5
let mean = Vec.create dimension 0.5

let covariance =
  Mat.init dimension dimension (fun i j -> if i = j then 0.1 else 0.05)

(* a plain value, not a [lazy]: forcing one lazy from two domains at
   once raises [CamlinternalLazy.Undefined], and the factorization is
   a 5×5 Cholesky *)
let mvn = Prng.Distributions.mvn_make ~mean ~cov:covariance

let check_dim x =
  if Array.length x <> dimension then
    invalid_arg "Synthetic: input must be 5-dimensional"

let logit model x =
  check_dim x;
  let base =
    -1.35 +. (2. *. x.(0)) -. x.(1) +. x.(2) -. x.(3) +. (2. *. x.(4))
  in
  match model with
  | Model1 -> base
  | Model2 -> base +. (x.(0) *. x.(2)) +. (x.(1) *. x.(3))

let sigmoid t = 1. /. (1. +. exp (-.t))
let true_q model x = sigmoid (logit model x)

let sample_input rng = Prng.Distributions.truncated_mvn_sample rng mvn

type sample = { x : Vec.t; y : float; q : float }

let sample rng model =
  let x = sample_input rng in
  let q = true_q model x in
  let y = if Prng.Rng.bernoulli rng q then 1. else 0. in
  { x; y; q }

let sample_many rng model count = Array.init count (fun _ -> sample rng model)

let to_problem ~kernel ~bandwidth ~n_labeled samples =
  let total = Array.length samples in
  if n_labeled <= 0 || n_labeled > total then
    invalid_arg "Synthetic.to_problem: n_labeled out of range";
  let labeled =
    Array.init n_labeled (fun i -> (samples.(i).x, samples.(i).y))
  in
  let unlabeled =
    Array.init (total - n_labeled) (fun a -> samples.(n_labeled + a).x)
  in
  let truth =
    Array.init (total - n_labeled) (fun a -> samples.(n_labeled + a).q)
  in
  let problem = Gssl.Problem.of_points ~kernel ~bandwidth ~labeled ~unlabeled in
  (problem, truth)
