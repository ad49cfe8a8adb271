(* Shared helpers for the test suite. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual tol

let check_vec ?(tol = 1e-9) msg expected actual =
  if not (Vec.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Vec.to_string expected)
      (Vec.to_string actual)

let check_mat ?(tol = 1e-9) msg expected actual =
  if not (Mat.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: matrices differ (max abs diff %g)" msg
      (Mat.max_abs (Mat.sub expected actual))

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let case name f = Alcotest.test_case name `Quick f

(* Deterministic pseudo-random builders used across tests. *)

let random_vec rng n = Array.init n (fun _ -> Prng.Rng.uniform rng (-5.) 5.)

let random_mat rng r c =
  Mat.init r c (fun _ _ -> Prng.Rng.uniform rng (-5.) 5.)

let random_spd rng n =
  let m = random_mat rng n n in
  Mat.add_scaled_identity (Mat.gram m) (0.5 +. float_of_int n *. 0.01)

let random_symmetric rng n =
  let m = random_mat rng n n in
  Mat.scale 0.5 (Mat.add m (Mat.transpose m))

(* How many calls [Parallel.Dispatch] has sent [kernel]'s way [verdict]
   ("serial" or "parallel"), read off its telemetry counter. *)
let dispatch_decisions kernel verdict =
  Telemetry.Counter.get
    (Printf.sprintf "parallel.tune.%s.%s"
       (Parallel.Dispatch.kernel_name kernel)
       verdict)

(* Random sparse nonneg matrix, ~25% dense (optionally with zero
   diagonal). *)
let random_sparse_nonneg rng ?(zero_diag = false) n =
  Mat.init n n (fun i j ->
      if zero_diag && i = j then 0.
      else if Prng.Rng.float rng < 0.25 then Prng.Rng.uniform rng 0.1 3.
      else 0.)

(* Symmetric nonneg zero-diagonal weights: valid for Weighted_graph. *)
let random_weights rng n =
  let m = random_sparse_nonneg rng ~zero_diag:true n in
  Mat.scale 0.5 (Mat.add m (Mat.transpose m))

(* QCheck: generate via an integer seed so cases shrink to small seeds. *)
let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let qprop ?(count = 100) name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name seed_gen prop)

let qprop_pair ?(count = 100) name gen2 prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen2 prop)

(* Labels 0 and 1 on vertices 0 and 1, both joined to vertex 2
   (weights 1 and 0.7); vertices 3 and 4 form an unanchored pair of
   weight [w].  Its hard system is singular, but at some weights a
   Cholesky factorization of it still succeeds in floating point. *)
let unanchored_pair_problem w =
  let m = Mat.zeros 5 5 in
  List.iter
    (fun (i, j, x) ->
      Mat.set m i j x;
      Mat.set m j i x)
    [ (0, 2, 1.); (1, 2, 0.7); (3, 4, w) ];
  Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense m) ~labels:[| 0.; 1. |]

(* [f ()] and the words it allocated on this domain: minor plus major
   less promoted ([Gc.counters]), read with an empty minor heap at both
   ends, so a promotion inside the window only moves words allocated
   inside it.  [Gc.quick_stat] folds minor-heap words in only at minor
   collections, so its differences over short calls read 0 or a whole
   minor heap.  Work another domain runs is not counted: pin the pool
   to one domain to count a kernel's chunks. *)
let alloc_words f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  let w1 = words () in
  (r, w1 -. w0)

(* Hex MD5 of a byte buffer filled by [fill]: a compact pin for
   bit-identity tests. *)
let digest_hex fill =
  let b = Buffer.create 4096 in
  fill b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_float_bits b x = Buffer.add_int64_le b (Int64.bits_of_float x)

(* The brute-force reference for every kNN search: the [k] points
   nearest to [q], skipping index [exclude], from a full sort under
   (squared distance, index) with [Vec.dist2_sq]'s bits, so tied
   distances go to the lower index. *)
let brute_knn ?(exclude = -1) points q k =
  let d2 = Array.map (fun p -> Vec.dist2_sq p q) points in
  let order =
    List.filter (( <> ) exclude) (List.init (Array.length points) Fun.id)
  in
  let ranked =
    List.sort
      (fun a b ->
        let c = Float.compare d2.(a) d2.(b) in
        if c <> 0 then c else compare a b)
      order
  in
  Array.of_list (List.filteri (fun r _ -> r < k) ranked)

(* every point's [k] nearest others, by [brute_knn] *)
let brute_knn_rows points k =
  Array.mapi (fun i p -> brute_knn ~exclude:i points p k) points
