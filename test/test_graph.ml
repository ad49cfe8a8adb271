(* Weighted graphs, Laplacians, connectivity, Laplacian spectra. *)

open Test_util
module G = Graph.Weighted_graph
module L = Graph.Laplacian
module C = Graph.Connectivity
module Mat = Linalg.Mat
module Vec = Linalg.Vec

let path3 =
  (* path graph 0-1-2 with unit weights *)
  Mat.of_arrays [| [| 0.; 1.; 0. |]; [| 1.; 0.; 1. |]; [| 0.; 1.; 0. |] |]

let two_components =
  Mat.of_arrays
    [|
      [| 0.; 1.; 0.; 0. |];
      [| 1.; 0.; 0.; 0. |];
      [| 0.; 0.; 0.; 1. |];
      [| 0.; 0.; 1.; 0. |];
    |]

let random_similarity rng n =
  let points = Array.init n (fun _ -> random_vec rng 2) in
  Kernel.Similarity.dense ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:2. points

let test_graph_validation () =
  check_raises_invalid "not square" (fun () -> ignore (G.of_dense (Mat.zeros 2 3)));
  check_raises_invalid "not symmetric" (fun () ->
      ignore (G.of_dense (Mat.of_arrays [| [| 0.; 1. |]; [| 0.; 0. |] |])));
  check_raises_invalid "negative weight" (fun () ->
      ignore (G.of_dense (Mat.of_arrays [| [| 0.; -1. |]; [| -1.; 0. |] |])));
  (* the checks' order and messages: symmetry first (NaN passes it),
     then each weight in storage order, finiteness before sign *)
  let message rows =
    match G.of_dense (Mat.of_arrays rows) with
    | _ -> "accepted"
    | exception Invalid_argument msg -> msg
  in
  List.iter
    (fun (want, rows) -> Alcotest.(check string) want want (message rows))
    [
      ( "Weighted_graph: matrix not symmetric",
        [| [| nan; 1. |]; [| 2.; -1. |] |] );
      ( "Weighted_graph: non-finite weight",
        [| [| 0.; nan |]; [| nan; -1. |] |] );
      ( "Weighted_graph: negative weight",
        [| [| -1.; infinity |]; [| infinity; 0. |] |] );
      ( "Weighted_graph: non-finite weight",
        [| [| 0.; infinity |]; [| infinity; -1. |] |] );
      ("accepted", [| [| 0.; 0.5 |]; [| 0.5; 1. |] |]);
    ]

let test_graph_basics () =
  let g = G.of_dense path3 in
  Alcotest.(check int) "order" 3 (G.order g);
  check_float "weight" 1. (G.weight g 0 1);
  check_float "no edge" 0. (G.weight g 0 2);
  check_vec "degrees" [| 1.; 2.; 1. |] (G.degrees g);
  check_float "total weight" 4. (G.total_weight g)

let test_iter_edges () =
  let g = G.of_dense path3 in
  let edges = ref [] in
  G.iter_edges g (fun i j w -> edges := (i, j, w) :: !edges);
  Alcotest.(check int) "edge count" 2 (List.length !edges);
  List.iter (fun (i, j, _) -> Alcotest.(check bool) "i<j" true (i < j)) !edges

let test_sparse_graph_agrees () =
  let g_dense = G.of_dense path3 in
  let g_sparse = G.of_sparse (Sparse.Csr.of_dense path3) in
  check_vec "degrees agree" (G.degrees g_dense) (G.degrees g_sparse);
  check_mat "to_dense agrees" (G.to_dense g_dense) (G.to_dense g_sparse);
  check_float "weight agrees" (G.weight g_dense 0 1) (G.weight g_sparse 0 1)

let test_unnormalized_laplacian () =
  let g = G.of_dense path3 in
  let l = L.dense g in
  check_mat "L = D - W"
    (Mat.of_arrays [| [| 1.; -1.; 0. |]; [| -1.; 2.; -1. |]; [| 0.; -1.; 1. |] |])
    l;
  check_vec "row sums zero" (Vec.zeros 3) (Mat.row_sums l)

let test_quadratic_energy () =
  let g = G.of_dense path3 in
  (* f = (0,1,2): sum_ij w_ij (fi-fj)^2 = 2*(1 + 1) = 4 with double counting *)
  check_float "energy" 4. (L.quadratic_energy g [| 0.; 1.; 2. |]);
  check_float "constant has zero energy" 0. (L.quadratic_energy g [| 5.; 5.; 5. |]);
  check_raises_invalid "length mismatch" (fun () ->
      ignore (L.quadratic_energy g [| 1. |]))

let prop_energy_is_2fLf seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 10 in
  let g = G.of_dense (random_similarity rng n) in
  let f = random_vec rng n in
  let lhs = L.quadratic_energy g f in
  let rhs = 2. *. Mat.quadratic_form (L.dense g) f in
  abs_float (lhs -. rhs) < 1e-7 *. (1. +. abs_float rhs)

let prop_laplacian_psd seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 8 in
  let g = G.of_dense (random_similarity rng n) in
  Linalg.Eigen.is_positive_semidefinite (L.dense g)

let prop_laplacian_kernel_contains_ones seed =
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 10 in
  let g = G.of_dense (random_similarity rng n) in
  Vec.norm_inf (Mat.mv (L.dense g) (Vec.ones n)) < 1e-9

let test_operator_matches_dense () =
  let rng = Prng.Rng.create 17 in
  let w = random_similarity rng 7 in
  let g = G.of_dense w in
  let lambda = 0.3 and n_labeled = 3 in
  let op = L.operator ~lambda ~n_labeled g in
  let dense =
    let l = L.dense g in
    Mat.init 7 7 (fun i j ->
        let v = if i = j && i < n_labeled then 1. else 0. in
        v +. (lambda *. Mat.get l i j))
  in
  let x = random_vec rng 7 in
  let y = Array.make 7 nan in
  op.Sparse.Linop.apply x y;
  check_vec ~tol:1e-10 "operator apply" (Mat.mv dense x) y;
  check_vec ~tol:1e-10 "operator diag" (Mat.get_diag dense) (op.Sparse.Linop.diag ());
  check_raises_invalid "negative lambda" (fun () ->
      ignore (L.operator ~lambda:(-1.) ~n_labeled:1 g));
  check_raises_invalid "bad n_labeled" (fun () ->
      ignore (L.operator ~lambda:1. ~n_labeled:8 g))

let test_connectivity () =
  let g = G.of_dense path3 in
  Alcotest.(check bool) "path connected" true (C.is_connected g);
  Alcotest.(check int) "one component" 1 (C.count_components g);
  let g2 = G.of_dense two_components in
  Alcotest.(check bool) "two components" false (C.is_connected g2);
  Alcotest.(check int) "count" 2 (C.count_components g2);
  let comps = C.components g2 in
  Alcotest.(check int) "0 and 1 together" comps.(0) comps.(1);
  Alcotest.(check bool) "0 and 2 apart" true (comps.(0) <> comps.(2))

let test_connectivity_threshold () =
  let w = Mat.of_arrays [| [| 0.; 0.1 |]; [| 0.1; 0. |] |] in
  let g = G.of_dense w in
  Alcotest.(check bool) "connected at 0" true (C.is_connected g);
  Alcotest.(check bool) "cut at 0.5" false (C.is_connected ~threshold:0.5 g)

let test_bfs () =
  let g = G.of_dense two_components in
  let d = C.bfs_distances g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; -1; -1 |] d;
  check_raises_invalid "bad source" (fun () -> ignore (C.bfs_distances g 9))

(* Unnormalized Laplacian eigenvalues, ascending *)
let spectrum g = Linalg.Eigen.eigenvalues (L.dense g)

let test_spectral () =
  let spec = spectrum (G.of_dense path3) in
  check_float ~tol:1e-9 "lambda1 = 0" 0. spec.(0);
  (* path graph P3 unnormalized Laplacian eigenvalues: 0, 1, 3 *)
  check_float ~tol:1e-9 "lambda2 = 1" 1. spec.(1);
  check_float ~tol:1e-9 "lambda3 = 3" 3. spec.(2)

let test_fiedler_disconnected () =
  (* algebraic connectivity (second-smallest eigenvalue) vanishes *)
  let spec = spectrum (G.of_dense two_components) in
  check_float ~tol:1e-9 "disconnected -> 0 fiedler" 0. spec.(1)

let prop_components_count_eq_kernel_dim seed =
  (* number of zero Laplacian eigenvalues = number of components *)
  let rng = Prng.Rng.create seed in
  let n = 2 + Prng.Rng.int rng 6 in
  (* random block-diagonal union of two cliques, possibly bridged *)
  let bridge = Prng.Rng.bool rng in
  let k = 1 + Prng.Rng.int rng (n - 1) in
  let w =
    Mat.init n n (fun i j ->
        if i = j then 0.
        else if (i < k && j < k) || (i >= k && j >= k) then 1.
        else if bridge then 0.5
        else 0.)
  in
  let g = G.of_dense w in
  let spec = spectrum g in
  let zeros = Array.fold_left (fun acc l -> if abs_float l < 1e-8 then acc + 1 else acc) 0 spec in
  zeros = C.count_components g

(* Components as they were found before the scan stopped at one
   component: union-find over every iter_edges edge above the
   threshold, roots labelled in order of first appearance. *)
let reference_components ~threshold g =
  let n = G.order g in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  G.iter_edges g (fun i j w ->
      if w > threshold then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end);
  let label = Array.make n (-1) and next = ref 0 in
  Array.init n (fun i ->
      let r = find i in
      if label.(r) = -1 then begin
        label.(r) <- !next;
        incr next
      end;
      label.(r))

(* Degrees as Vec.sum of a copied row, as they were summed before *)
let reference_degrees w =
  Array.init w.Mat.rows (fun i -> Vec.sum (Mat.row w i))

(* Symmetric weights over 1-4 clusters, edges inside a cluster with
   probability 1/2 (a complete graph half the time), none across, some
   self-loops; weights on a 0.1 grid, so thresholds land on them. *)
let random_clustered rng =
  let n = 1 + Prng.Rng.int rng 40 in
  let k = 1 + Prng.Rng.int rng 4 in
  let cluster = Array.init n (fun _ -> Prng.Rng.int rng k) in
  let complete = Prng.Rng.bool rng in
  let w = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      if cluster.(i) = cluster.(j) && (complete || Prng.Rng.bool rng) then begin
        let v = float_of_int (1 + Prng.Rng.int rng 10) /. 10. in
        Mat.set w i j v;
        Mat.set w j i v
      end
    done
  done;
  w

let prop_degrees_components_bits seed =
  let rng = Prng.Rng.create seed in
  let w = random_clustered rng in
  let bits = Array.map Int64.bits_of_float in
  (* below 0 every stored nonzero weight is an edge, and no zero is *)
  let thresholds = [ 0.; float_of_int (Prng.Rng.int rng 10) /. 10.; -1. ] in
  List.for_all
    (fun (tag, graph) ->
      let ok_degrees =
        bits (G.degrees (graph ())) = bits (reference_degrees w)
      in
      let ok_components =
        List.for_all
          (fun threshold ->
            let g = graph () in
            C.components ~threshold g = reference_components ~threshold g)
          thresholds
      in
      if not (ok_degrees && ok_components) then
        QCheck.Test.fail_reportf "%s: degrees %b, components %b" tag ok_degrees
          ok_components;
      true)
    [
      ("dense", fun () -> G.of_dense w);
      ("csr", fun () -> G.of_sparse (Sparse.Csr.of_dense w));
    ]

let suite =
  ( "graph",
    [
      case "validation" test_graph_validation;
      case "basics" test_graph_basics;
      case "iter_edges" test_iter_edges;
      case "sparse storage agrees" test_sparse_graph_agrees;
      case "unnormalized laplacian" test_unnormalized_laplacian;
      case "connectivity" test_connectivity;
      case "threshold connectivity" test_connectivity_threshold;
      case "quadratic energy" test_quadratic_energy;
      qprop "energy = 2 f'Lf" prop_energy_is_2fLf;
      qprop "laplacian PSD" prop_laplacian_psd;
      qprop "L 1 = 0" prop_laplacian_kernel_contains_ones;
      case "soft operator matches dense" test_operator_matches_dense;
      case "bfs distances" test_bfs;
      case "spectral (path graph)" test_spectral;
      case "fiedler of disconnected" test_fiedler_disconnected;
      qprop "zero eigenvalues = components" prop_components_count_eq_kernel_dim;
      qprop ~count:200
        "degrees, components = row-copy sums, full union-find (dense, CSR)"
        prop_degrees_components_bits;
    ] )
