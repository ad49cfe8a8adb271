(* How many anchors the hard criterion needs on a stochastic block
   model.  With one labeled vertex per block the harmonic solution
   flattens towards a constant; a handful per block restores recovery.

   Run with:  dune exec examples/sbm_anchors.exe *)

(* Hard-criterion accuracy on the two-block SBM (blocks 0..29 and
   30..59) with [per_block] labeled vertices from each block. *)
let sbm_hard_accuracy g blocks ~per_block =
  let n_vertices = Array.length blocks in
  let labeled_a = List.init per_block (fun i -> i) in
  let labeled_b = List.init per_block (fun i -> 30 + i) in
  let labeled = labeled_a @ labeled_b in
  let order =
    Array.append (Array.of_list labeled)
      (Array.of_list
         (List.filter (fun v -> not (List.mem v labeled)) (List.init n_vertices Fun.id)))
  in
  let w = Graph.Weighted_graph.to_dense g in
  let wp =
    Linalg.Mat.init n_vertices n_vertices (fun i j ->
        Linalg.Mat.get w order.(i) order.(j))
  in
  let labels =
    Array.of_list (List.map (fun v -> if blocks.(v) = 1 then 1. else 0.) labeled)
  in
  let problem =
    Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense wp) ~labels
  in
  let scores = Gssl.Hard.solve problem in
  let hits = ref 0 in
  Array.iteri
    (fun k s ->
      let v = order.(k + (2 * per_block)) in
      if (if s >= 0.5 then 1 else 0) = blocks.(v) then incr hits)
    scores;
  float_of_int !hits /. float_of_int (Array.length scores)

let () =
  let rng = Prng.Rng.create 52 in
  let g, blocks =
    Graph.Generators.stochastic_block rng ~sizes:[| 30; 30 |] ~p_in:0.5 ~p_out:0.05
  in
  print_string "Hard criterion on an SBM (30+30 vertices, p_in 0.5, p_out 0.05)\n\n";
  Printf.printf "%-16s  %8s\n" "labels per block" "accuracy";
  List.iter
    (fun per_block ->
      Printf.printf "%-16d  %8.4f\n" per_block
        (sbm_hard_accuracy g blocks ~per_block))
    [ 1; 5 ];
  print_newline ();
  print_string
    "On the dense SBM a *single* anchor per block is too weak: the harmonic\n\
     solution flattens towards a constant - exactly the uninformative-limit\n\
     phenomenon of Nadler et al. (the paper's reference [17]).  A handful\n\
     of labels per block restores near-perfect recovery, and the paper's\n\
     m = o(n h^d) condition is the same story asymptotically: labels must\n\
     not be overwhelmed by unlabeled mass.\n"
