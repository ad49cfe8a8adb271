module Mat = Linalg.Mat

let symmetric_of_edges n edges =
  let m = Mat.zeros n n in
  List.iter
    (fun (i, j, w) ->
      Mat.set m i j w;
      Mat.set m j i w)
    edges;
  Weighted_graph.of_dense m

let stochastic_block rng ~sizes ~p_in ~p_out =
  if Array.length sizes = 0 then invalid_arg "Generators.stochastic_block: no blocks";
  Array.iter
    (fun s -> if s < 1 then invalid_arg "Generators.stochastic_block: empty block")
    sizes;
  if p_in < 0. || p_in > 1. || p_out < 0. || p_out > 1. then
    invalid_arg "Generators.stochastic_block: probabilities outside [0,1]";
  let n = Array.fold_left ( + ) 0 sizes in
  let block = Array.make n 0 in
  let pos = ref 0 in
  Array.iteri
    (fun b s ->
      for _ = 1 to s do
        block.(!pos) <- b;
        incr pos
      done)
    sizes;
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = if block.(i) = block.(j) then p_in else p_out in
      if Prng.Rng.bernoulli rng p then edges := (i, j, 1.) :: !edges
    done
  done;
  (symmetric_of_edges n !edges, block)
