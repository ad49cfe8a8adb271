let components = Weighted_graph.components

let count_components ?threshold g =
  let c = components ?threshold g in
  1 + Array.fold_left Stdlib.max (-1) c

let is_connected ?threshold g = count_components ?threshold g <= 1

let bfs_distances ?(threshold = 0.) g source =
  let n = Weighted_graph.order g in
  if source < 0 || source >= n then
    invalid_arg "Connectivity.bfs_distances: bad source";
  (* adjacency from thresholded edges *)
  let adj = Array.make n [] in
  Weighted_graph.iter_edges g (fun i j w ->
      if w > threshold then begin
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j)
      end);
  let dist = Array.make n (-1) in
  dist.(source) <- 0;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      adj.(u)
  done;
  dist
