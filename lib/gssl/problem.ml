module Mat = Linalg.Mat
module Vec = Linalg.Vec

type t = { graph : Graph.Weighted_graph.t; labels : Vec.t }

let make ~graph ~labels =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Problem.make: no labeled data";
  if n > Graph.Weighted_graph.order graph then
    invalid_arg "Problem.make: more labels than vertices";
  Array.iteri
    (fun i v ->
      if not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "Problem.make: non-finite label at index %d" i))
    labels;
  { graph; labels }

let make_unchecked ~graph ~labels =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Problem.make_unchecked: no labeled data";
  if n > Graph.Weighted_graph.order graph then
    invalid_arg "Problem.make_unchecked: more labels than vertices";
  { graph; labels }

let of_points ~kernel ~bandwidth ~labeled ~unlabeled =
  if Array.length labeled = 0 then invalid_arg "Problem.of_points: no labeled data";
  let labeled_points = Array.map fst labeled in
  let labels = Array.map snd labeled in
  let points = Array.append labeled_points unlabeled in
  let h = Kernel.Bandwidth.select bandwidth points in
  let w = Kernel.Similarity.dense ~kernel ~bandwidth:h points in
  make ~graph:(Graph.Weighted_graph.of_dense w) ~labels

let n_labeled t = Array.length t.labels
let size t = Graph.Weighted_graph.order t.graph
let n_unlabeled t = size t - n_labeled t

let labeled_indices t = Array.init (n_labeled t) (fun i -> i)

let unlabeled_indices t =
  let n = n_labeled t in
  Array.init (n_unlabeled t) (fun a -> n + a)

let blocks t =
  let w = Graph.Weighted_graph.to_dense t.graph in
  let n = n_labeled t in
  let w11, w12, w21, w22 = Mat.split4 w n in
  (w11, w12, w21, w22)

let degrees t = Graph.Weighted_graph.degrees t.graph

let is_connected t = Graph.Connectivity.is_connected t.graph

let anchored_mask t =
  let comps = Graph.Connectivity.components t.graph in
  let n = n_labeled t in
  let anchored = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    Hashtbl.replace anchored comps.(i) ()
  done;
  Array.init (n_unlabeled t) (fun a -> Hashtbl.mem anchored comps.(n + a))

let unlabeled_coupling t =
  let n = n_labeled t and m = n_unlabeled t in
  Array.init m (fun a ->
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. Graph.Weighted_graph.weight t.graph (n + a) i
      done;
      !acc)
