module Mat = Linalg.Mat

type t = {
  graph : Graph.Weighted_graph.t;
  class_labels : int array;
  n_classes : int;
}

let make ~graph ~class_labels =
  let n = Array.length class_labels in
  if n = 0 then invalid_arg "Multiclass.make: no labeled data";
  if n > Graph.Weighted_graph.order graph then
    invalid_arg "Multiclass.make: more labels than vertices";
  let n_classes = 1 + Array.fold_left Stdlib.max (-1) class_labels in
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Multiclass.make: negative class")
    class_labels;
  let present = Array.make n_classes false in
  Array.iter (fun c -> present.(c) <- true) class_labels;
  if not (Array.for_all (fun b -> b) present) then
    invalid_arg "Multiclass.make: class numbering has gaps";
  { graph; class_labels; n_classes }

let indicator_problem t c =
  let labels =
    Array.map (fun cls -> if cls = c then 1. else 0.) t.class_labels
  in
  Problem.make ~graph:t.graph ~labels

(* For the hard criterion the system matrix is label-independent, so we
   factor it once and reuse it for every class's right-hand side. *)
let hard_scores t =
  let p0 = indicator_problem t 0 in
  let m = Problem.n_unlabeled p0 in
  if m = 0 then Mat.zeros 0 t.n_classes
  else begin
    let l = Linalg.Cholesky.factor (Hard.system_matrix p0) in
    let cols =
      Array.init t.n_classes (fun c ->
          Linalg.Cholesky.solve_factored l (Hard.rhs (indicator_problem t c)))
    in
    Mat.of_cols cols
  end

let generic_scores t criterion =
  let m =
    Graph.Weighted_graph.order t.graph - Array.length t.class_labels
  in
  if m = 0 then Mat.zeros 0 t.n_classes
  else
    Mat.of_cols
      (Array.init t.n_classes (fun c ->
           Estimator.predict criterion (indicator_problem t c)))

let scores ?(criterion = Estimator.Hard) t =
  match criterion with
  | Estimator.Hard -> hard_scores t
  | Estimator.Soft _ -> generic_scores t criterion

let predict ?criterion t =
  let s = scores ?criterion t in
  Array.init s.Mat.rows (fun i -> Linalg.Vec.argmax (Mat.row s i))

let accuracy ~truth predictions =
  if Array.length truth <> Array.length predictions then
    invalid_arg "Multiclass.accuracy: length mismatch";
  if Array.length truth = 0 then invalid_arg "Multiclass.accuracy: empty input";
  let hits = ref 0 in
  Array.iteri (fun i c -> if c = predictions.(i) then incr hits) truth;
  float_of_int !hits /. float_of_int (Array.length truth)
