module Mat = Linalg.Mat
module Vec = Linalg.Vec

type t = {
  graph : Graph.Weighted_graph.t;
  known : (int, float) Hashtbl.t;    (* graph vertex -> label *)
  n_labeled : int;                   (* labeled at creation: 0 … n−1 *)
  system : System.t;                 (* Eq. (5) at creation *)
  mutable unlabeled : int array;     (* ascending graph indices *)
  mutable inverse : Mat.t;           (* (D22 - W22)^{-1} on [unlabeled] *)
  mutable rhs : Vec.t;               (* W21 y on [unlabeled] *)
}

let create problem =
  Hard.check_anchored problem;
  let n = Problem.n_labeled problem in
  let known = Hashtbl.create (Problem.size problem + 1) in
  Array.iteri (Hashtbl.replace known) problem.Problem.labels;
  let a = Hard.system_matrix problem and b = Hard.rhs problem in
  { graph = problem.Problem.graph;
    known;
    n_labeled = n;
    system = { System.a = System.Dense a; b };
    unlabeled = Problem.unlabeled_indices problem;
    inverse = Linalg.Cholesky.inverse a;
    rhs = Vec.copy b }

let predict t =
  let scores = Mat.mv t.inverse t.rhs in
  Array.mapi (fun k v -> (v, scores.(k))) t.unlabeled

let position_of t vertex =
  let pos = ref (-1) in
  Array.iteri (fun k v -> if v = vertex then pos := k) t.unlabeled;
  if !pos < 0 then invalid_arg "Incremental.reveal: vertex not unlabeled";
  !pos

let reveal t ~vertex ~label =
  let k = position_of t vertex in
  Hashtbl.replace t.known vertex label;
  (* drop position k from the system: block-inverse downdate *)
  t.inverse <- Linalg.Rank_one.delete_row_col t.inverse k;
  let m = Array.length t.unlabeled in
  let next_unlabeled = Array.make (m - 1) 0 in
  let next_rhs = Array.make (m - 1) 0. in
  let pos = ref 0 in
  Array.iteri
    (fun j v ->
      if j <> k then begin
        next_unlabeled.(!pos) <- v;
        (* the newly labeled vertex now contributes to the right-hand side *)
        next_rhs.(!pos) <-
          t.rhs.(j) +. (Graph.Weighted_graph.weight t.graph v vertex *. label);
        incr pos
      end)
    t.unlabeled;
  t.unlabeled <- next_unlabeled;
  t.rhs <- next_rhs

let n_remaining t = Array.length t.unlabeled
let remaining t = Array.copy t.unlabeled

let labels t =
  let out = Hashtbl.fold (fun v y acc -> (v, y) :: acc) t.known [] in
  Array.of_list (List.sort compare out)

let graph t = t.graph

(* The creation-time system restricted to the still-unlabeled vertices,
   with b continued over the revealed labels in ascending vertex order —
   the order a fresh assembly over all known labels would sum them in. *)
let system t =
  let sub =
    System.restrict (Array.map (fun v -> v - t.n_labeled) t.unlabeled) t.system
  in
  let revealed =
    List.filter (fun (v, _) -> v >= t.n_labeled) (Array.to_list (labels t))
  in
  let b =
    Array.mapi
      (fun p bp ->
        List.fold_left
          (fun acc (l, y) ->
            acc +. (Graph.Weighted_graph.weight t.graph t.unlabeled.(p) l *. y))
          bp revealed)
      sub.System.b
  in
  { sub with System.b }
