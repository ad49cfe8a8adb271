module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Wg = Graph.Weighted_graph

type diagnostic =
  | Non_finite_weight of { i : int; j : int }
  | Negative_weight of { i : int; j : int; value : float }
  | Self_loop of { vertex : int; weight : float }
  | Non_finite_label of { index : int }
  | Suspect_label of { index : int; value : float; loo_estimate : float }
  | Unanchored_vertex of { vertex : int }
  | Solver_fallback of { system : string; abandoned : string; reason : string }
  | Imputed_prediction of { vertex : int; value : float }
  | Deadline_expired of { elapsed_ms : float; budget_ms : float }

type severity = Info | Warning | Error

let severity = function
  | Self_loop _ -> Info
  | Suspect_label _ | Solver_fallback _ | Deadline_expired _ -> Warning
  | Non_finite_weight _ | Negative_weight _ | Non_finite_label _
  | Unanchored_vertex _ | Imputed_prediction _ ->
      Error

let class_name = function
  | Non_finite_weight _ -> "non-finite-weight"
  | Negative_weight _ -> "negative-weight"
  | Self_loop _ -> "self-loop"
  | Non_finite_label _ -> "non-finite-label"
  | Suspect_label _ -> "suspect-label"
  | Unanchored_vertex _ -> "unanchored-vertex"
  | Solver_fallback _ -> "solver-fallback"
  | Imputed_prediction _ -> "imputed-prediction"
  | Deadline_expired _ -> "deadline-expired"

let describe = function
  | Non_finite_weight { i; j } -> Printf.sprintf "weight w(%d,%d) is not finite" i j
  | Negative_weight { i; j; value } ->
      Printf.sprintf "weight w(%d,%d) = %g is negative" i j value
  | Self_loop { vertex; weight } ->
      Printf.sprintf "vertex %d carries a self-loop of weight %g" vertex weight
  | Non_finite_label { index } -> Printf.sprintf "label %d is not finite" index
  | Suspect_label { index; value; loo_estimate } ->
      Printf.sprintf
        "label %d = %g disagrees with its neighbourhood estimate %g" index value
        loo_estimate
  | Unanchored_vertex { vertex } ->
      Printf.sprintf "unlabeled vertex %d has no path to any label" vertex
  | Solver_fallback { system; abandoned; reason } ->
      Printf.sprintf "%s: abandoned %s (%s)" system abandoned reason
  | Imputed_prediction { vertex; value } ->
      Printf.sprintf "vertex %d imputed with the labeled mean %g" vertex value
  | Deadline_expired { elapsed_ms; budget_ms } ->
      Printf.sprintf "deadline expired after %.3f ms of a %.3f ms budget"
        elapsed_ms budget_ms

(* One weight entry, visited once per unordered pair (i <= j). *)
let classify_weight acc i j w =
  if w = 0. then acc
  else if not (Float.is_finite w) then Non_finite_weight { i; j } :: acc
  else if w < 0. then Negative_weight { i; j; value = w } :: acc
  else if i = j then Self_loop { vertex = i; weight = w } :: acc
  else acc

let scan_weights g acc =
  match Wg.storage g with
  | Wg.Dense m ->
      let n = Wg.order g in
      let acc = ref acc in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          acc := classify_weight !acc i j (Mat.get m i j)
        done
      done;
      !acc
  | Wg.Sparse c ->
      let n = Wg.order g in
      let acc = ref acc in
      for i = 0 to n - 1 do
        Sparse.Csr.iter_row c i (fun j w ->
            if j >= i then acc := classify_weight !acc i j w)
      done;
      !acc

let scan_labels y acc =
  let acc = ref acc in
  Array.iteri
    (fun index v ->
      if not (Float.is_finite v) then acc := Non_finite_label { index } :: !acc)
    y;
  !acc

(* Connectivity over finite positive weights only: [Connectivity.components]
   unions an edge when [w > 0.], which is false for NaN and for negative
   weights, so poisoned edges never anchor anything. *)
let scan_anchoring g y acc =
  let n = Array.length y in
  let total = Wg.order g in
  if n >= total then acc
  else begin
    let comps = Graph.Connectivity.components g in
    let anchored = Hashtbl.create 8 in
    for i = 0 to Stdlib.min n total - 1 do
      Hashtbl.replace anchored comps.(i) ()
    done;
    let acc = ref acc in
    for v = total - 1 downto n do
      if not (Hashtbl.mem anchored comps.(v)) then
        acc := Unanchored_vertex { vertex = v } :: !acc
    done;
    !acc
  end

(* Leave-one-out neighbourhood estimate over the labeled set, skipping
   non-finite labels and non-finite / negative weights. *)
let scan_suspects ~threshold g y acc =
  let n = Array.length y in
  let acc = ref acc in
  for i = 0 to n - 1 do
    if Float.is_finite y.(i) then begin
      let num = ref 0. and den = ref 0. in
      for j = 0 to n - 1 do
        if j <> i && Float.is_finite y.(j) then begin
          let w = Wg.weight g i j in
          if Float.is_finite w && w > 0. then begin
            num := !num +. (w *. y.(j));
            den := !den +. w
          end
        end
      done;
      if !den > 0. then begin
        let loo_estimate = !num /. !den in
        if abs_float (y.(i) -. loo_estimate) > threshold then
          acc := Suspect_label { index = i; value = y.(i); loo_estimate } :: !acc
      end
    end
  done;
  !acc

let scan ?suspect_threshold g y =
  let acc = scan_weights g [] in
  let acc = scan_labels y acc in
  let acc = scan_anchoring g y acc in
  let acc =
    match suspect_threshold with
    | None -> acc
    | Some threshold -> scan_suspects ~threshold g y acc
  in
  List.rev acc
