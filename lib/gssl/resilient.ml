module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Wg = Graph.Weighted_graph
module Check = Robust.Check
module Rsolve = Robust.Solve

type report = {
  predictions : Vec.t;
  diagnostics : Check.diagnostic list;
  imputed : int array;
  n_components : int;
  n_anchored : int;
  certificates : (int * Obs.Health.t) list;
  aborted : bool;
}

let c_hard = Telemetry.Counter.make "gssl.resilient_hard_solves"
let c_soft = Telemetry.Counter.make "gssl.resilient_soft_solves"
let c_imputed = Telemetry.Counter.make "gssl.resilient_imputed_vertices"

(* Mean of the finite labels — the λ→∞ constant of Proposition II.2 and
   the value used for every imputation.  0 when no label is usable. *)
let finite_mean y =
  let sum = ref 0. and count = ref 0 in
  Array.iter
    (fun v ->
      if Float.is_finite v then begin
        sum := !sum +. v;
        incr count
      end)
    y;
  if !count = 0 then 0. else !sum /. float_of_int !count

let sanitize_weight w = if Float.is_finite w && w > 0. then w else 0.

(* Weights that are NaN, infinite or negative become absent edges, which
   matches how Connectivity.components already treats them — so the
   component partition and the solves see the same graph. *)
let sanitize_graph g =
  match Wg.storage g with
  | Wg.Dense m ->
      Wg.of_dense_unchecked
        (Mat.init m.Mat.rows m.Mat.cols (fun i j -> sanitize_weight (Mat.get m i j)))
  | Wg.Sparse c -> Wg.of_sparse_unchecked (Sparse.Csr.map_values sanitize_weight c)

let sanitize_labels mean y =
  Array.map (fun v -> if Float.is_finite v then v else mean) y

(* Group vertices by component id, split at the labeled boundary.
   Returns (comp id, labeled globals, unlabeled globals) in component
   order, each member list ascending. *)
let partition comps n =
  let total = Array.length comps in
  let n_comp = Array.fold_left (fun acc c -> max acc (c + 1)) 0 comps in
  let labeled = Array.make n_comp [] and unlabeled = Array.make n_comp [] in
  for v = total - 1 downto 0 do
    let c = comps.(v) in
    if v < n then labeled.(c) <- v :: labeled.(c)
    else unlabeled.(c) <- v :: unlabeled.(c)
  done;
  List.init n_comp (fun c -> (c, labeled.(c), unlabeled.(c)))

(* One component's restricted system through the fallback chain of its
   storage, with the certificate of its answer. *)
let solve_component ?cg_max_iter ?should_stop ~system (sys : System.t) =
  let out =
    match sys.System.a with
    | System.Dense a -> Rsolve.solve_dense ?should_stop a sys.System.b
    | System.Csr a -> Rsolve.solve_sparse ?cg_max_iter ?should_stop a sys.System.b
    | System.Lap _ | System.Op _ ->
        invalid_arg "Resilient: no fallback chain for a fused or matrix-free system"
  in
  let cert =
    System.certify ~system ~rung:out.Rsolve.rung
      ~attempts:out.Rsolve.cg_attempts sys out.Rsolve.solution
  in
  (out, cert)

(* Eq. (5) in the storage of the problem's graph. *)
let hard_system problem =
  match Wg.storage problem.Problem.graph with
  | Wg.Dense _ ->
      let a = Hard.system_matrix problem in
      { System.a = System.Dense a; b = Hard.rhs problem }
  | Wg.Sparse _ ->
      let a, b = Scalable.system_csr problem in
      { System.a = System.Csr a; b }

(* [system] assembles the sanitised problem's system once; [rows labeled
   unlabeled] names one component's positions in it, and the position
   of its first unlabeled vertex among them.  Each anchored component is
   then solved on the restriction of that system to its positions,
   which no edge couples to the rest. *)
let solve_impl ?suspect_threshold ?cg_max_iter ?should_stop ~kind ~system ~rows
    problem =
  let g0 = problem.Problem.graph in
  let y0 = problem.Problem.labels in
  let n = Problem.n_labeled problem in
  let m = Problem.n_unlabeled problem in
  let scan = Check.scan ?suspect_threshold g0 y0 in
  let mean = finite_mean y0 in
  let y_clean = sanitize_labels mean y0 in
  let g = sanitize_graph g0 in
  let global = system (Problem.make_unchecked ~graph:g ~labels:y_clean) in
  let comps = Graph.Connectivity.components g in
  let groups = partition comps n in
  let n_components = List.length groups in
  let n_anchored =
    List.length (List.filter (fun (_, labeled, _) -> labeled <> []) groups)
  in
  let predictions = Vec.create m mean in
  let extra = ref [] in
  let imputed = ref [] in
  let certificates = ref [] in
  let aborted = ref false in
  let impute v =
    predictions.(v - n) <- mean;
    imputed := v :: !imputed;
    Telemetry.Counter.incr c_imputed;
    extra := Check.Imputed_prediction { vertex = v; value = mean } :: !extra
  in
  List.iter
    (fun (c, labeled, unlabeled) ->
      match (labeled, unlabeled) with
      | _, [] -> ()
      | [], _ -> List.iter impute unlabeled
      | _ ->
          let idx, first = rows labeled unlabeled in
          let out, cert =
            solve_component ?cg_max_iter ?should_stop
              ~system:("resilient." ^ kind) (System.restrict idx global)
          in
          certificates := (c, cert) :: !certificates;
          aborted := !aborted || out.Rsolve.aborted;
          List.iter
            (fun { Rsolve.abandoned; reason } ->
              extra :=
                Check.Solver_fallback
                  { system = Printf.sprintf "%s component %d" kind c;
                    abandoned; reason }
                :: !extra)
            out.Rsolve.escalations;
          List.iteri
            (fun p v ->
              let x = out.Rsolve.solution.(first + p) in
              if Float.is_finite x then predictions.(v - n) <- x else impute v)
            unlabeled)
    groups;
  { predictions;
    diagnostics = scan @ List.rev !extra;
    imputed = Array.of_list (List.rev !imputed);
    n_components;
    n_anchored;
    certificates = List.rev !certificates;
    aborted = !aborted }

let solve_hard ?suspect_threshold ?cg_max_iter ?should_stop problem =
  Telemetry.Span.with_ "gssl.resilient_hard" @@ fun () ->
  Telemetry.Counter.incr c_hard;
  let n = Problem.n_labeled problem in
  solve_impl ?suspect_threshold ?cg_max_iter ?should_stop ~kind:"hard"
    ~system:hard_system
    ~rows:(fun _ unlabeled ->
      (Array.of_list (List.map (fun v -> v - n) unlabeled), 0))
    problem

let solve_soft ?suspect_threshold ?cg_max_iter ?should_stop ~lambda problem =
  if lambda <= 0. then
    invalid_arg "Resilient.solve_soft: lambda must be strictly positive";
  Telemetry.Span.with_ "gssl.resilient_soft" @@ fun () ->
  Telemetry.Counter.incr c_soft;
  solve_impl ?suspect_threshold ?cg_max_iter ?should_stop ~kind:"soft"
    ~system:(Soft.system ~lambda)
    ~rows:(fun labeled unlabeled ->
      (Array.of_list (labeled @ unlabeled), List.length labeled))
    problem
