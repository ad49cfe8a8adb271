module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Wg = Graph.Weighted_graph

type t =
  | Weight_jitter of { amplitude : float }
  | Edge_drop of { fraction : float }
  | Label_flip of { count : int }
  | Nan_poison_weight of { count : int }
  | Nan_poison_label of { count : int }
  | Cg_cap of { max_iter : int }
  | Latency_stall of { ms : float }

type injected = {
  graph : Wg.t;
  labels : Vec.t;
  cg_max_iter : int option;
  stall_ms : float;
  applied : t list;
}

let class_name = function
  | Weight_jitter _ -> "weight-jitter"
  | Edge_drop _ -> "edge-drop"
  | Label_flip _ -> "label-flip"
  | Nan_poison_weight _ -> "nan-poison-weight"
  | Nan_poison_label _ -> "nan-poison-label"
  | Cg_cap _ -> "cg-cap"
  | Latency_stall _ -> "latency-stall"

let detects fault (d : Check.diagnostic) =
  match (fault, d) with
  | Weight_jitter _, Check.Negative_weight _ -> true
  | Edge_drop _, Check.Unanchored_vertex _ -> true
  | Label_flip _, Check.Suspect_label _ -> true
  | Nan_poison_weight _, Check.Non_finite_weight _ -> true
  | Nan_poison_label _, Check.Non_finite_label _ -> true
  | Cg_cap _, Check.Solver_fallback _ -> true
  | Latency_stall _, Check.Deadline_expired _ -> true
  | _ -> false

(* Deterministic busy-wait: spins the CPU for [ms] wall milliseconds.
   This is what a latency stall *is* at serve time — the worker is busy,
   not sleeping, so a deadline can only be honoured by the cooperative
   [should_stop] polling around it. *)
let busy_wait_ms ms =
  if ms > 0. then begin
    let deadline = Telemetry.Monotonic.now_ns () +. (ms *. 1e6) in
    while Telemetry.Monotonic.now_ns () < deadline do
      ignore (Sys.opaque_identity (ref 0))
    done
  end

(* The nonzero off-diagonal edges (i < j, deterministic order). *)
let edges_of g =
  let acc = ref [] in
  Wg.iter_edges g (fun i j w -> acc := (i, j, w) :: !acc);
  Array.of_list (List.rev !acc)

let key i j = if i <= j then (i, j) else (j, i)

(* Rebuild the graph with [overrides] applied to existing entries,
   preserving the storage kind.  Only positions already stored (dense:
   any; sparse: structural nonzeros) can change, which suits every fault
   here — they all act on existing edges. *)
let rebuild g overrides =
  match Wg.storage g with
  | Wg.Dense m ->
      let n = Wg.order g in
      Wg.of_dense_unchecked
        (Mat.init n n (fun i j ->
             match Hashtbl.find_opt overrides (key i j) with
             | Some w -> w
             | None -> Mat.get m i j))
  | Wg.Sparse c ->
      let rows, cols = Sparse.Csr.dims c in
      let coo = Sparse.Coo.create rows cols in
      for i = 0 to rows - 1 do
        Sparse.Csr.iter_row c i (fun j w ->
            let w =
              match Hashtbl.find_opt overrides (key i j) with
              | Some o -> o
              | None -> w
            in
            Sparse.Coo.add coo i j w)
      done;
      Wg.of_sparse_unchecked (Sparse.Csr.of_coo coo)

(* Prefix-stable selection: draw a full permutation (rng consumption
   independent of [count]), then take the first [count] entries. *)
let select rng count n =
  let perm = Prng.Rng.permutation rng n in
  Array.sub perm 0 (Stdlib.min (Stdlib.max count 0) n)

let apply_one rng ~n_labeled fault (g, y, cap, stall) =
  match fault with
  | Cg_cap { max_iter } ->
      let cap =
        match cap with
        | None -> Some max_iter
        | Some c -> Some (Stdlib.min c max_iter)
      in
      (g, y, cap, stall)
  | Latency_stall { ms } ->
      (* the stall duration is seeded: the requested [ms] is jittered by
         the injection rng so different seeds stall for different (but
         replayable) amounts.  The wait itself happens at solve time —
         the serving layer burns [stall_ms] off the request's budget
         (virtual clock) or busy-waits for it (monotonic clock). *)
      let jitter = Prng.Rng.uniform rng 0.75 1.25 in
      (g, y, cap, stall +. (Stdlib.max 0. ms *. jitter))
  | Label_flip { count } ->
      let n = Array.length y in
      let lo = ref infinity and hi = ref neg_infinity in
      Array.iter
        (fun v ->
          if Float.is_finite v then begin
            lo := Stdlib.min !lo v;
            hi := Stdlib.max !hi v
          end)
        y;
      let y' = Vec.copy y in
      if Float.is_finite !lo && Float.is_finite !hi then
        Array.iter
          (fun i -> if Float.is_finite y'.(i) then y'.(i) <- !lo +. !hi -. y'.(i))
          (select rng count n);
      (g, y', cap, stall)
  | Nan_poison_label { count } ->
      let y' = Vec.copy y in
      Array.iter (fun i -> y'.(i) <- Float.nan) (select rng count (Array.length y));
      (g, y', cap, stall)
  | Nan_poison_weight { count } ->
      let edges = edges_of g in
      let overrides = Hashtbl.create 16 in
      Array.iter
        (fun e ->
          let i, j, _ = edges.(e) in
          Hashtbl.replace overrides (key i j) Float.nan)
        (select rng count (Array.length edges));
      (rebuild g overrides, y, cap, stall)
  | Weight_jitter { amplitude } ->
      let edges = edges_of g in
      let overrides = Hashtbl.create (Array.length edges) in
      Array.iter
        (fun (i, j, w) ->
          Hashtbl.replace overrides (key i j)
            (w *. (1. +. Prng.Rng.uniform rng (-.amplitude) amplitude)))
        edges;
      if Array.length edges > 0 then begin
        (* one corrupted entry goes negative, guaranteeing detection *)
        let i, j, w = edges.(Prng.Rng.int rng (Array.length edges)) in
        Hashtbl.replace overrides (key i j) (-.abs_float w -. 1e-3)
      end;
      (rebuild g overrides, y, cap, stall)
  | Edge_drop { fraction } ->
      let edges = edges_of g in
      let overrides = Hashtbl.create 16 in
      Array.iter
        (fun (i, j, _) ->
          if Prng.Rng.bernoulli rng (Stdlib.min 1. (Stdlib.max 0. fraction)) then
            Hashtbl.replace overrides (key i j) 0.)
        edges;
      let total = Wg.order g in
      if total > n_labeled then begin
        (* sever one unlabeled vertex entirely: guaranteed unanchored *)
        let v = n_labeled + Prng.Rng.int rng (total - n_labeled) in
        Array.iter
          (fun (i, j, _) ->
            if i = v || j = v then Hashtbl.replace overrides (key i j) 0.)
          edges
      end;
      (rebuild g overrides, y, cap, stall)

let inject rng ~n_labeled faults g y =
  let g, labels, cg_max_iter, stall_ms =
    List.fold_left
      (fun acc fault -> apply_one rng ~n_labeled fault acc)
      (g, Vec.copy y, None, 0.) faults
  in
  { graph = g; labels; cg_max_iter; stall_ms; applied = faults }
