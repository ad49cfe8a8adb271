module Vec = Linalg.Vec
module Mat = Linalg.Mat

(* Symmetric V-cycle multigrid preconditioner over a heavy-edge
   coarsening hierarchy.

   One application runs, at every level but the coarsest: one
   weighted-Jacobi pre-smoothing sweep from a zero initial guess, the
   residual restricted to the next level, a recursive solve there, the
   prolongated correction, and one post-smoothing sweep.  The
   coarsest level is solved directly by a dense Cholesky factorization
   (with a ridge retry for singular pure-Laplacian tails).  If that
   level is too large for a dense factorization ([dense_cutoff]) or the
   factorization fails, [coarse_sweeps] Jacobi sweeps replace it.

   With S = ω·D⁻¹ the cycle is the fixed symmetric operator
     B = 2S − SAS + (I − SA)·P·B_c·Pᵀ·(I − SA)ᵀ,
   positive definite when 2S⁻¹ − A ≻ 0 (true for ω = 2/3 on a
   diagonally dominant A) and B_c is positive definite: exactly what
   [Cg.solve ~precond_apply] requires.

   Every level owns its buffers (x, A·x and the next level's right-hand
   side), so a cycle allocates only the vector it returns. *)

let c_builds = Telemetry.Counter.make "sparse.multigrid.builds"
let c_cycles = Telemetry.Counter.make "sparse.multigrid.cycles"

(* Damping: the classical optimum for Jacobi on Laplacian-like spectra. *)
let omega = 2. /. 3.

(* Sweeps that stand in for the coarsest solve when it cannot factor. *)
let coarse_sweeps = 8

type coarse_solver =
  | Cholesky of Mat.t  (* lower factor of the (possibly ridged) coarsest A *)
  | Smooth  (* factorization impossible: Jacobi sweeps instead *)

type level = {
  w : Csr.t;
  diag : Vec.t;
  inv_diag : Vec.t;
  cmap : int array;  (* vertex -> next-level aggregate; empty on the coarsest *)
  x : Vec.t;
  ax : Vec.t;
  rc : Vec.t;  (* the next level's right-hand side *)
}

type t = { hierarchy : Coarsen.t; levels : level array; coarse : coarse_solver }

let assemble_dense w diag =
  let n = Array.length diag in
  let a = Mat.zeros n n in
  for i = 0 to n - 1 do
    Mat.set a i i diag.(i);
    Csr.iter_row w i (fun j wij ->
        if j <> i then Mat.set a i j (Mat.get a i j -. wij))
  done;
  a

(* A coarsest level bigger than this never gets a dense factorization:
   assembling n² entries and running an O(n³) Cholesky on a stagnated
   hierarchy (thousands of vertices) would silently dominate the build
   by minutes, while Jacobi sweeps keep the cycle linear in the level
   size.  The preconditioner degrades gracefully instead. *)
let dense_cutoff = 1024

let coarse_solver_of w diag =
  if Array.length diag > dense_cutoff then Smooth
  else
    let a = assemble_dense w diag in
    match Linalg.Cholesky.factor a with
    | l -> Cholesky l
    | exception Linalg.Cholesky.Not_positive_definite _ -> (
        (* singular tail (e.g. a pure Laplacian, whose constant vector is
           a null direction): a small ridge keeps the coarse solve SPD
           while perturbing the preconditioner, not the solution *)
        let scale =
          Array.fold_left (fun acc d -> Float.max acc (abs_float d)) 1. diag
        in
        let ridged = Mat.add_scaled_identity a (1e-8 *. scale) in
        match Linalg.Cholesky.factor ridged with
        | l -> Cholesky l
        | exception Linalg.Cholesky.Not_positive_definite _ -> Smooth)

let build ~w ~diag () =
  Telemetry.Span.with_ "multigrid.build" (fun () ->
      Telemetry.Counter.incr c_builds;
      let hierarchy = Coarsen.build ~w ~diag () in
      let depth = Coarsen.depth hierarchy in
      let levels =
        Array.init depth (fun l ->
            let w, diag = Coarsen.level hierarchy l in
            let n = Array.length diag and last = l = depth - 1 in
            let inv_diag =
              Array.map (fun x -> if abs_float x > 1e-300 then 1. /. x else 0.) diag
            in
            let cmap = if last then [||] else Coarsen.map_at hierarchy l in
            let nc = if last then 0 else Coarsen.level_size hierarchy (l + 1) in
            let x = Vec.zeros n and ax = Vec.zeros n and rc = Vec.zeros nc in
            { w; diag; inv_diag; cmap; x; ax; rc })
      in
      let cw, cdiag = Coarsen.level hierarchy (depth - 1) in
      { hierarchy; levels; coarse = coarse_solver_of cw cdiag })

let depth t = Array.length t.levels
let hierarchy t = t.hierarchy

(* The first sweep from x = 0: A·0 = 0, so x = ω·D⁻¹·r needs no product. *)
let first_sweep lv r =
  for i = 0 to Array.length lv.x - 1 do
    lv.x.(i) <- omega *. lv.inv_diag.(i) *. r.(i)
  done

(* x ← x + ω·D⁻¹·(r − A·x) *)
let sweep lv r =
  Csr.lap_mv_into lv.w ~deg:lv.diag lv.x lv.ax;
  for i = 0 to Array.length lv.x - 1 do
    lv.x.(i) <- lv.x.(i) +. (omega *. lv.inv_diag.(i) *. (r.(i) -. lv.ax.(i)))
  done

let rec vcycle t l r =
  let lv = t.levels.(l) in
  if l = Array.length t.levels - 1 then
    match t.coarse with
    | Cholesky f -> Linalg.Cholesky.solve_factored f r
    | Smooth ->
        first_sweep lv r;
        for _ = 2 to coarse_sweeps do
          sweep lv r
        done;
        lv.x
  else begin
    let { x; ax; rc; cmap; _ } = lv in
    first_sweep lv r;
    (* residual r − A·x, restricted (summed into aggregates) as it is formed *)
    Csr.lap_mv_into lv.w ~deg:lv.diag x ax;
    Vec.fill rc 0.;
    for i = 0 to Array.length x - 1 do
      rc.(cmap.(i)) <- rc.(cmap.(i)) +. (r.(i) -. ax.(i))
    done;
    let ec = vcycle t (l + 1) rc in
    for i = 0 to Array.length x - 1 do
      x.(i) <- x.(i) +. ec.(cmap.(i))
    done;
    sweep lv r;
    x
  end

let precondition t r =
  if Array.length r <> Array.length t.levels.(0).diag then
    invalid_arg "Multigrid.precondition: length mismatch";
  Telemetry.Counter.incr c_cycles;
  Vec.copy (vcycle t 0 r)

let operator t =
  let { w; diag; _ } = t.levels.(0) in
  Linop.of_fun ~dim:(Array.length diag)
    ~diag:(fun () -> Vec.copy diag)
    (fun x -> Csr.lap_mv w ~deg:diag x)

let solve ?x0 ?tol ?max_iter ?should_stop t b =
  Cg.solve ?x0 ?tol ?max_iter ~precond_apply:(precondition t) ?should_stop
    (operator t) b
