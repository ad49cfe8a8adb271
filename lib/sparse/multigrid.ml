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

   Every level owns its buffers (x, the next level's right-hand side
   and, below the finest, the level's answer), and the finest level
   writes its answer into the caller's vector, so a cycle allocates
   nothing. *)

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
  step : Vec.t;  (* ω·D⁻¹, the damped Jacobi step *)
  cmap : int array;  (* vertex -> next-level aggregate; empty on the coarsest *)
  x : Vec.t;  (* the iterate before post-smoothing *)
  y : Vec.t;
      (* the level's answer, written by the post-smoothing sweep (and
         the residual before it); empty on the finest, whose answer goes
         to the caller's vector *)
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
            let step =
              Array.map
                (fun x ->
                  omega *. (if abs_float x > 1e-300 then 1. /. x else 0.))
                diag
            in
            let cmap = if last then [||] else Coarsen.map_at hierarchy l in
            let nc = if last then 0 else Coarsen.level_size hierarchy (l + 1) in
            let x = Vec.zeros n and rc = Vec.zeros nc in
            let y = if l = 0 then [||] else Vec.zeros n in
            { w; diag; step; cmap; x; y; rc })
      in
      let cw, cdiag = Coarsen.level hierarchy (depth - 1) in
      { hierarchy; levels; coarse = coarse_solver_of cw cdiag })

let depth t = Array.length t.levels
let hierarchy t = t.hierarchy

(* The first sweep from x = 0: A·0 = 0, so x = ω·D⁻¹·r needs no product. *)
let first_sweep lv r x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- lv.step.(i) *. r.(i)
  done

(* The level-[l] answer to A·e = r, written into [out]. *)
let rec vcycle t l r out =
  let lv = t.levels.(l) in
  if l = Array.length t.levels - 1 then
    match t.coarse with
    | Cholesky f -> Linalg.Cholesky.solve_factored_into f r out
    | Smooth ->
        (* sweep k reads sweep k − 1's iterate; they alternate between x
           and out so that the last lands in out *)
        let buf k = if (coarse_sweeps - k) mod 2 = 0 then out else lv.x in
        first_sweep lv r (buf 1);
        for k = 2 to coarse_sweeps do
          Csr.lap_jacobi_into lv.w ~deg:lv.diag ~step:lv.step ~b:r
            (buf (k - 1)) (buf k)
        done
  else begin
    let { w; diag; step; x; rc; cmap; _ } = lv in
    first_sweep lv r x;
    (* residual r − A·x into out (free until the post-sweep), restricted
       by summing into aggregates *)
    Csr.lap_residual_into w ~deg:diag ~b:r x out;
    Vec.fill rc 0.;
    for i = 0 to Array.length x - 1 do
      rc.(cmap.(i)) <- rc.(cmap.(i)) +. out.(i)
    done;
    let ec = t.levels.(l + 1).y in
    vcycle t (l + 1) rc ec;
    for i = 0 to Array.length x - 1 do
      x.(i) <- x.(i) +. ec.(cmap.(i))
    done;
    Csr.lap_jacobi_into w ~deg:diag ~step ~b:r x out
  end

let precondition_into t r z =
  let n = Array.length t.levels.(0).diag in
  if Array.length r <> n || Array.length z <> n then
    invalid_arg "Multigrid.precondition: length mismatch";
  if n > 0 && r == z then
    invalid_arg "Multigrid.precondition_into: z aliases r";
  Telemetry.Counter.incr c_cycles;
  vcycle t 0 r z

let precondition t r =
  let z = Vec.zeros (Array.length r) in
  precondition_into t r z;
  z

let operator t =
  let { w; diag; _ } = t.levels.(0) in
  Linop.of_fun ~dim:(Array.length diag)
    ~diag:(fun () -> Vec.copy diag)
    (fun x y -> Csr.lap_mv_into w ~deg:diag x y)

let solve ?x0 ?tol ?max_iter ?should_stop t b =
  Cg.solve ?x0 ?tol ?max_iter ~precond_apply:(precondition_into t) ?should_stop
    (operator t) b
