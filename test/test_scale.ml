(* The million-vertex scaling layer: approximate kNN (Graph.Ann /
   Similarity.knn_approx), heavy-edge coarsening (Sparse.Coarsen), the
   multigrid V-cycle preconditioner (Sparse.Multigrid) and its plumbing
   through Cg.solve ~precond_apply and Gssl.Scalable.solve_hard. *)

open Test_util
module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Rng = Prng.Rng
module Csr = Sparse.Csr
module Coo = Sparse.Coo
module Ann = Graph.Ann
module Coarsen = Sparse.Coarsen
module Mg = Sparse.Multigrid
module Pool = Parallel.Pool

let domain_counts = [ 1; 2; Stdlib.max 2 (Pool.default_domain_count ()) ]

let random_points rng n d =
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.uniform rng (-5.) 5.))

(* random connected graph: a random spanning tree plus [extra] random
   edges, weights in [0.1, 1) (duplicates sum, staying positive) *)
let random_connected_csr rng n ~extra =
  let coo = Coo.create n n in
  let add i j w =
    if i <> j then begin
      Coo.add coo i j w;
      Coo.add coo j i w
    end
  in
  for v = 1 to n - 1 do
    add (Rng.int rng v) v (Rng.uniform rng 0.1 1.)
  done;
  for _ = 1 to extra do
    let i = Rng.int rng n and j = Rng.int rng n in
    add i j (Rng.uniform rng 0.1 1.)
  done;
  Csr.of_coo coo

(* 2-D grid Laplacian weights: the classic multigrid model problem *)
let grid_csr rows cols =
  let n = rows * cols in
  let coo = Coo.create n n in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then begin
        Coo.add coo (id r c) (id r (c + 1)) 1.;
        Coo.add coo (id r (c + 1)) (id r c) 1.
      end;
      if r + 1 < rows then begin
        Coo.add coo (id r c) (id (r + 1) c) 1.;
        Coo.add coo (id (r + 1) c) (id r c) 1.
      end
    done
  done;
  Csr.of_coo coo

let operator_of w deg =
  let m = Array.length deg in
  Sparse.Linop.of_fun ~dim:m
    ~diag:(fun () ->
      let wd = Csr.diagonal w in
      Array.init m (fun i -> deg.(i) -. wd.(i)))
    (fun x y -> Csr.lap_mv_into w ~deg x y)

(* ------------------------------------------------------------------ *)
(* ANN                                                                 *)
(* ------------------------------------------------------------------ *)

let recall_vs_exact points nb k =
  let n = Array.length points in
  let exact = brute_knn_rows points k in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    Array.iter
      (fun j -> if Array.exists (fun e -> e = j) exact.(i) then incr hits)
      nb.(i)
  done;
  float_of_int !hits /. float_of_int (n * k)

let ann_recall_meets_target =
  qprop ~count:20 "ann: measured recall >= target vs brute force"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 80 + Rng.int rng 120 in
      let k = 1 + Rng.int rng 6 in
      let points = random_points rng n 4 in
      let nb, info =
        Ann.all_k_nearest ~seed ~exact_cutoff:0 ~recall_target:0.9
          ~recall_sample:n points k
      in
      if info.Ann.exact then QCheck.Test.fail_report "expected the ANN path";
      if info.Ann.recall < 0.9 then
        QCheck.Test.fail_reportf "reported recall %.3f < 0.9" info.Ann.recall;
      (* the probe sample covered every point, so the reported recall is
         the true recall; cross-check against the brute-force sort *)
      let r = recall_vs_exact points nb k in
      if r < 0.9 -. 1e-9 then
        QCheck.Test.fail_reportf "recall vs brute force %.3f < 0.9" r;
      Array.iteri
        (fun i nbi ->
          if Array.length nbi <> k then
            QCheck.Test.fail_reportf "row %d has %d neighbours, wanted %d" i
              (Array.length nbi) k;
          Array.iter
            (fun j ->
              if j = i || j < 0 || j >= n then
                QCheck.Test.fail_reportf "row %d: bad neighbour %d" i j)
            nbi)
        nb;
      true)

let ann_bit_identical_across_domains =
  qprop ~count:10 "ann: bit-identical across domain counts" (fun seed ->
      let rng = Rng.create seed in
      let n = 80 + Rng.int rng 100 in
      let k = 1 + Rng.int rng 5 in
      let points = random_points rng n 3 in
      let run () =
        Ann.all_k_nearest ~seed ~exact_cutoff:0 ~recall_sample:16 points k
      in
      let reference, _ = Pool.sequential run in
      List.iter
        (fun domains ->
          let got, _ = Pool.with_default_domains domains run in
          if got <> reference then
            QCheck.Test.fail_reportf "domains=%d differs from serial" domains)
        domain_counts;
      true)

let test_ann_exact_cutoff_matches_brute_force () =
  let rng = Rng.create 11 in
  let points = random_points rng 60 3 in
  let nb, info = Ann.all_k_nearest points 4 in
  Alcotest.(check bool) "exact path" true info.Ann.exact;
  check_float "recall" 1.0 info.Ann.recall;
  let exact = brute_knn_rows points 4 in
  Array.iteri
    (fun i nbi ->
      Alcotest.(check (array int)) (Printf.sprintf "row %d" i) exact.(i) nbi)
    nb

(* Exact lists on lattice points with copies, where distances tie
   between distinct points and copies tie at 0: row for row equal to
   the brute-force sort, on 1 and 2 domains, with n on both sides of
   the pairwise pool threshold (n² >= 4096). *)
let ann_exact_lists_with_ties =
  qprop ~count:30 "ann: exact lists = brute_knn with ties, 1 and 2 domains"
    (fun seed ->
      let rng = Rng.create seed in
      List.iter
        (fun n ->
          let distinct = 1 + Rng.int rng n in
          let d = 1 + Rng.int rng 3 in
          let base =
            Array.init distinct (fun _ ->
                Array.init d (fun _ -> float_of_int (Rng.int rng 4)))
          in
          let points =
            Array.init n (fun i ->
                Array.copy base.(if i < distinct then i else Rng.int rng distinct))
          in
          let k = 1 + Rng.int rng (min 10 (n - 1)) in
          let want = brute_knn_rows points k in
          List.iter
            (fun domains ->
              let got, _ =
                Pool.with_default_domains domains (fun () ->
                    Ann.all_k_nearest points k)
              in
              Array.iteri
                (fun i row ->
                  if row <> want.(i) then
                    QCheck.Test.fail_reportf
                      "n=%d k=%d domains=%d: row %d differs" n k domains i)
                got)
            [ 1; 2 ])
        [ 2 + Rng.int rng 62; 64 + Rng.int rng 100 ];
      true)

let test_ann_query_external () =
  let rng = Rng.create 5 in
  let points = random_points rng 400 3 in
  let index = Ann.build ~seed:3 points in
  let q = Array.init 3 (fun _ -> Rng.uniform rng (-5.) 5.) in
  (* a huge probe budget makes the multi-probe search exhaustive *)
  let got = Ann.query index ~probes:10_000 q 5 in
  Alcotest.(check (array int)) "exhaustive query is exact"
    (brute_knn points q 5) got

(* exhaustive search on point sets with deliberate duplicates: ties in
   distance (and in every split projection) must fall back to the point
   index, exactly as the full (distance², index) sort orders them *)
let ann_exhaustive_query_with_duplicates =
  qprop ~count:60 "ann: exhaustive query = full sort, with duplicates"
    (fun seed ->
      let rng = Rng.create seed in
      let distinct = 1 + Rng.int rng 40 in
      let n = distinct + Rng.int rng 120 in
      let d = 1 + Rng.int rng 4 in
      (* coordinates on a coarse lattice, so distinct points tie too *)
      let base =
        Array.init distinct (fun _ ->
            Array.init d (fun _ -> float_of_int (Rng.int rng 4)))
      in
      let points =
        Array.init n (fun i ->
            Array.copy base.(if i < distinct then i else Rng.int rng distinct))
      in
      let trees = 1 + Rng.int rng 3 in
      let leaf_size = 1 + Rng.int rng 8 in
      let index = Ann.build ~seed ~trees ~leaf_size points in
      let q =
        if Rng.bool rng then Array.copy points.(Rng.int rng n)
        else Array.init d (fun _ -> float_of_int (Rng.int rng 4) +. 0.5)
      in
      let k = Rng.int rng (n + 1) in
      (* every tree has at most [n] leaves *)
      let got = Ann.query index ~probes:(trees * n) q k in
      let want = brute_knn points q k in
      if got <> want then
        QCheck.Test.fail_reportf "n=%d k=%d: got [%s], want [%s]" n k
          (String.concat ";" (Array.to_list (Array.map string_of_int got)))
          (String.concat ";" (Array.to_list (Array.map string_of_int want)));
      true)

(* Golden outputs of [Ann.all_k_nearest], recorded before the search's
   selection and median-split routines were last rewritten: a digest of
   the neighbour lists, the info record, and the candidate and
   exact-fallback counter deltas.  A change to leaf sets, probe order or
   tie-breaking moves them. *)
let digest_rows rows =
  let mix h v = Prng.Splitmix64.mix (Int64.logxor h (Int64.of_int v)) in
  Array.fold_left
    (fun h row -> Array.fold_left mix (mix h (Array.length row)) row)
    0L rows

let ann_golden ?queries run points =
  Telemetry.Registry.reset ();
  Telemetry.Registry.with_enabled (fun () ->
      let nb, (info : Ann.info) = run points in
      let extra =
        match queries with
        | None -> ""
        | Some (index, qs, k) ->
            Printf.sprintf " queries=%016Lx"
              (digest_rows (Array.map (fun q -> Ann.query index q k) qs))
      in
      let got =
        Printf.sprintf
          "%016Lx exact=%b trees=%d probes=%d esc=%d recall=%h cand=%d fb=%d%s"
          (digest_rows nb) info.exact info.trees info.probes info.escalations
          info.recall
          (Telemetry.Counter.get "graph.ann.candidates")
          (Telemetry.Counter.get "graph.ann.exact_fallbacks")
          extra
      in
      Telemetry.Registry.reset ();
      (got, info))

let check_golden name want (got, _) =
  Alcotest.(check string) name want got

(* 3000 Model-1 points, and the generator that drew them *)
let model1_points () =
  let rng = Rng.create 1 in
  ( rng,
    Array.map
      (fun s -> s.Dataset.Synthetic.x)
      (Dataset.Synthetic.sample_many rng Dataset.Synthetic.Model1 3000) )

(* 1500 points on an 11³ lattice (so distinct points tie in distance),
   then 900 exact copies of them *)
let duplicated_lattice () =
  let rng = Rng.create 2 in
  let lattice =
    Array.init 1500 (fun _ ->
        Array.init 3 (fun _ -> 0.5 *. float_of_int (Rng.int rng 11)))
  in
  Array.init 2400 (fun i ->
      Array.copy lattice.(if i < 1500 then i else i * 7 mod 1500))

(* 1500 uniform points in 5-D whose last 300 copy earlier ones *)
let points_with_copies () =
  let rng = Rng.create 5 in
  let points = random_points rng 1500 5 in
  for i = 1200 to 1499 do
    points.(i) <- Array.copy points.(Rng.int rng 1200)
  done;
  points

let test_ann_golden_tree_path () =
  let rng, points = model1_points () in
  let index = Ann.build ~seed:9 ~trees:4 points in
  let qs = Array.init 50 (fun _ -> Array.init 5 (fun _ -> Rng.float rng)) in
  check_golden "n=3000 d=5 k=8 trees=4"
    "0a1b4b5a3302aadb exact=false trees=4 probes=16 esc=0 recall=0x1.fbp-1 \
     cand=1163190 fb=0 queries=b05c668bbdfb73b4"
    (ann_golden ~queries:(index, qs, 8)
       (fun p -> Ann.all_k_nearest ~seed:5 ~trees:4 p 8)
       points)

let test_ann_golden_duplicates () =
  let points = duplicated_lattice () in
  check_golden "duplicated lattice points"
    "276e6c155ed261a6 exact=false trees=3 probes=12 esc=0 recall=0x1.fcp-1 \
     cand=554398 fb=0"
    (ann_golden
       (fun p -> Ann.all_k_nearest ~seed:3 ~trees:3 ~exact_cutoff:0 p 8)
       points)

let test_ann_golden_exact_fallback () =
  let points = random_points (Rng.create 3) 2500 4 in
  let ((_, info) as r) =
    ann_golden
      (fun p ->
        Ann.all_k_nearest ~seed:4 ~trees:2 ~leaf_size:3 ~probes:1
          ~recall_target:0. ~exact_cutoff:0 p 4)
      points
  in
  check_golden "tiny budget, exact fallback"
    "491591d8c35c64ea exact=false trees=2 probes=2 esc=0 recall=0x1.bep-1 \
     cand=13032 fb=1940"
    r;
  Alcotest.(check int) "budget stays at two leaves" 2 info.Ann.probes

let test_ann_golden_escalation () =
  let points = random_points (Rng.create 4) 2500 6 in
  let ((_, info) as r) =
    ann_golden
      (fun p ->
        Ann.all_k_nearest ~seed:6 ~trees:1 ~probes:1 ~recall_target:0.99
          ~recall_sample:100 ~exact_cutoff:0 p 10)
      points
  in
  check_golden "recall target forces escalation"
    "52009b2949239716 exact=false trees=1 probes=32 esc=5 \
     recall=0x1.fdf3b645a1cacp-1 cand=1687298 fb=0"
    r;
  Alcotest.(check bool) "escalated" true (info.Ann.escalations >= 1)

let test_ann_golden_exact_cutoff () =
  let points = points_with_copies () in
  let ((_, info) as r) = ann_golden (fun p -> Ann.all_k_nearest p 7) points in
  check_golden "exact-cutoff path"
    "d5713040bf890184 exact=true trees=0 probes=0 esc=0 recall=0x1p+0 cand=0 \
     fb=1"
    r;
  Alcotest.(check bool) "exact" true info.Ann.exact

let test_ann_validation () =
  let points = random_points (Rng.create 1) 20 2 in
  check_raises_invalid "k >= n" (fun () ->
      ignore (Ann.all_k_nearest points 20));
  check_raises_invalid "negative k" (fun () ->
      ignore (Ann.all_k_nearest points (-1)));
  check_raises_invalid "bad recall target" (fun () ->
      ignore (Ann.all_k_nearest ~recall_target:1.5 points 3));
  check_raises_invalid "empty" (fun () -> ignore (Ann.all_k_nearest [||] 1));
  check_raises_invalid "ragged" (fun () ->
      ignore (Ann.build [| [| 1.; 2. |]; [| 1. |] |]))

(* ------------------------------------------------------------------ *)
(* knn_approx                                                          *)
(* ------------------------------------------------------------------ *)

let test_knn_approx_exact_path_matches_knn () =
  let rng = Rng.create 21 in
  let points = random_points rng 90 3 in
  let kernel = Kernel.Kernel_fn.Rbf and bandwidth = 2.0 in
  let w_exact = Kernel.Similarity.knn ~kernel ~bandwidth ~k:5 points in
  let w_approx, info =
    Kernel.Similarity.knn_approx ~kernel ~bandwidth ~k:5 points
  in
  (match info with
  | Kernel.Similarity.Exact -> ()
  | _ -> Alcotest.fail "expected the exact path below the cutoff");
  check_mat ~tol:0. "same matrix" (Csr.to_dense w_exact)
    (Csr.to_dense w_approx)

(* Bit-identity pin of the symmetrised kNN graphs, which the ANN
   goldens above do not reach: a digest over the row pointers, columns
   and value bits of knn_approx on the tree path and on the duplicated
   lattice, and of the exact knn on points with copies under a
   compactly supported kernel (so some kept pairs weigh 0 and are
   dropped), each built on 1 and 2 domains.  The digests were recorded
   before the symmetrisation was written straight into CSR.  The exact
   knn on the duplicated lattice pins the (distance², index) tie order:
   distinct points tie in distance there and copies tie at 0. *)
let test_knn_csr_pinned () =
  let csr_digest (w : Csr.t) =
    digest_hex (fun buf ->
        let add_int i = Buffer.add_int64_le buf (Int64.of_int i) in
        Array.iter add_int w.row_ptr;
        Array.iter add_int w.col_idx;
        Array.iter (add_float_bits buf) w.values)
  in
  let pin name want build =
    List.iter
      (fun domains ->
        Alcotest.(check string)
          (Printf.sprintf "%s at domains=%d" name domains)
          want
          (csr_digest (Pool.with_default_domains domains build)))
      [ 1; 2 ]
  in
  let module S = Kernel.Similarity in
  let rbf = Kernel.Kernel_fn.Rbf in
  let _, model1 = model1_points () in
  pin "knn_approx tree path" "8c33206fb883908c5864b968fb7374cc" (fun () ->
      fst
        (S.knn_approx ~kernel:rbf ~bandwidth:0.3 ~k:8 ~seed:5 ~trees:4 model1));
  let lattice = duplicated_lattice () in
  pin "knn_approx duplicated lattice" "ebd5968461c763748b14f8bbc7065340"
    (fun () ->
      fst
        (S.knn_approx ~kernel:rbf ~bandwidth:0.5 ~k:8 ~seed:3 ~trees:3
           ~exact_cutoff:0 lattice));
  let copies = points_with_copies () in
  pin "knn with copies, truncated kernel" "b96849bd4388cb5b75a9a27ed09a30be"
    (fun () ->
      S.knn ~kernel:(Kernel.Kernel_fn.Truncated_rbf 2.) ~bandwidth:1. ~k:7
        copies);
  pin "knn duplicated lattice, tie order" "7d8a8507d9b5eba7050d1e5c88cacfc6"
    (fun () -> S.knn ~kernel:rbf ~bandwidth:0.5 ~k:8 lattice)

let test_knn_approx_structure_and_determinism () =
  let rng = Rng.create 31 in
  let n = 300 in
  let points = random_points rng n 4 in
  let kernel = Kernel.Kernel_fn.Rbf and bandwidth = 2.5 in
  let build () =
    Kernel.Similarity.knn_approx ~kernel ~bandwidth ~k:5 ~seed:7
      ~exact_cutoff:100 points
  in
  let w, info = Pool.sequential build in
  (match info with
  | Kernel.Similarity.Approximate { recall; _ } ->
      Alcotest.(check bool) "recall target honoured" true (recall >= 0.9)
  | Kernel.Similarity.Exact -> Alcotest.fail "expected the approximate path");
  Alcotest.(check bool) "symmetric" true (Csr.is_symmetric w);
  for i = 0 to n - 1 do
    check_float (Printf.sprintf "self-similarity %d" i) 1. (Csr.get w i i);
    let row = ref 0 in
    Csr.iter_row w i (fun _ _ -> incr row);
    if !row < 6 then Alcotest.failf "row %d has %d entries, wanted >= 6" i !row
  done;
  List.iter
    (fun domains ->
      let w', _ = Pool.with_default_domains domains build in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at domains=%d" domains)
        true
        (w.Csr.row_ptr = w'.Csr.row_ptr
        && w.Csr.col_idx = w'.Csr.col_idx
        && w.Csr.values = w'.Csr.values))
    domain_counts

(* ------------------------------------------------------------------ *)
(* coarsening invariants                                               *)
(* ------------------------------------------------------------------ *)

let total_weight w =
  let n, _ = Csr.dims w in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    Csr.iter_row w i (fun _ v -> acc := !acc +. v)
  done;
  !acc

let intra_weight w cmap =
  let n, _ = Csr.dims w in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    Csr.iter_row w i (fun j v ->
        if j > i && cmap.(i) = cmap.(j) then acc := !acc +. v)
  done;
  !acc

let coarsen_invariants =
  qprop ~count:25 "coarsen: symmetry, row sums, PSD, conservation"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 40 + Rng.int rng 160 in
      let w = random_connected_csr rng n ~extra:(2 * n) in
      let deg = Csr.row_sums w in
      (* half the cases test the pure Laplacian (zero row sums), half a
         hard-criterion-like operator with boundary mass *)
      let pure = Rng.bool rng in
      let diag =
        if pure then Vec.copy deg
        else begin
          let d = Vec.copy deg in
          for _ = 0 to Rng.int rng 4 do
            let v = Rng.int rng n in
            d.(v) <- d.(v) +. Rng.uniform rng 0.5 2.
          done;
          d
        end
      in
      let h = Coarsen.build ~coarse_cutoff:8 ~w ~diag () in
      let depth = Coarsen.depth h in
      if depth < 1 || depth > 25 then
        QCheck.Test.fail_reportf "depth %d out of bounds" depth;
      let mass l =
        let wl, dl = Coarsen.level h l in
        Vec.sum dl -. total_weight wl
      in
      for l = 0 to depth - 1 do
        let wl, dl = Coarsen.level h l in
        let nl = Array.length dl in
        if l > 0 && nl >= Coarsen.level_size h (l - 1) then
          QCheck.Test.fail_reportf "level %d did not shrink" l;
        if not (Csr.is_symmetric wl) then
          QCheck.Test.fail_reportf "level %d not symmetric" l;
        (* A_l is PSD: x^T A_l x >= 0 for random x (pure Laplacian), and
           zero row sums are preserved by the Galerkin product *)
        if pure then begin
          let rs = Csr.row_sums wl in
          for i = 0 to nl - 1 do
            if abs_float (dl.(i) -. rs.(i)) > 1e-8 *. (1. +. abs_float dl.(i))
            then
              QCheck.Test.fail_reportf "level %d row %d sum %g <> diag %g" l i
                rs.(i) dl.(i)
          done
        end;
        for _ = 1 to 5 do
          let x = random_vec rng nl in
          let q = Vec.dot x (Csr.lap_mv wl ~deg:dl x) in
          if q < -1e-8 *. (1. +. Vec.norm2_sq x) then
            QCheck.Test.fail_reportf "level %d not PSD: x^T A x = %g" l q
        done;
        (* conservation per match level: coarse edge weight = fine edge
           weight minus the matched (intra-aggregate) weight, and the
           total mass 1^T A 1 is invariant *)
        if l + 1 < depth then begin
          let wc, _ = Coarsen.level h (l + 1) in
          let fine = total_weight wl /. 2. in
          let matched = intra_weight wl (Coarsen.map_at h l) in
          let coarse = total_weight wc /. 2. in
          if abs_float (coarse -. (fine -. matched)) > 1e-6 *. (1. +. fine)
          then
            QCheck.Test.fail_reportf
              "level %d edge weight: coarse %g <> fine %g - matched %g" l
              coarse fine matched;
          if abs_float (mass (l + 1) -. mass l) > 1e-6 *. (1. +. abs_float (mass l))
          then
            QCheck.Test.fail_reportf "level %d mass not conserved" l
        end
      done;
      true)

let galerkin_identity =
  qprop ~count:20 "coarsen: A_{l+1} = P^T A_l P exactly" (fun seed ->
      let rng = Rng.create seed in
      let n = 30 + Rng.int rng 120 in
      let w = random_connected_csr rng n ~extra:n in
      let diag = Csr.row_sums w in
      let h = Coarsen.build ~coarse_cutoff:4 ~w ~diag () in
      for l = 0 to Coarsen.depth h - 2 do
        let nc = Coarsen.level_size h (l + 1) in
        let xc = random_vec rng nc in
        let direct = Coarsen.apply h (l + 1) xc in
        let via_fine =
          Coarsen.restrict h l (Coarsen.apply h l (Coarsen.prolong h l xc))
        in
        let scale = 1. +. Vec.norm2 direct in
        Array.iteri
          (fun i v ->
            if abs_float (v -. via_fine.(i)) > 1e-9 *. scale then
              QCheck.Test.fail_reportf "level %d entry %d: %g <> %g" l i v
                via_fine.(i))
          direct
      done;
      true)

(* ------------------------------------------------------------------ *)
(* multigrid                                                           *)
(* ------------------------------------------------------------------ *)

let mg_agrees_with_flat_cg =
  qprop ~count:20 "multigrid CG agrees with flat CG (<= 1e-8)" (fun seed ->
      let rng = Rng.create seed in
      let n = 30 + Rng.int rng 150 in
      let w = random_connected_csr rng n ~extra:n in
      let deg = Csr.row_sums w in
      (* boundary mass keeps the system SPD *)
      for _ = 0 to 2 do
        let v = Rng.int rng n in
        deg.(v) <- deg.(v) +. Rng.uniform rng 0.5 2.
      done;
      let b = random_vec rng n in
      let op = operator_of w deg in
      let flat = Sparse.Cg.solve ~tol:1e-12 ~max_iter:(50 * n) op b in
      let mg = Mg.build ~w ~diag:deg () in
      let pre =
        Sparse.Cg.solve ~tol:1e-12 ~max_iter:(50 * n)
          ~precond_apply:(Mg.precondition_into mg) op b
      in
      if not (flat.Sparse.Cg.converged && pre.Sparse.Cg.converged) then
        QCheck.Test.fail_report "a solve failed to converge";
      let xf = flat.Sparse.Cg.solution and xp = pre.Sparse.Cg.solution in
      let scale = 1. +. Vec.norm2 xf in
      Array.iteri
        (fun i v ->
          if abs_float (v -. xp.(i)) > 1e-8 *. scale then
            QCheck.Test.fail_reportf "entry %d: flat %g vs mg %g" i v xp.(i))
        xf;
      true)

(* CG needs the V-cycle to be one fixed SPD operator M: symmetric,
   positive definite, and the same bits on every call with the input
   left alone, which the work vectors a [Mg.t] reuses could break.  Three
   shapes: a random connected graph (several levels), one of at most 64
   vertices (one level, Cholesky coarse solve) and an edge-free
   1100-vertex system (one level, Jacobi sweeps in place of a factor). *)
let mg_vcycle_fixed_spd =
  qprop ~count:20 "multigrid: V-cycle is a fixed SPD operator" (fun seed ->
      let rng = Rng.create seed in
      let bits = Array.map Int64.bits_of_float in
      let with_boundary w =
        let deg = Csr.row_sums w in
        for _ = 0 to 2 do
          let v = Rng.int rng (Array.length deg) in
          deg.(v) <- deg.(v) +. Rng.uniform rng 0.5 2.
        done;
        deg
      in
      let check name ~depth_ok w deg =
        let n = Array.length deg in
        let mg = Mg.build ~w ~diag:deg () in
        if not (depth_ok (Mg.depth mg)) then
          QCheck.Test.fail_reportf "%s: depth %d" name (Mg.depth mg);
        let apply r =
          let before = bits r in
          let z = Mg.precondition mg r in
          if bits r <> before then
            QCheck.Test.fail_reportf "%s: precondition modified r" name;
          z
        in
        for _ = 1 to 3 do
          let u = random_vec rng n and v = random_vec rng n in
          let mu = apply u and mv = apply v in
          let umv = Vec.dot u mv and vmu = Vec.dot v mu in
          if abs_float (umv -. vmu) > 1e-10 *. (1. +. abs_float umv) then
            QCheck.Test.fail_reportf "%s: u'Mv = %.17g, v'Mu = %.17g" name umv
              vmu;
          if Vec.dot v mv <= 0. then
            QCheck.Test.fail_reportf "%s: v'Mv = %g" name (Vec.dot v mv);
          if bits (apply v) <> bits mv then
            QCheck.Test.fail_reportf "%s: a second call changed the bits" name
        done
      in
      let n = 100 + Rng.int rng 300 in
      let w = random_connected_csr rng n ~extra:n in
      check "connected" ~depth_ok:(fun d -> d > 1) w (with_boundary w);
      let n = 8 + Rng.int rng 57 in
      let w = random_connected_csr rng n ~extra:n in
      check "small" ~depth_ok:(( = ) 1) w (with_boundary w);
      check "edge-free" ~depth_ok:(( = ) 1)
        (Csr.of_coo (Coo.create 1100 1100))
        (Array.init 1100 (fun _ -> Rng.uniform rng 0.5 2.));
      true)

let test_mg_reduces_iterations_on_grid () =
  let w = grid_csr 40 40 in
  let n = 1600 in
  let deg = Csr.row_sums w in
  deg.(0) <- deg.(0) +. 1.;
  (* anchor one corner: the hard-criterion shape *)
  let rng = Rng.create 17 in
  let b = random_vec rng n in
  let op = operator_of w deg in
  let flat = Sparse.Cg.solve ~tol:1e-10 ~max_iter:(100 * n) op b in
  let mg = Mg.build ~w ~diag:deg () in
  let pre =
    Sparse.Cg.solve ~tol:1e-10 ~max_iter:(100 * n)
      ~precond_apply:(Mg.precondition_into mg) op b
  in
  Alcotest.(check bool) "flat converged" true flat.Sparse.Cg.converged;
  Alcotest.(check bool) "mg converged" true pre.Sparse.Cg.converged;
  if pre.Sparse.Cg.iterations >= flat.Sparse.Cg.iterations then
    Alcotest.failf "mg took %d iterations, flat %d" pre.Sparse.Cg.iterations
      flat.Sparse.Cg.iterations

let test_mg_solve_convenience_and_abort () =
  let w = grid_csr 12 12 in
  let deg = Csr.row_sums w in
  deg.(0) <- deg.(0) +. 1.;
  let b = random_vec (Rng.create 3) 144 in
  let mg = Mg.build ~w ~diag:deg () in
  let out = Mg.solve ~tol:1e-11 mg b in
  Alcotest.(check bool) "converged" true out.Sparse.Cg.converged;
  let r = Vec.sub b (Csr.lap_mv w ~deg out.Sparse.Cg.solution) in
  Alcotest.(check bool) "residual small" true (Vec.norm2 r <= 1e-9 *. (1. +. Vec.norm2 b));
  (* the cooperative-abort hook survives the preconditioner plumbing *)
  let aborted = Mg.solve ~should_stop:(fun () -> true) mg b in
  Alcotest.(check bool) "aborted" true aborted.Sparse.Cg.aborted;
  Alcotest.(check int) "no iterations" 0 aborted.Sparse.Cg.iterations

let test_identity_precond_matches_unpreconditioned () =
  let rng = Rng.create 23 in
  let w = random_connected_csr rng 80 ~extra:160 in
  let deg = Csr.row_sums w in
  deg.(7) <- deg.(7) +. 1.5;
  let b = random_vec rng 80 in
  let op = operator_of w deg in
  let plain = Sparse.Cg.solve ~precondition:false op b in
  let ident =
    Sparse.Cg.solve
      ~precond_apply:(fun r z -> Array.blit r 0 z 0 (Array.length r))
      op b
  in
  Alcotest.(check int) "same iterations" plain.Sparse.Cg.iterations
    ident.Sparse.Cg.iterations;
  check_vec ~tol:0. "bit-identical solutions" plain.Sparse.Cg.solution
    ident.Sparse.Cg.solution

(* A CG iteration allocates nothing of the system's size: r, z, p and
   A·p live in one workspace per solve, the operator and the V-cycle
   write into it.  The words allocated by two solves capped at
   different iteration counts differ by the extra iterations' share
   alone, since everything else (the workspace, the solution, the
   preconditioner's set-up) is the same for both.  Flat CG used to
   allocate about 3n words an iteration.  The count is this domain's
   ([alloc_words]), where the solver allocates. *)
let alloc_words_per_iteration_bound = 1024

let test_cg_iterations_allocate_nothing () =
  let w = grid_csr 140 143 in
  let n = 140 * 143 in
  let deg = Csr.row_sums w in
  deg.(0) <- deg.(0) +. 1.;
  let b = random_vec (Rng.create 31) n in
  let op = operator_of w deg in
  let mg = Mg.build ~w ~diag:deg () in
  let per_iteration name solve (k1, k2) =
    let run k =
      let out, words = alloc_words (fun () -> solve k) in
      Alcotest.(check int) (name ^ ": ran to the cap") k out.Sparse.Cg.iterations;
      words
    in
    ignore (run k1);
    let extra = (run k2 -. run k1) /. float_of_int (k2 - k1) in
    if extra > float_of_int alloc_words_per_iteration_bound then
      Alcotest.failf "%s: %.0f words per iteration at n = %d (bound %d)" name
        extra n alloc_words_per_iteration_bound
  in
  per_iteration "jacobi"
    (fun k -> Sparse.Cg.solve ~tol:1e-15 ~max_iter:k op b)
    (5, 25);
  per_iteration "multigrid"
    (fun k ->
      Sparse.Cg.solve ~tol:1e-15 ~max_iter:k
        ~precond_apply:(Mg.precondition_into mg) op b)
    (2, 8)

let test_cg_iterations_histogram () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.with_enabled (fun () ->
      let w = grid_csr 8 8 in
      let deg = Csr.row_sums w in
      deg.(0) <- deg.(0) +. 1.;
      let b = random_vec (Rng.create 9) 64 in
      let out = Sparse.Cg.solve (operator_of w deg) b in
      Alcotest.(check bool) "converged" true out.Sparse.Cg.converged;
      match Obs.Histogram.find "cg.iterations" with
      | None -> Alcotest.fail "cg.iterations histogram missing"
      | Some h ->
          Alcotest.(check bool) "recorded" true (Obs.Histogram.count h >= 1);
          check_float "max is the iteration count"
            (float_of_int out.Sparse.Cg.iterations)
            (Obs.Histogram.max_value h));
  Telemetry.Registry.reset ()

(* ------------------------------------------------------------------ *)
(* Scalable.solve_hard                                                 *)
(* ------------------------------------------------------------------ *)

let knn_problem rng ~n_points ~n_labeled ~k =
  let points = random_points rng n_points 3 in
  let w =
    Kernel.Similarity.knn ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:2.5 ~k
      points
  in
  let labels = Array.init n_labeled (fun _ -> Rng.uniform rng (-1.) 1.) in
  Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_sparse w) ~labels

let solve_hard_mg_matches_jacobi =
  qprop ~count:15 "solve_hard: multigrid matches Jacobi (<= 1e-8)"
    (fun seed ->
      let rng = Rng.create seed in
      let p = knn_problem rng ~n_points:(60 + Rng.int rng 120) ~n_labeled:8 ~k:6 in
      match Gssl.Scalable.solve_hard p with
      | exception Gssl.Hard.Unanchored_unlabeled _ ->
          true (* disconnected draw: covered by the imputation test *)
      | jac ->
          let mg = Gssl.Scalable.solve_hard ~precond:`Multigrid p in
          let scale = 1. +. Vec.norm2 jac in
          Array.iteri
            (fun i v ->
              if abs_float (v -. mg.(i)) > 1e-8 *. scale then
                QCheck.Test.fail_reportf "entry %d: jacobi %g vs mg %g" i v
                  mg.(i))
            jac;
          true)

let two_component_problem () =
  (* vertices 0..4: an anchored component holding both labels;
     vertices 5..8: a second component with no labels at all *)
  let n = 9 in
  let m = Mat.zeros n n in
  let link i j w =
    Mat.set m i j w;
    Mat.set m j i w
  in
  for i = 0 to n - 1 do
    Mat.set m i i 1.
  done;
  link 0 2 0.9;
  link 1 2 0.7;
  link 2 3 0.5;
  link 3 4 0.6;
  link 0 4 0.2;
  link 5 6 0.8;
  link 6 7 0.4;
  link 7 8 0.9;
  link 5 8 0.3;
  Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense m)
    ~labels:[| 1.; -0.5 |]

let test_solve_hard_unanchored_raise () =
  let p = two_component_problem () in
  (match Gssl.Scalable.solve_hard p with
  | exception Gssl.Hard.Unanchored_unlabeled v ->
      Alcotest.(check bool) "vertex in the unanchored component" true (v >= 5)
  | _ -> Alcotest.fail "expected Unanchored_unlabeled");
  match Gssl.Scalable.solve_hard ~unanchored:`Raise p with
  | exception Gssl.Hard.Unanchored_unlabeled _ -> ()
  | _ -> Alcotest.fail "expected Unanchored_unlabeled (explicit)"

let test_solve_hard_unanchored_impute () =
  let p = two_component_problem () in
  let x = Gssl.Scalable.solve_hard ~unanchored:`Impute p in
  Alcotest.(check int) "full unlabeled block" 7 (Array.length x);
  let ybar = (1. -. 0.5) /. 2. in
  (* block indices 3..6 are vertices 5..8: the unanchored component *)
  for a = 3 to 6 do
    check_float (Printf.sprintf "imputed entry %d" a) ybar x.(a)
  done;
  (* the anchored part must equal the solve of the anchored subgraph *)
  let m5 = Mat.zeros 5 5 in
  for i = 0 to 4 do
    Mat.set m5 i i 1.
  done;
  let link i j w =
    Mat.set m5 i j w;
    Mat.set m5 j i w
  in
  link 0 2 0.9;
  link 1 2 0.7;
  link 2 3 0.5;
  link 3 4 0.6;
  link 0 4 0.2;
  let p5 =
    Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense m5)
      ~labels:[| 1.; -0.5 |]
  in
  let ref5 = Gssl.Hard.solve p5 in
  for a = 0 to 2 do
    check_float ~tol:1e-8 (Printf.sprintf "anchored entry %d" a) ref5.(a) x.(a)
  done

let test_solve_hard_matches_dense_hard () =
  let rng = Rng.create 41 in
  let p = knn_problem rng ~n_points:120 ~n_labeled:10 ~k:8 in
  match Gssl.Hard.solve p with
  | exception Gssl.Hard.Unanchored_unlabeled _ ->
      Alcotest.fail "draw should be connected at k=8"
  | dense ->
      let mg = Gssl.Scalable.solve_hard ~precond:`Multigrid p in
      check_vec ~tol:1e-7 "matches dense Hard.solve" dense mg

let test_solve_hard_should_stop () =
  let rng = Rng.create 43 in
  let p = knn_problem rng ~n_points:150 ~n_labeled:6 ~k:6 in
  match Gssl.Scalable.solve_hard ~should_stop:(fun () -> true) p with
  | exception Failure msg ->
      Alcotest.(check bool)
        "abort is reported as a cooperative stop" true
        (Astring.String.is_infix ~affix:"cooperative abort" msg)
  | _ -> Alcotest.fail "expected Failure from the aborted solve"

(* system_csr writes its rows straight into CSR; the reference is the
   COO assembly it replaced (the diagonal, then every W₂₂ entry negated,
   summed and sorted by Csr.of_coo), and the two must agree bit for
   bit.  Three shapes: kNN graphs (CSR storage, K(0) self-loops), dense
   graphs with random self-loops, and graphs whose isolated unlabeled
   vertices (some with a self-loop alone) have a zero diagonal, which
   the COO assembly drops. *)
let system_csr_via_coo p =
  let w, deg, b = Gssl.Scalable.system_lap p in
  let m = Array.length deg in
  let coo = Coo.create m m in
  for a = 0 to m - 1 do
    Coo.add coo a a deg.(a);
    Csr.iter_row w a (fun c x -> Coo.add coo a c (-.x))
  done;
  (Csr.of_coo coo, b)

let system_csr_matches_coo_assembly =
  qprop ~count:60 "system_csr = COO assembly, bit for bit" (fun seed ->
      let rng = Rng.create seed in
      let labels k = Array.init k (fun _ -> Rng.uniform rng (-1.) 1.) in
      let dense_with_loops n =
        let w = random_weights rng n in
        for i = 0 to n - 1 do
          if Rng.bool rng then Mat.set w i i (Rng.uniform rng 0.1 1.)
        done;
        w
      in
      let p =
        match seed mod 3 with
        | 0 ->
            knn_problem rng ~n_points:(20 + Rng.int rng 150)
              ~n_labeled:(1 + Rng.int rng 15) ~k:(2 + Rng.int rng 8)
        | 1 ->
            let n = 3 + Rng.int rng 30 in
            Gssl.Problem.make
              ~graph:(Graph.Weighted_graph.of_dense (dense_with_loops n))
              ~labels:(labels (1 + Rng.int rng (n - 1)))
        | _ ->
            let n = 4 + Rng.int rng 30 in
            let n_labeled = 1 + Rng.int rng (n / 2) in
            let w = dense_with_loops n in
            for v = n_labeled to n - 1 do
              if Rng.int rng 3 = 0 then
                for u = 0 to n - 1 do
                  if u <> v || Rng.bool rng then begin
                    Mat.set w u v 0.;
                    Mat.set w v u 0.
                  end
                done
            done;
            let graph =
              if Rng.bool rng then Graph.Weighted_graph.of_dense w
              else Graph.Weighted_graph.of_sparse (Csr.of_dense w)
            in
            Gssl.Problem.make ~graph ~labels:(labels n_labeled)
      in
      let a, b = Gssl.Scalable.system_csr p in
      let a', b' = system_csr_via_coo p in
      let bits = Array.map Int64.bits_of_float in
      if a.Csr.row_ptr <> a'.Csr.row_ptr then
        QCheck.Test.fail_report "row pointers differ";
      if a.Csr.col_idx <> a'.Csr.col_idx then
        QCheck.Test.fail_report "columns differ";
      if bits a.Csr.values <> bits a'.Csr.values then
        QCheck.Test.fail_report "values differ";
      if bits b <> bits b' then QCheck.Test.fail_report "rhs differs";
      true)

(* System.restrict's CSR rows as they were built before restrict_csr
   filtered them straight into Csr.of_sorted_rows: a Hashtbl from old
   index to new, every kept entry through Coo.add (which drops zeros),
   then Csr.of_coo. *)
let restrict_csr_via_coo idx c =
  let s = Array.length idx in
  let local = Hashtbl.create (2 * s) in
  Array.iteri (fun p i -> Hashtbl.replace local i p) idx;
  let coo = Coo.create s s in
  Array.iteri
    (fun p i ->
      Csr.iter_row c i (fun j x ->
          match Hashtbl.find_opt local j with
          | Some q -> Coo.add coo p q x
          | None -> ()))
    idx;
  Csr.of_coo coo

let restrict_csr_matches_coo =
  qprop ~count:100 "System.restrict CSR rows = COO path, bit for bit"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 80 in
      (* sorted rows that store explicit zeros (of_coo never would) *)
      let density = Rng.uniform rng 0.05 0.6 in
      let rows =
        Array.init n (fun _ ->
            List.filter_map
              (fun j ->
                if Rng.float rng >= density then None
                else if Rng.int rng 8 = 0 then Some (j, 0.)
                else Some (j, Rng.uniform rng (-1.) 1.))
              (List.init n Fun.id))
      in
      let row_ptr = Array.make (n + 1) 0 in
      Array.iteri
        (fun i r -> row_ptr.(i + 1) <- row_ptr.(i) + List.length r)
        rows;
      let flat f = Array.of_list (List.concat_map (List.map f) (Array.to_list rows)) in
      let c =
        Csr.of_sorted_rows ~rows:n ~cols:n ~row_ptr ~col_idx:(flat fst)
          ~values:(flat snd)
      in
      let idx =
        Array.of_list
          (List.filter (fun _ -> Rng.int rng 4 > 0) (List.init n Fun.id))
      in
      let b = random_vec rng n and deg = random_vec rng n in
      let bits = Array.map Int64.bits_of_float in
      let pick v = Array.map (Array.get v) idx in
      let want = restrict_csr_via_coo idx c in
      let same (got : Csr.t) =
        got.Csr.row_ptr = want.Csr.row_ptr
        && got.Csr.col_idx = want.Csr.col_idx
        && bits got.Csr.values = bits want.Csr.values
      in
      (match Gssl.System.restrict idx { Gssl.System.a = Gssl.System.Csr c; b } with
      | { Gssl.System.a = Gssl.System.Csr r; b = rb } ->
          if not (same r) then QCheck.Test.fail_report "Csr: matrix differs";
          if bits rb <> bits (pick b) then QCheck.Test.fail_report "Csr: rhs differs"
      | _ -> QCheck.Test.fail_report "Csr: storage changed");
      (match
         Gssl.System.restrict idx { Gssl.System.a = Gssl.System.Lap { w = c; deg }; b }
       with
      | { Gssl.System.a = Gssl.System.Lap { w; deg = rdeg }; _ } ->
          if not (same w) then QCheck.Test.fail_report "Lap: weights differ";
          if bits rdeg <> bits (pick deg) then
            QCheck.Test.fail_report "Lap: degrees differ"
      | _ -> QCheck.Test.fail_report "Lap: storage changed");
      (* positions must ascend strictly *)
      if Array.length idx >= 2 then begin
        let swapped = Array.copy idx in
        swapped.(0) <- idx.(1);
        swapped.(1) <- idx.(0);
        match
          Gssl.System.restrict swapped { Gssl.System.a = Gssl.System.Csr c; b }
        with
        | _ -> QCheck.Test.fail_report "descending positions accepted"
        | exception Invalid_argument _ -> ()
      end;
      true)

(* Bit-identity pin: Scalable.system_csr (row pointers, columns, value
   and right-hand-side bits) on 40 kNN problems and 10 dense ones with
   self-loops.  The digest was recorded while system_csr still had an
   assembly of its own, before it was derived from system_lap. *)
let test_system_csr_pinned () =
  let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i) in
  let add_system buf p =
    let a, b = Gssl.Scalable.system_csr p in
    Array.iter (add_int buf) a.Sparse.Csr.row_ptr;
    Array.iter (add_int buf) a.Sparse.Csr.col_idx;
    Array.iter (add_float_bits buf) a.Sparse.Csr.values;
    Array.iter (add_float_bits buf) b
  in
  let digest =
    digest_hex (fun buf ->
        for seed = 0 to 39 do
          let rng = Rng.create seed in
          add_system buf
            (knn_problem rng ~n_points:(40 + Rng.int rng 160)
               ~n_labeled:(2 + Rng.int rng 20) ~k:(3 + Rng.int rng 8))
        done;
        for seed = 40 to 49 do
          let rng = Rng.create seed in
          let n = 12 + Rng.int rng 20 in
          let w = random_weights rng n in
          for i = 0 to n - 1 do
            if Rng.bool rng then Mat.set w i i (Rng.uniform rng 0.1 1.)
          done;
          add_system buf
            (Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_dense w)
               ~labels:(Array.init (1 + Rng.int rng 5) (fun _ -> Rng.float rng)))
        done)
  in
  Alcotest.(check string) "system_csr digest" "927c955c246fa49b049abd94190855f0" digest

(* Bit-identity pin: every level of Coarsen.build's hierarchy (row
   pointers, columns, value bits, diagonal bits and aggregate maps) on
   the hard system of a 10⁴-point approximate kNN graph.  The digest was
   recorded before the coarsening loops were rewritten without
   Csr.iter_row closures and per-level scratch arrays. *)
let test_coarsen_pinned () =
  let rng = Rng.create 2024 in
  let points = random_points rng 10_000 3 in
  let w, _ =
    Kernel.Similarity.knn_approx ~kernel:Kernel.Kernel_fn.Rbf ~bandwidth:1.5
      ~k:8 ~seed:7 points
  in
  let p =
    Gssl.Problem.make ~graph:(Graph.Weighted_graph.of_sparse w)
      ~labels:(Array.init 50 (fun _ -> Rng.uniform rng (-1.) 1.))
  in
  let w22, deg, _ = Gssl.Scalable.system_lap p in
  let h = Coarsen.build ~w:w22 ~diag:deg () in
  let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i) in
  let digest =
    digest_hex (fun buf ->
        for l = 0 to Coarsen.depth h - 1 do
          let wl, dl = Coarsen.level h l in
          Array.iter (add_int buf) wl.Csr.row_ptr;
          Array.iter (add_int buf) wl.Csr.col_idx;
          Array.iter (add_float_bits buf) wl.Csr.values;
          Array.iter (add_float_bits buf) dl;
          if l < Coarsen.depth h - 1 then
            Array.iter (add_int buf) (Coarsen.map_at h l)
        done)
  in
  Alcotest.(check int) "levels" 8 (Coarsen.depth h);
  Alcotest.(check string) "coarsen digest" "dee345199901235024780b196de37e3b"
    digest

let suite =
  ( "scale",
    [
      ann_recall_meets_target;
      ann_bit_identical_across_domains;
      case "ann: small n takes the exact pairwise path"
        test_ann_exact_cutoff_matches_brute_force;
      ann_exact_lists_with_ties;
      case "ann: exhaustive external query is exact" test_ann_query_external;
      ann_exhaustive_query_with_duplicates;
      case "ann golden: tree path" test_ann_golden_tree_path;
      case "ann golden: duplicated points" test_ann_golden_duplicates;
      case "ann golden: exact fallback" test_ann_golden_exact_fallback;
      case "ann golden: escalation" test_ann_golden_escalation;
      case "ann golden: exact cutoff" test_ann_golden_exact_cutoff;
      case "ann: input validation" test_ann_validation;
      case "knn_approx: exact path matches knn"
        test_knn_approx_exact_path_matches_knn;
      case "knn_approx: structure and domain determinism"
        test_knn_approx_structure_and_determinism;
      case "knn graphs: pinned CSR bits" test_knn_csr_pinned;
      coarsen_invariants;
      galerkin_identity;
      mg_agrees_with_flat_cg;
      mg_vcycle_fixed_spd;
      case "multigrid cuts CG iterations on a grid"
        test_mg_reduces_iterations_on_grid;
      case "multigrid solve + cooperative abort"
        test_mg_solve_convenience_and_abort;
      case "identity precond_apply = unpreconditioned CG"
        test_identity_precond_matches_unpreconditioned;
      case "cg.iterations histogram records solves"
        test_cg_iterations_histogram;
      case "cg: iterations allocate nothing of size n (Jacobi, multigrid)"
        test_cg_iterations_allocate_nothing;
      solve_hard_mg_matches_jacobi;
      case "solve_hard: unanchored `Raise" test_solve_hard_unanchored_raise;
      case "solve_hard: unanchored `Impute" test_solve_hard_unanchored_impute;
      case "solve_hard: multigrid matches dense Hard.solve"
        test_solve_hard_matches_dense_hard;
      case "solve_hard: should_stop aborts" test_solve_hard_should_stop;
      system_csr_matches_coo_assembly;
      case "system_csr: pinned CSR bits" test_system_csr_pinned;
      case "coarsen: pinned hierarchy bits" test_coarsen_pinned;
      restrict_csr_matches_coo;
    ] )
