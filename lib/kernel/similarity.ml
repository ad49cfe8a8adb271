module Mat = Linalg.Mat

(* The kernel overwrites the fresh distance matrix: one n^2 matrix *)
let dense ~kernel ~bandwidth points =
  let w = Pairwise.sq_distance_matrix points in
  Kernel_fn.eval_sq_dist_inplace kernel ~bandwidth w.Mat.data;
  w

let dense_of_sq_distances ~kernel ~bandwidth d2 =
  let w = Mat.copy d2 in
  Kernel_fn.eval_sq_dist_inplace kernel ~bandwidth w.Mat.data;
  w

(* Insertion sort of [a.(lo) .. a.(hi - 1)].  A row's segment of the
   union adjacency below is nearly sorted: the row itself, the lower
   rows that list it (ascending), its own k neighbours, then the higher
   rows that list it (ascending).  Only its own neighbours move far, so
   a segment of length len sorts in O(k · len) moves, however many rows
   list the same point. *)
let sort_ints (a : int array) lo hi =
  for p = lo + 1 to hi - 1 do
    let v = a.(p) in
    let q = ref p in
    while !q > lo && a.(!q - 1) > v do
      a.(!q) <- a.(!q - 1);
      decr q
    done;
    a.(!q) <- v
  done

(* Mutual-or symmetrisation of neighbour lists straight into CSR: row i
   keeps itself and every j with j in [nb.(i)] or i in [nb.(j)], weighed
   K(x_i, x_j), and drops zero weights, as [Coo.add] would.  One serial
   counting-sort pass lays the union adjacency out flat (O(n·k) memory,
   never an n×n matrix); then each row sorts, dedupes and weighs its own
   segment in place, and a second row pass packs the kept entries.  Both
   row passes run on the pool under SpMV's rule, on the adjacency's
   length.  Rows i and j evaluate K(x_i, x_j) and K(x_j, x_i) apart,
   with the same bits since fl(a − b)² = fl(b − a)², so W is exactly
   symmetric. *)
let symmetrise ~kernel ~bandwidth points nb =
  Telemetry.Span.with_ "knn.symmetrise" (fun () ->
      let n = Array.length nb in
      let off = Array.make (n + 1) 0 in
      Array.iteri
        (fun i nbi ->
          off.(i + 1) <- off.(i + 1) + 1 + Array.length nbi;
          Array.iter (fun j -> off.(j + 1) <- off.(j + 1) + 1) nbi)
        nb;
      for i = 0 to n - 1 do
        off.(i + 1) <- off.(i + 1) + off.(i)
      done;
      (* each segment opens with its own row, the diagonal *)
      let adj = Array.make off.(n) 0 in
      for i = 0 to n - 1 do
        adj.(off.(i)) <- i
      done;
      let fill = Array.init n (fun i -> off.(i) + 1) in
      Array.iteri
        (fun i nbi ->
          Array.iter
            (fun j ->
              adj.(fill.(i)) <- j;
              fill.(i) <- fill.(i) + 1;
              adj.(fill.(j)) <- i;
              fill.(j) <- fill.(j) + 1)
            nbi)
        nb;
      let rows_pass body =
        Parallel.Dispatch.run Parallel.Dispatch.Spmv ~work:off.(n) n body
      in
      (* row i keeps its entries in the first [kept.(i)] slots of its
         segment, their weights in the same slots of [wts] *)
      let wts = Array.make off.(n) 0. and kept = Array.make n 0 in
      rows_pass (fun lo hi ->
          for i = lo to hi - 1 do
            sort_ints adj off.(i) off.(i + 1);
            let top = ref off.(i) and prev = ref (-1) in
            for p = off.(i) to off.(i + 1) - 1 do
              let j = adj.(p) in
              if j <> !prev then begin
                prev := j;
                let w =
                  Kernel_fn.eval kernel ~bandwidth points.(i) points.(j)
                in
                if w <> 0. then begin
                  adj.(!top) <- j;
                  wts.(!top) <- w;
                  incr top
                end
              end
            done;
            kept.(i) <- !top - off.(i)
          done);
      let row_ptr = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        row_ptr.(i + 1) <- row_ptr.(i) + kept.(i)
      done;
      let col_idx = Array.make row_ptr.(n) 0
      and values = Array.make row_ptr.(n) 0. in
      rows_pass (fun lo hi ->
          for i = lo to hi - 1 do
            Array.blit adj off.(i) col_idx row_ptr.(i) kept.(i);
            Array.blit wts off.(i) values row_ptr.(i) kept.(i)
          done);
      Sparse.Csr.of_sorted_rows ~rows:n ~cols:n ~row_ptr ~col_idx ~values)

type knn_info =
  | Exact
  | Approximate of {
      recall : float;
      probes : int;
      escalations : int;
      trees : int;
    }

let knn_approx ~kernel ~bandwidth ~k ?seed ?trees ?recall_target
    ?exact_cutoff points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Similarity.knn: empty data";
  if k <= 0 || k >= n then invalid_arg "Similarity.knn: k must lie in [1, n-1]";
  let nb, (info : Graph.Ann.info) =
    Graph.Ann.all_k_nearest ?seed ?trees ?recall_target ?exact_cutoff points k
  in
  ( symmetrise ~kernel ~bandwidth points nb,
    if info.exact then Exact
    else
      Approximate
        {
          recall = info.recall;
          probes = info.probes;
          escalations = info.escalations;
          trees = info.trees;
        } )

let knn ~kernel ~bandwidth ~k points =
  fst (knn_approx ~kernel ~bandwidth ~k ~exact_cutoff:max_int points)

let epsilon ~kernel ~bandwidth ~radius points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Similarity.epsilon: empty data";
  if radius < 0. then invalid_arg "Similarity.epsilon: negative radius";
  let r2 = radius *. radius in
  (* each row's nonzero (column, weight) pairs, columns ascending *)
  let rows =
    Array.init n (fun i ->
        let row = ref [] in
        for j = n - 1 downto 0 do
          let d2 = Linalg.Vec.dist2_sq points.(i) points.(j) in
          if d2 <= r2 then begin
            let w = Kernel_fn.eval_sq_dist kernel ~bandwidth d2 in
            if w <> 0. then row := (j, w) :: !row
          end
        done;
        Array.of_list !row)
  in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> row_ptr.(i + 1) <- row_ptr.(i) + Array.length r) rows;
  let flat f = Array.concat (Array.to_list (Array.map (Array.map f) rows)) in
  Sparse.Csr.of_sorted_rows ~rows:n ~cols:n ~row_ptr ~col_idx:(flat fst)
    ~values:(flat snd)
