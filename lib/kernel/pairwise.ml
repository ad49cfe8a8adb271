module Vec = Linalg.Vec
module Mat = Linalg.Mat

let sq_distance_matrix points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Pairwise: empty data";
  let d = Array.length points.(0) in
  Array.iter
    (fun p -> if Array.length p <> d then invalid_arg "Pairwise: ragged data")
    points;
  let sq_norms = Array.map Vec.norm2_sq points in
  let m = Mat.zeros n n in
  (* row i owns the pairs (i, j) with j > i, so chunks over i write
     disjoint cells — (i, j) and its mirror (j, i) both belong to the
     chunk holding the smaller index *)
  let rows lo hi =
    for i = lo to hi - 1 do
      for j = i + 1 to n - 1 do
        let d2 =
          sq_norms.(i) +. sq_norms.(j) -. (2. *. Vec.dot points.(i) points.(j))
        in
        let d2 = if d2 > 0. then d2 else 0. in
        Mat.set m i j d2;
        Mat.set m j i d2
      done
    done
  in
  (* every cell is computed independently, so the matrix is
     bit-identical to the serial loop for any domain count; small grain:
     the triangular loop makes early rows much heavier than late ones,
     and many small chunks let the pool absorb that *)
  Parallel.Dispatch.run
    ~grain:(Stdlib.max 1 ((n + 255) / 256))
    Parallel.Dispatch.Pairwise ~work:(n * n) n rows;
  m
