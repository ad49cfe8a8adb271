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
  let data = m.Mat.data in
  (* row i owns the pairs (i, j) with j > i, so chunks over i write
     disjoint cells — (i, j) and its mirror (j, i) both belong to the
     chunk holding the smaller index.  The inner product is Vec.dot's
     loop (ascending from 0.) written out, so no float is boxed per
     pair. *)
  let rows lo hi =
    for i = lo to hi - 1 do
      let xi = points.(i) and si = sq_norms.(i) in
      for j = i + 1 to n - 1 do
        let xj = points.(j) in
        let dot = ref 0. in
        for k = 0 to d - 1 do
          dot := !dot +. (xi.(k) *. xj.(k))
        done;
        let d2 = si +. sq_norms.(j) -. (2. *. !dot) in
        let d2 = if d2 > 0. then d2 else 0. in
        data.((i * n) + j) <- d2;
        data.((j * n) + i) <- d2
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
