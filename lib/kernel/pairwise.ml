module Vec = Linalg.Vec
module Mat = Linalg.Mat

(* The O(N²) passes below fan out over the domain pool when n² reaches
   Parallel.Dispatch's pairwise threshold; every matrix cell / neighbour
   list is computed independently, so the outputs are bit-identical to
   the serial loops for any domain count. *)
let run_pairwise ?grain n rows =
  Parallel.Dispatch.run ?grain Parallel.Dispatch.Pairwise ~work:(n * n) n rows

let validate points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Pairwise: empty data";
  let d = Array.length points.(0) in
  Array.iter
    (fun p -> if Array.length p <> d then invalid_arg "Pairwise: ragged data")
    points;
  (n, d)

let sq_distance_matrix points =
  let n, _d = validate points in
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
  (* small grain: the triangular loop makes early rows much heavier than
     late ones, and many small chunks let the pool absorb that *)
  run_pairwise ~grain:(Stdlib.max 1 ((n + 255) / 256)) n rows;
  m

let sq_distances_to points query =
  let n, d = validate points in
  if Array.length query <> d then invalid_arg "Pairwise.sq_distances_to: dimension mismatch";
  Array.init n (fun i -> Vec.dist2_sq points.(i) query)

let k_nearest_unchecked points n k i =
  let d2 = Array.init n (fun j -> Vec.dist2_sq points.(j) points.(i)) in
  let order = Array.init n (fun j -> j) in
  Array.sort (fun a b -> compare d2.(a) d2.(b)) order;
  (* drop self (distance 0 comes first; with exact duplicates, drop index i
     wherever it landed) *)
  let out = Array.make k 0 in
  let filled = ref 0 and pos = ref 0 in
  while !filled < k do
    let j = order.(!pos) in
    if j <> i then begin
      out.(!filled) <- j;
      incr filled
    end;
    incr pos
  done;
  out

let k_nearest points k i =
  let n, _ = validate points in
  if i < 0 || i >= n then invalid_arg "Pairwise.k_nearest: index out of range";
  if k < 0 || k >= n then invalid_arg "Pairwise.k_nearest: k must be < n";
  k_nearest_unchecked points n k i

let all_k_nearest points k =
  let n, _ = validate points in
  if k < 0 || k >= n then invalid_arg "Pairwise.all_k_nearest: k must be < n";
  let out = Array.make n [||] in
  let rows lo hi =
    for i = lo to hi - 1 do
      out.(i) <- k_nearest_unchecked points n k i
    done
  in
  run_pairwise n rows;
  out
