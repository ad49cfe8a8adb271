module Mat = Linalg.Mat
module Vec = Linalg.Vec

type storage = Dense of Mat.t | Sparse of Sparse.Csr.t

type t = {
  storage : storage;
  order : int;
  mutable degrees : Vec.t option;
  mutable components : int array option;  (* at threshold 0 *)
}

(* NaN slips through both the symmetry check (any comparison with NaN is
   false) and the sign check, so finiteness must be tested explicitly.
   A direct loop, so no weight is boxed on its way to a check. *)
let check_weights (ws : float array) =
  for k = 0 to Array.length ws - 1 do
    let v = ws.(k) in
    if not (Float.is_finite v) then
      invalid_arg "Weighted_graph: non-finite weight";
    if v < 0. then invalid_arg "Weighted_graph: negative weight"
  done

let validate_dense m =
  if not (Mat.is_square m) then invalid_arg "Weighted_graph: matrix not square";
  if not (Mat.is_symmetric ~tol:1e-9 m) then
    invalid_arg "Weighted_graph: matrix not symmetric";
  check_weights m.Mat.data

let validate_sparse c =
  let rows, cols = Sparse.Csr.dims c in
  if rows <> cols then invalid_arg "Weighted_graph: matrix not square";
  if not (Sparse.Csr.is_symmetric ~tol:1e-9 c) then
    invalid_arg "Weighted_graph: matrix not symmetric";
  check_weights c.Sparse.Csr.values

let of_dense m =
  validate_dense m;
  { storage = Dense m; order = m.Mat.rows; degrees = None; components = None }

let of_sparse c =
  validate_sparse c;
  {
    storage = Sparse c;
    order = fst (Sparse.Csr.dims c);
    degrees = None;
    components = None;
  }

let of_dense_unchecked m =
  if not (Mat.is_square m) then invalid_arg "Weighted_graph: matrix not square";
  { storage = Dense m; order = m.Mat.rows; degrees = None; components = None }

let of_sparse_unchecked c =
  let rows, cols = Sparse.Csr.dims c in
  if rows <> cols then invalid_arg "Weighted_graph: matrix not square";
  { storage = Sparse c; order = rows; degrees = None; components = None }

let order t = t.order

let weight t i j =
  match t.storage with
  | Dense m -> Mat.get m i j
  | Sparse c -> Sparse.Csr.get c i j

let degrees t =
  match t.degrees with
  | Some d -> d
  | None ->
      let d =
        match t.storage with
        | Dense m -> Mat.row_sums m
        | Sparse c -> Sparse.Csr.row_sums c
      in
      t.degrees <- Some d;
      d

let storage t = t.storage

let to_dense t =
  match t.storage with
  | Dense m -> Mat.copy m
  | Sparse c -> Sparse.Csr.to_dense c

let total_weight t = Vec.sum (degrees t)

let iter_edges t f =
  match t.storage with
  | Dense m ->
      for i = 0 to t.order - 1 do
        for j = i + 1 to t.order - 1 do
          let w = Mat.get m i j in
          if w <> 0. then f i j w
        done
      done
  | Sparse c ->
      let row_ptr = c.Sparse.Csr.row_ptr and col_idx = c.Sparse.Csr.col_idx in
      let values = c.Sparse.Csr.values in
      for i = 0 to t.order - 1 do
        (* columns ascend, so the upper triangle is the row's tail *)
        let k = ref row_ptr.(i) and hi = row_ptr.(i + 1) in
        while !k < hi && col_idx.(!k) <= i do
          incr k
        done;
        for k = !k to hi - 1 do
          let w = values.(k) in
          if w <> 0. then f i col_idx.(k) w
        done
      done

(* Union-find with path compression over the nonzero edges heavier than
   [threshold], visited in [iter_edges]' order straight off the storage.
   The scan stops at the (n - 1)th merge: every vertex is then in one
   component, so no later edge can change the partition (a dense kernel
   graph gets there within its first rows). *)
let union_find ~threshold t =
  let n = t.order in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let merges = ref 0 in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then begin
      parent.(ri) <- rj;
      incr merges
    end
  in
  (match t.storage with
  | Dense m ->
      let data = m.Mat.data in
      let i = ref 0 in
      while !merges < n - 1 && !i < n do
        let base = !i * n in
        let j = ref (!i + 1) in
        while !merges < n - 1 && !j < n do
          let w = data.(base + !j) in
          if w <> 0. && w > threshold then union !i !j;
          incr j
        done;
        incr i
      done
  | Sparse c ->
      let row_ptr = c.Sparse.Csr.row_ptr and col_idx = c.Sparse.Csr.col_idx in
      let values = c.Sparse.Csr.values in
      let i = ref 0 in
      while !merges < n - 1 && !i < n do
        let k = ref row_ptr.(!i) and hi = row_ptr.(!i + 1) in
        while !merges < n - 1 && !k < hi do
          let w = values.(!k) in
          let j = col_idx.(!k) in
          if j > !i && w <> 0. && w > threshold then union !i j;
          incr k
        done;
        incr i
      done);
  (* relabel roots in order of first appearance: the labels depend on
     the partition alone *)
  let label = Array.make n (-1) in
  let next = ref 0 in
  Array.init n (fun i ->
      let r = find i in
      if label.(r) = -1 then begin
        label.(r) <- !next;
        incr next
      end;
      label.(r))

let components ?(threshold = 0.) t =
  if threshold <> 0. then union_find ~threshold t
  else
    match t.components with
    | Some c -> c
    | None ->
        let c = union_find ~threshold t in
        t.components <- Some c;
        c
