type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array;
}

let dims t = (t.rows, t.cols)
let nnz t = Array.length t.values

let of_coo coo =
  let rows, cols = Coo.dims coo in
  (* count entries per row *)
  let counts = Array.make rows 0 in
  Coo.iter (fun i _ _ -> counts.(i) <- counts.(i) + 1) coo;
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + counts.(i)
  done;
  let n = row_ptr.(rows) in
  let col_idx = Array.make n 0 and values = Array.make n 0. in
  let fill = Array.copy row_ptr in
  Coo.iter
    (fun i j v ->
      let k = fill.(i) in
      col_idx.(k) <- j;
      values.(k) <- v;
      fill.(i) <- k + 1)
    coo;
  (* sort each row by column and merge duplicates; a row whose columns
     already strictly increase is copied as it stands *)
  let out_col = Array.make n 0 and out_val = Array.make n 0. in
  let out_ptr = Array.make (rows + 1) 0 in
  let pos = ref 0 in
  for i = 0 to rows - 1 do
    out_ptr.(i) <- !pos;
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    let len = hi - lo in
    let p = ref (lo + 1) in
    while !p < hi && col_idx.(!p - 1) < col_idx.(!p) do incr p done;
    if !p >= hi then begin
      Array.blit col_idx lo out_col !pos len;
      Array.blit values lo out_val !pos len;
      pos := !pos + len
    end
    else begin
      let order = Array.init len (fun k -> lo + k) in
      Array.sort (fun a b -> compare col_idx.(a) col_idx.(b)) order;
      let prev = ref (-1) in
      Array.iter
        (fun k ->
          let c = col_idx.(k) in
          if c = !prev then out_val.(!pos - 1) <- out_val.(!pos - 1) +. values.(k)
          else begin
            out_col.(!pos) <- c;
            out_val.(!pos) <- values.(k);
            incr pos;
            prev := c
          end)
        order
    end
  done;
  out_ptr.(rows) <- !pos;
  {
    rows;
    cols;
    row_ptr = out_ptr;
    col_idx = Array.sub out_col 0 !pos;
    values = Array.sub out_val 0 !pos;
  }

let of_sorted_rows ~rows ~cols ~row_ptr ~col_idx ~values =
  let bad what = invalid_arg ("Csr.of_sorted_rows: " ^ what) in
  if rows < 0 || cols < 0 then bad "negative dimension";
  if Array.length row_ptr <> rows + 1 then bad "row_ptr length <> rows + 1";
  if row_ptr.(0) <> 0 then bad "row_ptr does not start at 0";
  for i = 0 to rows - 1 do
    if row_ptr.(i + 1) < row_ptr.(i) then bad "row_ptr decreases"
  done;
  let n = Array.length col_idx in
  if Array.length values <> n || row_ptr.(rows) <> n then
    bad "row_ptr, col_idx and values lengths disagree";
  for i = 0 to rows - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    for k = lo to hi - 1 do
      let c = col_idx.(k) in
      if c < 0 || c >= cols then bad "column out of range";
      if k > lo && col_idx.(k - 1) >= c then
        bad "row columns not strictly increasing"
    done
  done;
  { rows; cols; row_ptr; col_idx; values }

let of_dense ?threshold m = of_coo (Coo.of_dense ?threshold m)

let to_dense t =
  let m = Linalg.Mat.zeros t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Linalg.Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Csr.get: index out of bounds";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      result := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let c_matvec = Telemetry.Counter.make "sparse.matvecs"
let c_flops = Telemetry.Counter.make "sparse.flops"

(* Rows are independent, so SpMV fans out over row panels when nnz
   reaches Parallel.Dispatch's SpMV threshold; each row's accumulation
   order is unchanged, so the result is bit-identical to the serial loop
   for any domain count. *)
let spmv_dispatch t rows_body =
  Parallel.Dispatch.run Parallel.Dispatch.Spmv ~work:(nnz t) t.rows rows_body

let mv_into t x y =
  if Array.length x <> t.cols then invalid_arg "Csr.mv: length mismatch";
  if Array.length y <> t.rows then
    invalid_arg "Csr.mv: output length mismatch";
  Telemetry.Counter.incr c_matvec;
  Telemetry.Counter.add c_flops (2 * nnz t);
  let rows lo hi =
    for i = lo to hi - 1 do
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      y.(i) <- !acc
    done
  in
  spmv_dispatch t rows

let mv t x =
  let y = Array.make t.rows 0. in
  mv_into t x y;
  y

(* Fused graph-Laplacian products: the degree scaling (and, for the
   soft criterion, the labeled-block identity and the lambda weight)
   are applied in the same row pass as the W.x accumulation, so the
   operator costs one sweep and no intermediate vector.  Per row the
   W.x accumulation order matches [mv] exactly and the combination
   mirrors the unfused [vdiag_i*x_i + lambda*(deg_i*x_i - (Wx)_i)]
   expression, so the fused result is bit-identical to the composed
   one. *)

let lap_mv_into t ~deg x y =
  if Array.length x <> t.cols then invalid_arg "Csr.lap_mv: length mismatch";
  if Array.length deg <> t.rows then
    invalid_arg "Csr.lap_mv: degree length mismatch";
  if Array.length y <> t.rows then
    invalid_arg "Csr.lap_mv: output length mismatch";
  Telemetry.Counter.incr c_matvec;
  Telemetry.Counter.add c_flops ((2 * nnz t) + (2 * t.rows));
  let rows lo hi =
    for i = lo to hi - 1 do
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      y.(i) <- (deg.(i) *. x.(i)) -. !acc
    done
  in
  spmv_dispatch t rows

let lap_mv t ~deg x =
  let y = Array.make t.rows 0. in
  lap_mv_into t ~deg x y;
  y

(* The two row passes of a multigrid level, each counted as the lap_mv
   product it contains: the residual b − A·x, and one damped Jacobi
   sweep x + step·(b − A·x).  Per row both keep the expressions of the
   composed lap_mv-then-combine passes, so they are bit-identical to
   them. *)

let check_lap name t ~deg ~b x y =
  if Array.length x <> t.cols then invalid_arg (name ^ ": length mismatch");
  if Array.length deg <> t.rows then
    invalid_arg (name ^ ": degree length mismatch");
  if Array.length b <> t.rows || Array.length y <> t.rows then
    invalid_arg (name ^ ": output length mismatch")

let lap_residual_into t ~deg ~b x r =
  check_lap "Csr.lap_residual_into" t ~deg ~b x r;
  Telemetry.Counter.incr c_matvec;
  Telemetry.Counter.add c_flops ((2 * nnz t) + (2 * t.rows));
  let rows lo hi =
    for i = lo to hi - 1 do
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      r.(i) <- b.(i) -. ((deg.(i) *. x.(i)) -. !acc)
    done
  in
  spmv_dispatch t rows

let lap_jacobi_into t ~deg ~step ~b x y =
  check_lap "Csr.lap_jacobi_into" t ~deg ~b x y;
  if Array.length step <> t.rows then
    invalid_arg "Csr.lap_jacobi_into: step length mismatch";
  Telemetry.Counter.incr c_matvec;
  Telemetry.Counter.add c_flops ((2 * nnz t) + (2 * t.rows));
  let rows lo hi =
    for i = lo to hi - 1 do
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      y.(i) <- x.(i) +. (step.(i) *. (b.(i) -. ((deg.(i) *. x.(i)) -. !acc)))
    done
  in
  spmv_dispatch t rows

let fused_lap_mv_into t ~deg ~vdiag ~lambda x y =
  if Array.length x <> t.cols then
    invalid_arg "Csr.fused_lap_mv: length mismatch";
  if Array.length deg <> t.rows then
    invalid_arg "Csr.fused_lap_mv: degree length mismatch";
  if Array.length vdiag <> t.rows then
    invalid_arg "Csr.fused_lap_mv: vdiag length mismatch";
  if Array.length y <> t.rows then
    invalid_arg "Csr.fused_lap_mv: output length mismatch";
  Telemetry.Counter.incr c_matvec;
  Telemetry.Counter.add c_flops ((2 * nnz t) + (4 * t.rows));
  let rows lo hi =
    for i = lo to hi - 1 do
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
      done;
      y.(i) <- (vdiag.(i) *. x.(i)) +. (lambda *. ((deg.(i) *. x.(i)) -. !acc))
    done
  in
  spmv_dispatch t rows

let fused_lap_mv t ~deg ~vdiag ~lambda x =
  let y = Array.make t.rows 0. in
  fused_lap_mv_into t ~deg ~vdiag ~lambda x y;
  y

let tmv t x =
  if Array.length x <> t.rows then invalid_arg "Csr.tmv: length mismatch";
  Telemetry.Counter.incr c_matvec;
  Telemetry.Counter.add c_flops (2 * nnz t);
  let y = Array.make t.cols 0. in
  for i = 0 to t.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        y.(t.col_idx.(k)) <- y.(t.col_idx.(k)) +. (t.values.(k) *. xi)
      done
  done;
  y

let transpose t =
  let coo = Coo.create t.cols t.rows in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Coo.add coo t.col_idx.(k) i t.values.(k)
    done
  done;
  of_coo coo

let scale s t = { t with values = Array.map (fun v -> s *. v) t.values }

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Csr.add: dimension mismatch";
  let coo = Coo.create a.rows a.cols in
  let pour t =
    for i = 0 to t.rows - 1 do
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        Coo.add coo i t.col_idx.(k) t.values.(k)
      done
    done
  in
  pour a;
  pour b;
  of_coo coo

let diagonal t =
  let n = Stdlib.min t.rows t.cols in
  Array.init n (fun i -> get t i i)

let row_sums t =
  Array.init t.rows (fun i ->
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. t.values.(k)
      done;
      !acc)

let map_values f t = { t with values = Array.map f t.values }

let iter_row t i f =
  if i < 0 || i >= t.rows then invalid_arg "Csr.iter_row: index out of bounds";
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let is_symmetric ?(tol = 1e-9) t =
  t.rows = t.cols
  &&
  let ok = ref true in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      if abs_float (t.values.(k) -. get t j i) > tol then ok := false
    done
  done;
  !ok
