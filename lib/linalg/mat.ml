type t = { rows : int; cols : int; data : float array }

(* telemetry probes: one branch per *call* (never per element), so the
   disabled-mode cost is invisible next to the O(n^2)/O(n^3) body *)
let c_gemv = Telemetry.Counter.make "linalg.gemv"
let c_gemm = Telemetry.Counter.make "linalg.gemm"
let c_flops = Telemetry.Counter.make "linalg.flops"

let check_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let check_square name a =
  if a.rows <> a.cols then
    invalid_arg (Printf.sprintf "Mat.%s: matrix is %dx%d, not square" name a.rows a.cols)

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.
let ones rows cols = create rows cols 1.

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    let base = i * cols in
    for j = 0 to cols - 1 do
      data.(base + j) <- f i j
    done
  done;
  { rows; cols; data }

let eye n = init n n (fun i j -> if i = j then 1. else 0.)

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.)

let of_rows rows_arr =
  let r = Array.length rows_arr in
  if r = 0 then invalid_arg "Mat.of_rows: empty";
  let c = Array.length rows_arr.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg "Mat.of_rows: ragged rows")
    rows_arr;
  init r c (fun i j -> rows_arr.(i).(j))

let of_cols cols_arr =
  let c = Array.length cols_arr in
  if c = 0 then invalid_arg "Mat.of_cols: empty";
  let r = Array.length cols_arr.(0) in
  Array.iter
    (fun col ->
      if Array.length col <> r then invalid_arg "Mat.of_cols: ragged columns")
    cols_arr;
  init r c (fun i j -> cols_arr.(j).(i))

let of_arrays = of_rows

let to_arrays a =
  Array.init a.rows (fun i -> Array.sub a.data (i * a.cols) a.cols)

let copy a = { a with data = Array.copy a.data }

let get a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg "Mat.get: index out of bounds";
  a.data.((i * a.cols) + j)

let set a i j x =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg "Mat.set: index out of bounds";
  a.data.((i * a.cols) + j) <- x

let row a i =
  if i < 0 || i >= a.rows then invalid_arg "Mat.row: index out of bounds";
  Array.sub a.data (i * a.cols) a.cols

let col a j =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col: index out of bounds";
  Array.init a.rows (fun i -> a.data.((i * a.cols) + j))

let get_diag a =
  let n = Stdlib.min a.rows a.cols in
  Array.init n (fun i -> a.data.((i * a.cols) + i))

let dims a = (a.rows, a.cols)
let is_square a = a.rows = a.cols

let set_row a i v =
  if i < 0 || i >= a.rows then invalid_arg "Mat.set_row: index out of bounds";
  if Array.length v <> a.cols then invalid_arg "Mat.set_row: length mismatch";
  Array.blit v 0 a.data (i * a.cols) a.cols

let set_col a j v =
  if j < 0 || j >= a.cols then invalid_arg "Mat.set_col: index out of bounds";
  if Array.length v <> a.rows then invalid_arg "Mat.set_col: length mismatch";
  for i = 0 to a.rows - 1 do
    a.data.((i * a.cols) + j) <- v.(i)
  done

let map f a = { a with data = Array.map f a.data }

let mapij f a =
  init a.rows a.cols (fun i j -> f i j a.data.((i * a.cols) + j))

let add a b =
  check_dims "add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_dims "sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let hadamard a b =
  check_dims "hadamard" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) *. b.data.(k)) }

let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let add_scaled_identity a mu =
  check_square "add_scaled_identity" a;
  let b = copy a in
  for i = 0 to a.rows - 1 do
    b.data.((i * a.cols) + i) <- b.data.((i * a.cols) + i) +. mu
  done;
  b

(* Whether a kernel call fans out over the domain pool is decided by
   Parallel.Dispatch's fixed work thresholds.  The decision only gates
   *where* the row loop runs; each row's accumulation order is
   unchanged, so the output is bit-identical for any domain count. *)

(* GEMV.  Four rows share each sweep over x: x.(j) is loaded once for
   four products, and the four accumulators are independent chains the
   CPU overlaps, where one row's single chain waits on each add.  Every
   row still sums its columns in ascending order from 0., so its bits
   are those of the one-row loop, which the last (hi - lo) mod 4 rows of
   a chunk take. *)
let mv_into a x y =
  if Array.length x <> a.cols then
    invalid_arg
      (Printf.sprintf "Mat.mv: %dx%d matrix times vector of length %d" a.rows
         a.cols (Array.length x));
  if Array.length y <> a.rows then
    invalid_arg
      (Printf.sprintf "Mat.mv_into: %dx%d matrix into vector of length %d"
         a.rows a.cols (Array.length y));
  Telemetry.Counter.incr c_gemv;
  Telemetry.Counter.add c_flops (2 * a.rows * a.cols);
  let cols = a.cols and d = a.data in
  let rows lo hi =
    let i = ref lo in
    while !i + 4 <= hi do
      let b0 = !i * cols in
      let b1 = b0 + cols in
      let b2 = b1 + cols in
      let b3 = b2 + cols in
      let acc0 = ref 0. and acc1 = ref 0. in
      let acc2 = ref 0. and acc3 = ref 0. in
      for j = 0 to cols - 1 do
        let xj = x.(j) in
        acc0 := !acc0 +. (d.(b0 + j) *. xj);
        acc1 := !acc1 +. (d.(b1 + j) *. xj);
        acc2 := !acc2 +. (d.(b2 + j) *. xj);
        acc3 := !acc3 +. (d.(b3 + j) *. xj)
      done;
      y.(!i) <- !acc0;
      y.(!i + 1) <- !acc1;
      y.(!i + 2) <- !acc2;
      y.(!i + 3) <- !acc3;
      i := !i + 4
    done;
    for i = !i to hi - 1 do
      let base = i * cols in
      let acc = ref 0. in
      for j = 0 to cols - 1 do
        acc := !acc +. (d.(base + j) *. x.(j))
      done;
      y.(i) <- !acc
    done
  in
  Parallel.Dispatch.run Parallel.Dispatch.Gemv ~work:(a.rows * cols) a.rows
    rows

let mv a x =
  let y = Array.make a.rows 0. in
  mv_into a x y;
  y

let tmv a x =
  if Array.length x <> a.rows then
    invalid_arg
      (Printf.sprintf "Mat.tmv: (%dx%d)^T times vector of length %d" a.rows
         a.cols (Array.length x));
  Telemetry.Counter.incr c_gemv;
  Telemetry.Counter.add c_flops (2 * a.rows * a.cols);
  let y = Array.make a.cols 0. in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let xi = x.(i) in
    if xi <> 0. then
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (a.data.(base + j) *. xi)
      done
  done;
  y

(* GEMM.  Every path keeps each output cell's k accumulation strictly
   ascending, so the bits always match the naive ijk triple loop (no
   zero-skipping: a skipped 0-term can turn a -0. accumulator into +0.,
   which would break that contract).

   Large products go through a register-blocked 4x4 micro-kernel over a
   packed copy of B: the four B columns of a strip are interleaved into
   one contiguous panel (packed once, shared read-only by every row
   chunk), and the sixteen accumulators live in local float refs that
   the compiler keeps unboxed in registers, so the k loop streams two
   cache lines instead of striding across B.  Small products keep the
   plain ikj loop — the packing would cost more than it saves. *)
let mr = 4 (* micro-kernel rows *)
let nr = 4 (* micro-kernel cols = packed strip width *)
let gemm_pack_threshold = 1 lsl 12

(* c[i0..i0+3][s*4..s*4+3] += A[i0..i0+3][:] . packed strip s *)
let gemm_kernel_4x4 ad abase kdim acols bp bpbase cd cbase n =
  let c00 = ref 0. and c01 = ref 0. and c02 = ref 0. and c03 = ref 0. in
  let c10 = ref 0. and c11 = ref 0. and c12 = ref 0. and c13 = ref 0. in
  let c20 = ref 0. and c21 = ref 0. and c22 = ref 0. and c23 = ref 0. in
  let c30 = ref 0. and c31 = ref 0. and c32 = ref 0. and c33 = ref 0. in
  let a0 = abase and a1 = abase + acols in
  let a2 = abase + (2 * acols) and a3 = abase + (3 * acols) in
  for k = 0 to kdim - 1 do
    let bk = bpbase + (k * nr) in
    let b0 = bp.(bk) and b1 = bp.(bk + 1) in
    let b2 = bp.(bk + 2) and b3 = bp.(bk + 3) in
    let x0 = ad.(a0 + k) and x1 = ad.(a1 + k) in
    let x2 = ad.(a2 + k) and x3 = ad.(a3 + k) in
    c00 := !c00 +. (x0 *. b0);
    c01 := !c01 +. (x0 *. b1);
    c02 := !c02 +. (x0 *. b2);
    c03 := !c03 +. (x0 *. b3);
    c10 := !c10 +. (x1 *. b0);
    c11 := !c11 +. (x1 *. b1);
    c12 := !c12 +. (x1 *. b2);
    c13 := !c13 +. (x1 *. b3);
    c20 := !c20 +. (x2 *. b0);
    c21 := !c21 +. (x2 *. b1);
    c22 := !c22 +. (x2 *. b2);
    c23 := !c23 +. (x2 *. b3);
    c30 := !c30 +. (x3 *. b0);
    c31 := !c31 +. (x3 *. b1);
    c32 := !c32 +. (x3 *. b2);
    c33 := !c33 +. (x3 *. b3)
  done;
  let r0 = cbase and r1 = cbase + n in
  let r2 = cbase + (2 * n) and r3 = cbase + (3 * n) in
  cd.(r0) <- !c00;
  cd.(r0 + 1) <- !c01;
  cd.(r0 + 2) <- !c02;
  cd.(r0 + 3) <- !c03;
  cd.(r1) <- !c10;
  cd.(r1 + 1) <- !c11;
  cd.(r1 + 2) <- !c12;
  cd.(r1 + 3) <- !c13;
  cd.(r2) <- !c20;
  cd.(r2 + 1) <- !c21;
  cd.(r2 + 2) <- !c22;
  cd.(r2 + 3) <- !c23;
  cd.(r3) <- !c30;
  cd.(r3 + 1) <- !c31;
  cd.(r3 + 2) <- !c32;
  cd.(r3 + 3) <- !c33

(* scalar fallback for edge rows/columns: per-cell dot, k ascending *)
let gemm_scalar_cells ad abase kdim bd cd cbase n j0 j1 =
  for j = j0 to j1 - 1 do
    let acc = ref 0. in
    for k = 0 to kdim - 1 do
      acc := !acc +. (ad.(abase + k) *. bd.((k * n) + j))
    done;
    cd.(cbase + j) <- !acc
  done

let mm a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.mm: %dx%d times %dx%d" a.rows a.cols b.rows b.cols);
  Telemetry.Counter.incr c_gemm;
  Telemetry.Counter.add c_flops (2 * a.rows * a.cols * b.cols);
  let c = zeros a.rows b.cols in
  let kdim = a.cols and n = b.cols in
  let work = a.rows * kdim * n in
  if work = 0 then c
  else if work < gemm_pack_threshold || n < nr || kdim = 0 then begin
    (* plain ikj: inner loop contiguous over b and c *)
    for i = 0 to a.rows - 1 do
      let abase = i * kdim and cbase = i * n in
      for k = 0 to kdim - 1 do
        let aik = a.data.(abase + k) in
        let bbase = k * n in
        for j = 0 to n - 1 do
          c.data.(cbase + j) <- c.data.(cbase + j) +. (aik *. b.data.(bbase + j))
        done
      done
    done;
    c
  end
  else begin
    let nstrips = n / nr in
    let ntail = nstrips * nr in
    (* pack the full strips of B once, before any dispatch *)
    let bp = Array.make (nstrips * kdim * nr) 0. in
    for s = 0 to nstrips - 1 do
      let sbase = s * kdim * nr in
      let j0 = s * nr in
      for k = 0 to kdim - 1 do
        let src = (k * n) + j0 and dst = sbase + (k * nr) in
        bp.(dst) <- b.data.(src);
        bp.(dst + 1) <- b.data.(src + 1);
        bp.(dst + 2) <- b.data.(src + 2);
        bp.(dst + 3) <- b.data.(src + 3)
      done
    done;
    let panel lo hi =
      let i = ref lo in
      while !i + mr <= hi do
        let abase = !i * kdim and cbase = !i * n in
        for s = 0 to nstrips - 1 do
          gemm_kernel_4x4 a.data abase kdim kdim bp (s * kdim * nr) c.data
            (cbase + (s * nr)) n
        done;
        if ntail < n then
          for di = 0 to mr - 1 do
            gemm_scalar_cells a.data (abase + (di * kdim)) kdim b.data c.data
              (cbase + (di * n)) n ntail n
          done;
        i := !i + mr
      done;
      for i = !i to hi - 1 do
        gemm_scalar_cells a.data (i * kdim) kdim b.data c.data (i * n) n 0 n
      done
    in
    Parallel.Dispatch.run
      ~grain:(Stdlib.max mr ((a.rows + 31) / 32))
      Parallel.Dispatch.Gemm ~work a.rows panel;
    c
  end

let transpose a = init a.cols a.rows (fun i j -> a.data.((j * a.cols) + i))

let gram a =
  Telemetry.Counter.incr c_gemm;
  Telemetry.Counter.add c_flops (a.rows * a.cols * a.cols);
  let g = zeros a.cols a.cols in
  for k = 0 to a.rows - 1 do
    let base = k * a.cols in
    for i = 0 to a.cols - 1 do
      let aki = a.data.(base + i) in
      if aki <> 0. then begin
        let gbase = i * a.cols in
        for j = i to a.cols - 1 do
          g.data.(gbase + j) <- g.data.(gbase + j) +. (aki *. a.data.(base + j))
        done
      end
    done
  done;
  (* mirror the upper triangle *)
  for i = 0 to a.cols - 1 do
    for j = 0 to i - 1 do
      g.data.((i * a.cols) + j) <- g.data.((j * a.cols) + i)
    done
  done;
  g

let outer x y =
  init (Array.length x) (Array.length y) (fun i j -> x.(i) *. y.(j))

let quadratic_form a x =
  check_square "quadratic_form" a;
  Vec.dot x (mv a x)

let trace a =
  check_square "trace" a;
  let acc = ref 0. in
  for i = 0 to a.rows - 1 do
    acc := !acc +. a.data.((i * a.cols) + i)
  done;
  !acc

let frobenius_norm a =
  let acc = ref 0. in
  Array.iter (fun x -> acc := !acc +. (x *. x)) a.data;
  sqrt !acc

let max_abs a =
  let acc = ref 0. in
  Array.iter
    (fun x ->
      let v = abs_float x in
      if v > !acc then acc := v)
    a.data;
  !acc

(* Vec.sum's order (ascending from 0.) on each row, in place *)
let row_sums a =
  let s = Array.make a.rows 0. in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let acc = ref 0. in
    for j = 0 to a.cols - 1 do
      acc := !acc +. a.data.(base + j)
    done;
    s.(i) <- !acc
  done;
  s
let col_sums a = tmv a (Vec.ones a.rows)

let is_symmetric ?(tol = 1e-9) a =
  is_square a
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = i + 1 to a.cols - 1 do
      if abs_float (a.data.((i * a.cols) + j) -. a.data.((j * a.cols) + i)) > tol
      then ok := false
    done
  done;
  !ok

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for k = 0 to Array.length a.data - 1 do
    if abs_float (a.data.(k) -. b.data.(k)) > tol then ok := false
  done;
  !ok

let submatrix a i j r c =
  if i < 0 || j < 0 || r < 0 || c < 0 || i + r > a.rows || j + c > a.cols then
    invalid_arg "Mat.submatrix: out of range";
  init r c (fun p q -> a.data.(((i + p) * a.cols) + j + q))

let blit ~src ~dst i j =
  if i < 0 || j < 0 || i + src.rows > dst.rows || j + src.cols > dst.cols then
    invalid_arg "Mat.blit: out of range";
  for p = 0 to src.rows - 1 do
    Array.blit src.data (p * src.cols) dst.data (((i + p) * dst.cols) + j)
      src.cols
  done

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Mat.hcat: row mismatch";
  let c = zeros a.rows (a.cols + b.cols) in
  blit ~src:a ~dst:c 0 0;
  blit ~src:b ~dst:c 0 a.cols;
  c

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Mat.vcat: column mismatch";
  let c = zeros (a.rows + b.rows) a.cols in
  blit ~src:a ~dst:c 0 0;
  blit ~src:b ~dst:c a.rows 0;
  c

let split4 a k =
  check_square "split4" a;
  if k < 0 || k > a.rows then invalid_arg "Mat.split4: bad split point";
  let n = a.rows in
  ( submatrix a 0 0 k k,
    submatrix a 0 k k (n - k),
    submatrix a k 0 (n - k) k,
    submatrix a k k (n - k) (n - k) )

let assemble4 a11 a12 a21 a22 =
  let top = hcat a11 a12 and bottom = hcat a21 a22 in
  vcat top bottom

let pp ppf a =
  Format.fprintf ppf "@[<v>";
  for i = 0 to a.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "[";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4g" a.data.((i * a.cols) + j)
    done;
    Format.fprintf ppf "]"
  done;
  Format.fprintf ppf "@]"

let to_string a = Format.asprintf "%a" pp a
