exception Not_positive_definite of int

let c_factor = Telemetry.Counter.make "linalg.cholesky_factor"
let c_solve = Telemetry.Counter.make "linalg.cholesky_solve"
let c_flops = Telemetry.Counter.make "linalg.flops"

(* Cholesky–Banachiewicz: row-by-row construction of the lower factor. *)
let factor a =
  if not (Mat.is_square a) then invalid_arg "Cholesky.factor: matrix not square";
  let n = a.Mat.rows in
  Telemetry.Counter.incr c_factor;
  Telemetry.Counter.add c_flops (n * n * n / 3);
  let l = Mat.zeros n n in
  let ad = a.Mat.data and ld = l.Mat.data in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref ad.((i * n) + j) in
      for k = 0 to j - 1 do
        acc := !acc -. (ld.((i * n) + k) *. ld.((j * n) + k))
      done;
      if i = j then begin
        if !acc <= 0. then raise (Not_positive_definite i);
        ld.((i * n) + i) <- sqrt !acc
      end
      else ld.((i * n) + j) <- !acc /. ld.((j * n) + j)
    done
  done;
  l

let solve_factored_into l b y =
  let n = l.Mat.rows in
  if Array.length b <> n then
    invalid_arg "Cholesky.solve_factored: length mismatch";
  if Array.length y <> n then
    invalid_arg "Cholesky.solve_factored_into: output length mismatch";
  Telemetry.Counter.incr c_solve;
  Telemetry.Counter.add c_flops (2 * n * n);
  let ld = l.Mat.data in
  (* forward: l y = b *)
  Array.blit b 0 y 0 n;
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (ld.((i * n) + j) *. y.(j))
    done;
    y.(i) <- !acc /. ld.((i * n) + i)
  done;
  (* backward: lᵀ x = y *)
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (ld.((j * n) + i) *. y.(j))
    done;
    y.(i) <- !acc /. ld.((i * n) + i)
  done

let solve_factored l b =
  let y = Array.make (Array.length b) 0. in
  solve_factored_into l b y;
  y

let solve a b = solve_factored (factor a) b

let solve_many a b =
  if a.Mat.rows <> b.Mat.rows then
    invalid_arg "Cholesky.solve_many: dimension mismatch";
  let l = factor a in
  let x = Mat.zeros a.Mat.cols b.Mat.cols in
  for j = 0 to b.Mat.cols - 1 do
    Mat.set_col x j (solve_factored l (Mat.col b j))
  done;
  x

let inverse a = solve_many a (Mat.eye a.Mat.rows)

let log_det a =
  let l = factor a in
  let n = l.Mat.rows in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. log l.Mat.data.((i * n) + i)
  done;
  2. *. !acc

let is_spd a =
  Mat.is_symmetric ~tol:1e-8 a
  && match factor a with exception Not_positive_definite _ -> false | _ -> true
