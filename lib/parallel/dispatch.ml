type kernel = Gemm | Gemv | Spmv | Pairwise

let kernel_name = function
  | Gemm -> "gemm"
  | Gemv -> "gemv"
  | Spmv -> "spmv"
  | Pairwise -> "pairwise"

(* pairwise: n >= 64, squared *)
let threshold = function
  | Gemm -> 1 lsl 16
  | Gemv -> 1 lsl 15
  | Spmv -> 1 lsl 12
  | Pairwise -> 4096

let counters =
  List.map
    (fun k ->
      let c verdict =
        Telemetry.Counter.make
          (Printf.sprintf "parallel.tune.%s.%s" (kernel_name k) verdict)
      in
      (k, (c "serial", c "parallel")))
    [ Gemm; Gemv; Spmv; Pairwise ]

let decide k ~work ~rows =
  let parallel = rows >= 2 && work >= threshold k in
  let serial_c, par_c = List.assoc k counters in
  Telemetry.Counter.incr (if parallel then par_c else serial_c);
  parallel

let run ?grain k ~work n body =
  if decide k ~work ~rows:n then Pool.run ?grain n body else body 0 n
