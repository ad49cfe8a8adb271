(** Serial/parallel dispatch for the pooled kernels.

    Every parallel kernel (dense GEMM/GEMV, sparse SpMV, pairwise
    distances) asks this module whether the current call fans out over
    the domain pool.  One fixed rule answers: parallel when the call
    spreads over at least two rows and its work measure reaches the
    kernel's {!threshold}.  The decision
    depends only on the call's sizes — never on the live pool size or
    the clock — and the parallel path keeps each row's accumulation
    order, so the output is bit-identical either way.

    Each decision bumps a [parallel.tune.<kernel>.{serial,parallel}]
    telemetry counter. *)

type kernel = Gemm | Gemv | Spmv | Pairwise

val kernel_name : kernel -> string

val threshold : kernel -> int
(** The work at which a kernel goes parallel, in that kernel's work
    measure: [Gemm] rows·k·cols ≥ 2¹⁶, [Gemv] rows·cols ≥ 2¹⁵, [Spmv]
    nnz ≥ 2¹², [Pairwise] n² ≥ 4096. *)

val decide : kernel -> work:int -> rows:int -> bool
(** [rows >= 2 && work >= threshold kernel] (so [work <= 0] is serial),
    logged on the kernel's decision counter. *)

val run : ?grain:int -> kernel -> work:int -> int -> (int -> int -> unit) -> unit
(** [run kernel ~work n body] runs [body] over [0, n) on the default
    pool ({!Pool.run}) when [decide kernel ~work ~rows:n], otherwise as
    [body 0 n]. *)
