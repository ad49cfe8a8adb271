(** A reusable, lazily-spawned pool of OCaml 5 domains with deterministic
    chunked scheduling.

    {2 Determinism contract}

    An index range [0, n) is split into chunks of a fixed [grain]
    (chunk [c] covers [c*grain, min n ((c+1)*grain))).  The chunk layout
    depends only on [n] and [grain] — never on the pool size or on which
    domain executes which chunk — so any computation whose chunks write
    disjoint state produces bit-identical results regardless of the
    domain count.  No floating-point sum is
    reassociated across a chunk boundary by the pool itself.

    {2 Scheduling}

    Chunks are claimed dynamically from a shared atomic cursor, so load
    imbalance between chunks (e.g. the triangular pairwise loop) is
    absorbed without affecting results.  The calling domain participates
    in chunk execution; worker domains are spawned lazily on the first
    parallel job and parked on a condition variable between jobs.

    A [parallel_for] issued from {e inside} a pool task (nested
    parallelism, e.g. a parallel solver under a parallel sweep) runs
    inline on the current domain instead of re-entering the pool, so
    nesting can never oversubscribe the machine or deadlock.

    {2 Telemetry}

    [parallel.pool.tasks] counts parallel jobs, [parallel.pool.chunks]
    the chunks scheduled across them, [parallel.pool.busy_ns] the summed
    wall-clock nanoseconds domains spent executing chunks, and
    [parallel.pool.inline_tasks] the jobs that ran inline (pool of one,
    single chunk, or nested). *)

type t

val default_domain_count : unit -> int
(** Domain budget used when none is given explicitly: the [GSSL_DOMAINS]
    environment variable when set to a positive integer (clamped to 64),
    otherwise [Domain.recommended_domain_count ()]. *)

val create : ?domains:int -> unit -> t
(** A pool running on [domains] domains in total, the caller included
    (so [domains - 1] workers are spawned, lazily).  [domains] defaults
    to {!default_domain_count}.  Raises [Invalid_argument] when
    [domains < 1]. *)

val size : t -> int
(** The total domain count (callers + workers) the pool was created with. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Jobs submitted after
    shutdown run inline on the caller. *)

val parallel_for : ?grain:int -> t -> int -> (int -> int -> unit) -> unit
(** [parallel_for ~grain pool n body] runs [body lo hi] over a partition
    of [0, n) into half-open chunks of [grain] indices (last chunk may
    be short).  [body] must treat distinct indices independently (write
    disjoint state); under that contract results are identical for any
    pool size, including inline execution.  [grain] defaults to
    {!default_grain}[ n].  Exceptions raised by [body] are re-raised in
    the caller after all chunks have been drained (first one wins). *)

val default_grain : int -> int
(** [max 1 ((n + 63) / 64)] — at most 64 chunks, enough slack for
    dynamic load balancing while keeping per-chunk dispatch cost
    amortised.  Depends only on [n]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** Run [f] with a freshly created pool, shutting it down afterwards
    (also on exception). *)

val sequential : (unit -> 'a) -> 'a
(** Run [f] with pool dispatch disabled on the current domain: every
    {!parallel_for} reached from inside [f] (including through {!run})
    executes inline.  This is the
    reference serial mode the qcheck bit-identity properties and the
    serial bench phases compare against. *)

(** {2 The process-wide default pool}

    The hot kernels ([Linalg.Mat.mm], [Sparse.Csr.mv], pairwise
    distances, ...) dispatch through a single shared default pool so
    that nested parallel regions coordinate instead of each spawning
    their own domains. *)

val get_default : unit -> t
(** The shared default pool, created on first use with
    {!default_domain_count} domains. *)

val set_default_domains : int -> unit
(** Replace the default pool with one of the given size (shutting the
    previous one down).  Raises [Invalid_argument] when [domains < 1]. *)

val with_default_domains : int -> (unit -> 'a) -> 'a
(** Run [f] with the default pool temporarily replaced by a fresh pool
    of the given size; restores (and re-creates lazily) the previous
    default afterwards. *)

val run : ?grain:int -> int -> (int -> int -> unit) -> unit
(** {!parallel_for} on the default pool. *)
