(** SplitMix64 — a tiny, high-quality 64-bit mixer.

    Expands user seeds into the state of {!Xoshiro256} and derives
    independent per-replicate streams; every experiment in the
    reproduction is keyed by one integer seed through this module.  Its
    {!combine} step also builds the serving layer's digests. *)

type t

val create : int64 -> t
val of_int : int -> t

val next : t -> int64
(** Advance the state and return the next 64-bit output. *)

val mix : int64 -> int64
(** The stateless finalizer (one round of SplitMix64 output mixing). *)

val combine : int64 -> int64 -> int64
(** [combine h v] folds [v] into the running hash [h]: one SplitMix64
    step from state [h lxor v]. *)

val derive : int64 -> int -> int64
(** [derive seed k] is a well-separated sub-seed for stream [k] —
    replicate [k] of an experiment uses [derive master_seed k]. *)
